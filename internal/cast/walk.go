package cast

// Visitor is called for each node during a Walk. Returning false stops
// descent into the node's children (the walk continues with siblings).
type Visitor func(n Node) bool

// Walk traverses the AST rooted at n in source order, calling v for every
// node (pre-order). Traversal allocates nothing: children are visited via
// eachChild's type switch instead of materializing a slice per node.
func Walk(n Node, v Visitor) {
	if n == nil || isNilNode(n) {
		return
	}
	if !v(n) {
		return
	}
	eachChild(n, func(c Node) { Walk(c, v) })
}

// isNilNode guards against typed-nil interface values.
func isNilNode(n Node) bool {
	switch x := n.(type) {
	case *TranslationUnit:
		return x == nil
	case *FunctionDecl:
		return x == nil
	case *VarDecl:
		return x == nil
	case *ParmVarDecl:
		return x == nil
	case *FieldDecl:
		return x == nil
	case *RecordDecl:
		return x == nil
	case *EnumDecl:
		return x == nil
	case *EnumConstantDecl:
		return x == nil
	case *TypedefDecl:
		return x == nil
	case *CompoundStmt:
		return x == nil
	case *DeclStmt:
		return x == nil
	case *ExprStmt:
		return x == nil
	case *IfStmt:
		return x == nil
	case *WhileStmt:
		return x == nil
	case *DoStmt:
		return x == nil
	case *ForStmt:
		return x == nil
	case *SwitchStmt:
		return x == nil
	case *CaseStmt:
		return x == nil
	case *DefaultStmt:
		return x == nil
	case *BreakStmt:
		return x == nil
	case *ContinueStmt:
		return x == nil
	case *ReturnStmt:
		return x == nil
	case *GotoStmt:
		return x == nil
	case *LabelStmt:
		return x == nil
	case *NullStmt:
		return x == nil
	case *IntegerLiteral:
		return x == nil
	case *FloatingLiteral:
		return x == nil
	case *CharLiteral:
		return x == nil
	case *StringLiteral:
		return x == nil
	case *DeclRefExpr:
		return x == nil
	case *BinaryOperator:
		return x == nil
	case *UnaryOperator:
		return x == nil
	case *CallExpr:
		return x == nil
	case *ArraySubscriptExpr:
		return x == nil
	case *MemberExpr:
		return x == nil
	case *CastExpr:
		return x == nil
	case *ConditionalExpr:
		return x == nil
	case *ParenExpr:
		return x == nil
	case *SizeofExpr:
		return x == nil
	case *InitListExpr:
		return x == nil
	case *CompoundLiteralExpr:
		return x == nil
	case *CommaExpr:
		return x == nil
	}
	return false
}

// eachChild calls f for each direct AST child of n, in source order,
// skipping nil (including typed-nil) children. This is the single source
// of truth for child order; Walk, Children and the parent linker all
// delegate to it. f must not be retained (callers pass stack-scoped
// closures so the traversal stays allocation-free).
func eachChild(n Node, f func(Node)) {
	emit := func(c Node) {
		if c != nil && !isNilNode(c) {
			f(c)
		}
	}
	switch x := n.(type) {
	case *TranslationUnit:
		for _, d := range x.Decls {
			emit(d)
		}
	case *FunctionDecl:
		for _, pv := range x.Params {
			emit(pv)
		}
		if x.Body != nil {
			emit(x.Body)
		}
	case *VarDecl:
		if x.Init != nil {
			emit(x.Init)
		}
	case *RecordDecl:
		for _, fd := range x.Fields {
			emit(fd)
		}
	case *EnumDecl:
		for _, c := range x.Constants {
			emit(c)
		}
	case *EnumConstantDecl:
		if x.Value != nil {
			emit(x.Value)
		}
	case *CompoundStmt:
		for _, s := range x.Stmts {
			emit(s)
		}
	case *DeclStmt:
		for _, d := range x.Decls {
			emit(d)
		}
	case *ExprStmt:
		emit(x.X)
	case *IfStmt:
		emit(x.Cond)
		emit(x.Then)
		if x.Else != nil {
			emit(x.Else)
		}
	case *WhileStmt:
		emit(x.Cond)
		emit(x.Body)
	case *DoStmt:
		emit(x.Body)
		emit(x.Cond)
	case *ForStmt:
		if x.Init != nil {
			emit(x.Init)
		}
		if x.Cond != nil {
			emit(x.Cond)
		}
		if x.Post != nil {
			emit(x.Post)
		}
		emit(x.Body)
	case *SwitchStmt:
		emit(x.Cond)
		emit(x.Body)
	case *CaseStmt:
		emit(x.Value)
		if x.Body != nil {
			emit(x.Body)
		}
	case *DefaultStmt:
		if x.Body != nil {
			emit(x.Body)
		}
	case *ReturnStmt:
		if x.Value != nil {
			emit(x.Value)
		}
	case *LabelStmt:
		if x.Body != nil {
			emit(x.Body)
		}
	case *BinaryOperator:
		emit(x.LHS)
		emit(x.RHS)
	case *UnaryOperator:
		emit(x.X)
	case *CallExpr:
		emit(x.Fn)
		for _, a := range x.Args {
			emit(a)
		}
	case *ArraySubscriptExpr:
		emit(x.Base)
		emit(x.Index)
	case *MemberExpr:
		emit(x.Base)
	case *CastExpr:
		emit(x.X)
	case *ConditionalExpr:
		emit(x.Cond)
		emit(x.Then)
		emit(x.Else)
	case *ParenExpr:
		emit(x.X)
	case *SizeofExpr:
		if x.X != nil {
			emit(x.X)
		}
	case *InitListExpr:
		for _, e := range x.Inits {
			emit(e)
		}
	case *CompoundLiteralExpr:
		emit(x.Init)
	case *CommaExpr:
		emit(x.LHS)
		emit(x.RHS)
	}
}

// Children returns a node's direct AST children in source order. Nil
// children are omitted. Hot paths should prefer eachChild/Walk, which do
// not allocate the slice.
func Children(n Node) []Node {
	var out []Node
	eachChild(n, func(c Node) { out = append(out, c) })
	return out
}

// CollectKind returns all nodes of the given kind under root, in source
// order.
func CollectKind(root Node, k NodeKind) []Node {
	var out []Node
	Walk(root, func(n Node) bool {
		if n.Kind() == k {
			out = append(out, n)
		}
		return true
	})
	return out
}

// CountNodes returns the total number of AST nodes under root.
func CountNodes(root Node) int {
	n := 0
	Walk(root, func(Node) bool { n++; return true })
	return n
}

// link points every child under n at its parent. ParseTokens calls it
// once on the finished tree and nothing else writes parent links, so
// reading them never races with a writer on a shared tree.
func link(n Node) {
	eachChild(n, func(c Node) {
		c.(interface{ linkTo(Node) }).linkTo(n)
		link(c)
	})
}

// Parent returns the node whose child n is in the parsed tree. It is
// nil for the root, for a nil or typed-nil n, and for nodes the parser
// did not build.
func Parent(n Node) Node {
	l, ok := n.(interface{ parentNode() Node })
	if !ok || isNilNode(n) {
		return nil
	}
	return l.parentNode()
}

// EnclosingFunction returns the FunctionDecl that lexically contains n, or
// nil when n is at file scope.
func EnclosingFunction(n Node) *FunctionDecl {
	for cur := Parent(n); cur != nil; cur = Parent(cur) {
		if fd, ok := cur.(*FunctionDecl); ok {
			return fd
		}
	}
	return nil
}

// EnclosingStmt returns the nearest enclosing statement of n (or n itself
// if it is a statement).
func EnclosingStmt(n Node) Stmt {
	for cur := n; cur != nil; cur = Parent(cur) {
		if s, ok := cur.(Stmt); ok {
			return s
		}
	}
	return nil
}

// EnclosingLoop returns the nearest enclosing loop statement of n, or nil.
func EnclosingLoop(n Node) Stmt {
	for cur := Parent(n); cur != nil; cur = Parent(cur) {
		switch cur.(type) {
		case *WhileStmt, *DoStmt, *ForStmt:
			return cur.(Stmt)
		}
	}
	return nil
}
