package cast

import (
	"strings"
	"testing"
)

// TestSemaPointerArithmetic covers the pointer-type rules used heavily by
// the pointer-rewriting mutators.
func TestSemaPointerArithmetic(t *testing.T) {
	good := []string{
		"int f(int *p) { return *(p + 3); }",
		"int f(int *p, int *q) { return (int)(p - q); }",
		"int f(int *p) { return p[0] + 1; }",
		"char f(char *s) { return *(s + 1); }",
		"int f(int a[4]) { return *(a + 2); }",
		"int f(int *p) { int *q = p + 1; return *q; }",
		"long f(int *p) { return (long)p; }",
		"int f(void) { int x = 1; int *p = &x; return *p; }",
		"int f(void) { int a[2][3]; int (*row)[3] = a; return row[1][2]; }",
	}
	for _, src := range good {
		if _, err := ParseAndCheck(src); err != nil {
			t.Errorf("ParseAndCheck(%q): %v", src, err)
		}
	}
	bad := []struct{ src, want string }{
		{"int f(int *p, int *q) { return (int)(p * q); }", "invalid operands"},
		{"int f(int *p, int *q) { return (int)(p + q); }", "invalid operands"},
		{"int f(void) { int x; return *x; }", "indirection requires pointer"},
		{"int f(void) { return *3; }", "indirection requires pointer"},
	}
	for _, tc := range bad {
		_, err := ParseAndCheck(tc.src)
		if err == nil {
			t.Errorf("ParseAndCheck(%q) passed", tc.src)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%q error %q missing %q", tc.src, err, tc.want)
		}
	}
}

func TestSemaFunctionPointers(t *testing.T) {
	src := `
int add(int a, int b) { return a + b; }
int apply(int (*op)(int, int), int x, int y) { return op(x, y); }
int main(void) { return apply(add, 1, 2); }
`
	if _, err := ParseAndCheck(src); err != nil {
		t.Fatalf("function pointers rejected: %v", err)
	}
	// (*f)(args) — the CallViaPointerDeref mutator's output shape.
	src2 := `
int add(int a, int b) { return a + b; }
int main(void) { return (*add)(1, 2); }
`
	if _, err := ParseAndCheck(src2); err != nil {
		t.Fatalf("(*f)(args) rejected: %v", err)
	}
}

func TestSemaEnumsAsInts(t *testing.T) {
	src := `
enum color { RED, GREEN = 5, BLUE };
int f(enum color c) { return c + RED; }
int main(void) {
    enum color c = GREEN;
    switch (c) {
    case RED: return 0;
    case GREEN: return 1;
    default: return 2;
    }
}
`
	tu, err := ParseAndCheck(src)
	if err != nil {
		t.Fatalf("enum program rejected: %v", err)
	}
	// Enumerator values resolve.
	ed := tu.Decls[0].(*EnumDecl)
	wants := map[string]int64{"RED": 0, "GREEN": 5, "BLUE": 6}
	for _, c := range ed.Constants {
		if c.Num != wants[c.Name] {
			t.Errorf("%s = %d, want %d", c.Name, c.Num, wants[c.Name])
		}
	}
}

func TestSemaTypedefChains(t *testing.T) {
	src := `
typedef int myint;
typedef myint myint2;
typedef myint2 *pmyint2;
myint2 f(pmyint2 p) { return *p + 1; }
int main(void) { myint x = 3; return f(&x); }
`
	if _, err := ParseAndCheck(src); err != nil {
		t.Fatalf("typedef chain rejected: %v", err)
	}
}

func TestSemaStringAndCharTypes(t *testing.T) {
	tu, err := ParseAndCheck(`
int main(void) {
    const char *s = "abc";
    char c = 'x';
    return s[1] + c;
}
`)
	if err != nil {
		t.Fatal(err)
	}
	Walk(tu, func(n Node) bool {
		switch x := n.(type) {
		case *StringLiteral:
			// "abc" has type char[4].
			at, ok := x.Type().T.(*ArrayType)
			if !ok || at.Size != 4 {
				t.Errorf("string literal type = %s", x.Type().CString())
			}
		case *CharLiteral:
			if k, _ := x.Type().Basic(); k != Int {
				t.Errorf("char literal type = %s, want int", x.Type().CString())
			}
		}
		return true
	})
}

func TestSemaVariadicCalls(t *testing.T) {
	good := []string{
		`int main(void) { printf("%d %s", 1, "x"); return 0; }`,
		`int main(void) { printf("plain"); return 0; }`,
		`int own(int first, ...); int main(void) { return own(1, 2, 3); }`,
	}
	for _, src := range good {
		if _, err := ParseAndCheck(src); err != nil {
			t.Errorf("%q: %v", src, err)
		}
	}
}

func TestSemaCommaAndConditionalTypes(t *testing.T) {
	tu, err := ParseAndCheck(`
int main(void) {
    int a = 1;
    double d = a > 0 ? 1.5 : 2;
    int c = (a, 7);
    return (int)d + c;
}
`)
	if err != nil {
		t.Fatal(err)
	}
	var condTy, commaTy QualType
	Walk(tu, func(n Node) bool {
		switch x := n.(type) {
		case *ConditionalExpr:
			condTy = x.Type()
		case *CommaExpr:
			commaTy = x.Type()
		}
		return true
	})
	if !condTy.IsFloating() {
		t.Errorf("mixed conditional type = %s, want double", condTy.CString())
	}
	if k, _ := commaTy.Basic(); k != Int {
		t.Errorf("comma type = %s, want int", commaTy.CString())
	}
}

func TestSemaIncompleteStruct(t *testing.T) {
	if _, err := ParseAndCheck(
		"struct s; int f(struct s *p) { return p->field; }"); err == nil {
		t.Error("member access through incomplete struct accepted")
	}
	if _, err := ParseAndCheck(
		"struct s; struct s *id(struct s *p) { return p; }"); err != nil {
		t.Errorf("opaque pointer use rejected: %v", err)
	}
}

func TestSemaScoping(t *testing.T) {
	// Inner declarations shadow outer ones; siblings do not leak.
	good := `
int x = 1;
int f(void) {
    int x = 2;
    { int x = 3; x++; }
    return x;
}
int main(void) { return f() + x; }
`
	if _, err := ParseAndCheck(good); err != nil {
		t.Fatalf("shadowing rejected: %v", err)
	}
	leak := `
int f(void) {
    { int inner = 3; inner++; }
    return inner;
}
`
	if _, err := ParseAndCheck(leak); err == nil {
		t.Error("block-local variable visible after its block")
	}
	forScope := `
int f(void) {
    for (int i = 0; i < 3; i++) { }
    return i;
}
`
	if _, err := ParseAndCheck(forScope); err == nil {
		t.Error("for-init variable visible after the loop")
	}
}

func TestSemaErrorLimit(t *testing.T) {
	// A program with very many errors must not blow up the diagnostic
	// list.
	var sb strings.Builder
	sb.WriteString("int main(void) {\n")
	for i := 0; i < 100; i++ {
		sb.WriteString("undeclared_a = undeclared_b;\n")
	}
	sb.WriteString("return 0; }\n")
	tu, err := Parse(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	cerr := Check(tu)
	if cerr == nil {
		t.Fatal("undeclared uses accepted")
	}
	if se, ok := cerr.(SemaErrors); ok && len(se) > maxSemaErrors {
		t.Errorf("diagnostics = %d, cap is %d", len(se), maxSemaErrors)
	}
}

func TestImplicitFunctionDeclaration(t *testing.T) {
	tu, err := ParseAndCheck(`
int main(void) {
    int x = mystery(1, 2, 3);
    return x + mystery(4);
}
`)
	if err != nil {
		t.Fatalf("implicit declarations rejected: %v", err)
	}
	// Both calls resolve to the same implicit int(...) declaration.
	var callees []*FunctionDecl
	Walk(tu, func(n Node) bool {
		if ce, ok := n.(*CallExpr); ok && ce.Callee != nil {
			callees = append(callees, ce.Callee)
		}
		return true
	})
	if len(callees) != 2 || callees[0] != callees[1] {
		t.Errorf("implicit decl not shared: %v", callees)
	}
}

// TestSemaUndeclaredLabelsInUseOrder: undeclared labels are reported
// once each, in the order of their first goto, on every run — the
// diagnostics feed mutant classification and must be deterministic.
func TestSemaUndeclaredLabelsInUseOrder(t *testing.T) {
	const src = `int main(void) {
    goto a1; goto b2; goto c3; goto a1; goto d4; goto e5;
ok: goto ok;
    return 0;
}`
	tu, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	var want string
	for i := 0; i < 200; i++ {
		cerr := Check(tu)
		if cerr == nil {
			t.Fatal("undeclared labels accepted")
		}
		if i == 0 {
			want = cerr.Error()
			continue
		}
		if got := cerr.Error(); got != want {
			t.Fatalf("run %d reported\n%s\nrun 0 reported\n%s", i, got, want)
		}
	}
	se := Check(tu).(SemaErrors)
	var order []string
	for _, e := range se {
		order = append(order, strings.Fields(e.Msg)[4])
	}
	if got := strings.Join(order, " "); got != `"a1" "b2" "c3" "d4" "e5"` {
		t.Errorf("undeclared labels reported as %s", got)
	}
}
