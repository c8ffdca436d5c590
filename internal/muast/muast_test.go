package muast

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"github.com/icsnju/metamut-go/internal/cast"
)

const prog = `
int gv = 3;
int add3(int a, int b, int c) { return a + b + c; }
int twice(int x) { return x * 2; }
int main(void) {
    int r = add3(1, 2, 3);
    r += twice(r);
    r = add3(r, gv, 0);
    return r;
}
`

func newMgr(t *testing.T, src string) *Manager {
	t.Helper()
	m, err := NewManager(src, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	return m
}

func TestNewManagerRejectsInvalid(t *testing.T) {
	if _, err := NewManager("int f( {", rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("invalid program accepted")
	}
	if _, err := NewManager("int f(void) { return nosuch; }",
		rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("semantically invalid program accepted")
	}
}

func TestQueryAPIs(t *testing.T) {
	m := newMgr(t, prog)
	if got := len(m.Functions()); got != 3 {
		t.Errorf("Functions = %d, want 3", got)
	}
	if got := len(m.GlobalVars()); got != 1 {
		t.Errorf("GlobalVars = %d, want 1", got)
	}
	if got := len(m.LocalVars(nil)); got != 1 {
		t.Errorf("LocalVars = %d, want 1", got)
	}
	calls := m.Collect(cast.KindCallExpr)
	if len(calls) != 3 {
		t.Errorf("CallExprs = %d, want 3", len(calls))
	}
	var add3 *cast.FunctionDecl
	for _, fn := range m.Functions() {
		if fn.Name == "add3" {
			add3 = fn
		}
	}
	if got := len(m.CallsTo(add3)); got != 2 {
		t.Errorf("CallsTo(add3) = %d, want 2", got)
	}
	if got := len(m.ReturnsOf(add3)); got != 1 {
		t.Errorf("ReturnsOf(add3) = %d, want 1", got)
	}
}

func TestGetSourceText(t *testing.T) {
	m := newMgr(t, prog)
	for _, fn := range m.Functions() {
		text := m.GetSourceText(fn)
		if !strings.Contains(text, fn.Name) {
			t.Errorf("source text of %s does not contain its name: %q",
				fn.Name, text)
		}
	}
}

func TestRemoveParmFromFuncDecl(t *testing.T) {
	cases := []struct {
		name string
		src  string
		parm int
		want string
	}{
		{"middle", "int f(int a, int b, int c) { return a + c; }", 1,
			"int f(int a, int c)"},
		{"last", "int f(int a, int b) { return a; }", 1, "int f(int a)"},
		{"first", "int f(int a, int b) { return b; }", 0, "int f(int b)"},
		{"only", "int f(int a) { return 0; }", 0, "int f(void)"},
		{"first-spaced", "int f(int a ,\n\tint b, int c) { return b + c; }", 0,
			"int f(\n\tint b, int c)"},
		{"last-spaced", "int f(int a,\n\tint b) { return a; }", 1, "int f(int a)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := newMgr(t, tc.src)
			fn := m.Functions()[0]
			if !m.RemoveParmFromFuncDecl(fn, fn.Params[tc.parm]) {
				t.Fatal("removal failed")
			}
			out := m.Apply()
			if !strings.Contains(out, tc.want) {
				t.Fatalf("got %q, want substring %q", out, tc.want)
			}
			if _, err := cast.ParseAndCheck(out); err != nil {
				t.Fatalf("mutant does not compile: %v\n%s", err, out)
			}
		})
	}
}

func TestRemoveArgFromExpr(t *testing.T) {
	src := "int g(int a, int b, int c); int main(void) { return g(1, 2, 3); }"
	for idx, want := range map[int]string{
		0: "g(2, 3)", 1: "g(1, 3)", 2: "g(1, 2)",
	} {
		m := newMgr(t, src)
		call := m.Collect(cast.KindCallExpr)[0].(*cast.CallExpr)
		if !m.RemoveArgFromExpr(call, idx) {
			t.Fatalf("remove arg %d failed", idx)
		}
		if out := m.Apply(); !strings.Contains(out, want) {
			t.Errorf("remove arg %d: got %q, want %q", idx, out, want)
		}
	}
	m := newMgr(t, src)
	call := m.Collect(cast.KindCallExpr)[0].(*cast.CallExpr)
	if m.RemoveArgFromExpr(call, 5) {
		t.Error("out-of-range arg removal succeeded")
	}
}

func TestRemoveSoleArgAndForeignParm(t *testing.T) {
	m := newMgr(t, "int g(int a); int main(void) { return g(7); }")
	call := m.Collect(cast.KindCallExpr)[0].(*cast.CallExpr)
	if !m.RemoveArgFromExpr(call, 0) {
		t.Fatal("sole argument removal failed")
	}
	if out := m.Apply(); !strings.Contains(out, "return g();") {
		t.Errorf("sole argument removal: got %q, want g()", out)
	}

	m = newMgr(t, "int f(int a) { return a; } int h(int b) { return b; }")
	fns := m.Functions()
	if m.RemoveParmFromFuncDecl(fns[0], fns[1].Params[0]) {
		t.Error("removed a parameter of another function")
	}
	if m.Changed() {
		t.Error("failed removal recorded an edit")
	}
}

func TestGenerateUniqueName(t *testing.T) {
	m := newMgr(t, prog)
	seen := map[string]bool{}
	for i := 0; i < 50; i++ {
		n := m.GenerateUniqueName("tmp")
		if seen[n] {
			t.Fatalf("duplicate generated name %q", n)
		}
		if strings.Contains(prog, n) {
			t.Fatalf("generated name %q collides with program identifier", n)
		}
		seen[n] = true
	}
}

// TestGenerateUniqueNameSkipsProgramIdentifiers: a candidate is taken
// whenever the program text holds it as an identifier token, comments
// included, and a token's leading digits are not part of it.
func TestGenerateUniqueNameSkipsProgramIdentifiers(t *testing.T) {
	m := newMgr(t, "int tmp_1; int main(void) { /* 7tmp_2 xtmp_3 */ return tmp_1; }")
	var got []string
	for i := 0; i < 2; i++ {
		got = append(got, m.GenerateUniqueName("tmp"))
	}
	if want := []string{"tmp_3", "tmp_4"}; !reflect.DeepEqual(got, want) {
		t.Errorf("generated %v, want %v", got, want)
	}
}

func TestIsSideEffectFree(t *testing.T) {
	m := newMgr(t, `
int g(void);
int main(void) {
    int a = 1;
    int pure = a + 2 * 3;
    int impure1 = g();
    int impure2 = a++;
    int impure3 = (a = 5);
    return pure + impure1 + impure2 + impure3;
}
`)
	vars := m.LocalVars(nil)
	got := map[string]bool{}
	for _, vd := range vars {
		if vd.Init != nil {
			got[vd.Name] = m.IsSideEffectFree(vd.Init)
		}
	}
	want := map[string]bool{
		"a": true, "pure": true,
		"impure1": false, "impure2": false, "impure3": false,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("IsSideEffectFree(init of %s) = %v, want %v",
				name, got[name], w)
		}
	}
}

func TestUsesOf(t *testing.T) {
	m := newMgr(t, prog)
	gv := m.GlobalVars()[0]
	uses := m.UsesOf(gv)
	if len(uses) != 1 {
		t.Fatalf("uses of gv = %d, want 1", len(uses))
	}
}

func TestRegistryRejectsBadEntries(t *testing.T) {
	for _, info := range []Info{
		{},
		{Name: "X"},
		{Name: "X", Description: "d"},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Register(%+v) did not panic", info)
				}
			}()
			Register(info)
		}()
	}
}

func TestIndentOf(t *testing.T) {
	m := newMgr(t, "int main(void) {\n    int x = 1;\n\treturn x;\n}")
	decl := m.LocalVars(nil)[0]
	if got := m.IndentOf(decl.Range().Begin); got != "    " {
		t.Errorf("IndentOf = %q, want 4 spaces", got)
	}
}

// TestQuickApplyAlwaysParseable: replacing any expression with a same-type
// default through the Manager keeps the program parseable.
func TestQuickApplyAlwaysParseable(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, err := NewManager(prog, rng)
		if err != nil {
			return false
		}
		exprs := m.Exprs(nil, func(e cast.Expr) bool {
			return e.Type().IsInteger()
		})
		if len(exprs) == 0 {
			return true
		}
		e := exprs[rng.Intn(len(exprs))]
		// Only replace expressions not used as lvalues.
		m.ReplaceNode(e, "(0)")
		out := m.Apply()
		_, perr := cast.Parse(out)
		if perr != nil {
			t.Logf("unparseable after replace: %v\n%s", perr, out)
		}
		return perr == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestResetEquivalentToFresh pins the contract Reset's doc comment
// states: a reset manager must be indistinguishable from a freshly
// constructed one over the same program. The session below touches
// every piece of state Reset must restore — edits (RW), fuel and the
// name sequence — and runs it through one reused manager and a
// per-round fresh manager driven by RNGs in lockstep. Any drift (a surviving edit, a depleted budget, a name
// sequence that kept counting) shows up as diverging output.
func TestResetEquivalentToFresh(t *testing.T) {
	session := func(m *Manager) (out string, names []string, fuel int) {
		rng := m.Rand()
		exprs := m.Exprs(nil, func(e cast.Expr) bool { return e.Type().IsInteger() })
		if len(exprs) == 0 {
			t.Fatal("no integer expressions in test program")
		}
		m.ReplaceNode(exprs[rng.Intn(len(exprs))], "(7)")
		for i := 0; i < 3; i++ {
			names = append(names, m.GenerateUniqueName("tmp"))
		}
		fns := m.Functions()
		m.InsertBefore(fns[rng.Intn(len(fns))], "/* marker */\n")
		return m.Apply(), names, m.Fuel()
	}

	rngReused := rand.New(rand.NewSource(9))
	rngFresh := rand.New(rand.NewSource(9))
	reused, err := NewManager(prog, rngReused)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 5; round++ {
		fresh, err := NewManager(prog, rngFresh)
		if err != nil {
			t.Fatal(err)
		}
		wantOut, wantNames, wantFuel := session(fresh)
		if round > 0 {
			reused.Reset()
		}
		gotOut, gotNames, gotFuel := session(reused)
		if gotOut != wantOut {
			t.Fatalf("round %d: reset manager rewrote differently\n got %q\nwant %q",
				round, gotOut, wantOut)
		}
		if !reflect.DeepEqual(gotNames, wantNames) {
			t.Fatalf("round %d: generated names diverged: %v vs %v", round, gotNames, wantNames)
		}
		if gotFuel != wantFuel {
			t.Fatalf("round %d: fuel diverged: %d vs %d", round, gotFuel, wantFuel)
		}
	}
}
