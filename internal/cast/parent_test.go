package cast_test

import (
	"math/rand"
	"testing"

	"github.com/icsnju/metamut-go/internal/cast"
	"github.com/icsnju/metamut-go/internal/muast"
	_ "github.com/icsnju/metamut-go/internal/mutators"
	"github.com/icsnju/metamut-go/internal/seeds"
)

// referenceParents is the independent reference for the parser's parent
// links: a side table filled by a walk over Children.
func referenceParents(root cast.Node) map[cast.Node]cast.Node {
	pm := map[cast.Node]cast.Node{}
	var fill func(n cast.Node)
	fill = func(n cast.Node) {
		for _, c := range cast.Children(n) {
			pm[c] = n
			fill(c)
		}
	}
	fill(root)
	return pm
}

// checkLinks requires cast.Parent to agree with the reference on every
// node of tu, and the root to have no parent.
func checkLinks(t *testing.T, tu *cast.TranslationUnit, src string) {
	t.Helper()
	if p := cast.Parent(tu); p != nil {
		t.Fatalf("root has parent %s:\n%s", p.Kind(), src)
	}
	ref := referenceParents(tu)
	cast.Walk(tu, func(n cast.Node) bool {
		if got, want := cast.Parent(n), ref[n]; got != want {
			t.Fatalf("Parent(%s at %v) = %T %p, reference %T %p:\n%s",
				n.Kind(), n.Range(), got, got, want, want, src)
		}
		return true
	})
}

// parentCorpus is seeds.Generate(16, 11), damaged variants that still
// parse (sema rejects them), and every mutator's output on the seeds.
func parentCorpus(t *testing.T) []string {
	pool := seeds.Generate(16, 11)
	corpus := append([]string{}, pool...)
	for _, src := range pool[:6] {
		corpus = append(corpus, "int main() { return undeclared_name; }\n"+src,
			src+"\nint dup(int a, int b) { return a = b = c; }\n")
	}
	rng := rand.New(rand.NewSource(11))
	for _, src := range pool {
		for _, mu := range muast.All() {
			mgr, err := muast.NewManager(src, rng)
			if err != nil {
				t.Fatal(err)
			}
			if mutant, ok := mu.Apply(src, mgr); ok {
				corpus = append(corpus, mutant)
			}
		}
	}
	return corpus
}

// TestParentLinksMatchReference holds the links ParseTokens writes to
// the reference side table, on heap parses and on one arena reused
// across every program (a link left over from the previous program
// would disagree), and pins Parent's nil cases.
func TestParentLinksMatchReference(t *testing.T) {
	arena := cast.NewArena()
	parsed := 0
	for _, src := range parentCorpus(t) {
		tu, err := cast.Parse(src)
		if err != nil {
			continue
		}
		checkLinks(t, tu, src)
		arena.Reset()
		if tu, err = cast.ParseWithArena(src, arena); err != nil {
			t.Fatalf("arena parse failed where the heap parse did not: %v", err)
		}
		checkLinks(t, tu, src)
		parsed++
	}
	if parsed < 500 {
		t.Fatalf("only %d corpus programs parsed", parsed)
	}
	t.Logf("%d programs parsed", parsed)

	if p := cast.Parent(nil); p != nil {
		t.Errorf("Parent(nil) = %v", p)
	}
	if p := cast.Parent((*cast.IfStmt)(nil)); p != nil {
		t.Errorf("Parent of a typed-nil node = %v", p)
	}
	if p := cast.Parent(&cast.IntegerLiteral{}); p != nil {
		t.Errorf("Parent of a node built outside the parser = %v", p)
	}
}
