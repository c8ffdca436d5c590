package compilersim

import (
	"testing"

	"github.com/icsnju/metamut-go/internal/seeds"
)

// FuzzContextReuseMatchesFresh holds the reusable context to its
// contract: after a full Check + CompileChecked of a, a Check of b must
// give the same result as a fresh context's, and TU must be nil exactly
// when Check(b) errs and otherwise hold b's tree. The fuzzers rely on
// this when they reuse one context for every mutant and splice the tree
// its Check verdict left.
func FuzzContextReuseMatchesFresh(f *testing.F) {
	pool := seeds.Generate(6, 9)
	for k, s := range pool {
		f.Add(s, pool[(k+1)%len(pool)], uint8(k))
	}
	f.Add(pool[0][:len(pool[0])/2], pool[1], uint8(2))
	f.Add("int main() { return undeclared_name; }", pool[2], uint8(3))
	f.Add(pool[3], "int main() { return 0; @ }", uint8(1))
	comps := []*Compiler{New("gcc", 14), New("clang", 14)}
	f.Fuzz(func(t *testing.T, a, b string, sel uint8) {
		if len(a) > 1<<12 || len(b) > 1<<12 {
			t.Skip()
		}
		comp := comps[int(sel)%len(comps)]
		opts := Options{OptLevel: int(sel/2) % 4}

		reused := comp.NewContext()
		reused.Check(a)
		reused.CompileChecked(opts)
		err := reused.Check(b)
		if tu := reused.TU(); (tu == nil) != (err != nil) {
			t.Fatalf("TU() = %v after Check error %v", tu, err)
		} else if tu != nil && tu.Source != b {
			t.Fatalf("TU().Source = %q, want %q", tu.Source, b)
		}
		got := resultDigest(reused.CompileChecked(opts))

		fresh := comp.NewContext()
		fresh.Check(b)
		if want := resultDigest(fresh.CompileChecked(opts)); got != want {
			t.Fatalf("reused context diverged from a fresh one on b after a\na: %q\nb: %q", a, b)
		}
	})
}
