package fuzz

import (
	"math/rand"
	"testing"

	"github.com/icsnju/metamut-go/internal/compilersim"
	"github.com/icsnju/metamut-go/internal/muast"
	"github.com/icsnju/metamut-go/internal/seeds"
)

// referenceSplice is the splice written against the μAST: a checked
// parse wrapped in a manager, the manager's whole-unit expression list,
// and one rewriter edit. The stream's text-edit splice must agree with
// it on output, ok and random draws.
func referenceSplice(src string, rng *rand.Rand) (string, bool) {
	mgr, err := muast.NewManager(src, rng)
	if err != nil {
		return "", false
	}
	exprs := mgr.Exprs(nil, nil)
	if len(exprs) < 2 {
		return "", false
	}
	dst := exprs[rng.Intn(len(exprs))]
	from := exprs[rng.Intn(len(exprs))]
	if dst == from || dst.Range().Contains(from.Range()) ||
		from.Range().Contains(dst.Range()) {
		return "", false
	}
	text := mgr.GetSourceText(from)
	if text == mgr.GetSourceText(dst) {
		return "", false
	}
	if !mgr.ReplaceNode(dst, text) {
		return "", false
	}
	return mgr.Apply(), true
}

// TestSpliceMatchesReference runs the splice and referenceSplice over
// the seeds and every mutator's output on them, several draws per
// input from RNGs in lockstep, and requires the same output, the same
// ok and the same RNG state afterwards. The splice walks the tree the
// compile context's Check leaves, as the fuzzers' check step feeds it;
// an input Check rejects is never spliced, which the reference must
// agree with by declining without a draw.
func TestSpliceMatchesReference(t *testing.T) {
	pool := seeds.Generate(16, 11)
	inputs := append([]string(nil), pool...)
	for i, p := range pool {
		for _, mu := range muast.All() {
			mgr, err := muast.NewManager(p, rand.New(rand.NewSource(int64(i))))
			if err != nil {
				t.Fatalf("seed %d does not check: %v", i, err)
			}
			if out, ok, faulted, _ := safeApply(mu, p, mgr); ok && !faulted {
				inputs = append(inputs, out)
			}
		}
	}
	s := &stream{}
	cx := compilersim.New("gcc", 14).NewContext()
	spliced := 0
	for i, src := range inputs {
		s.rng = rand.New(rand.NewSource(int64(i)))
		ref := rand.New(rand.NewSource(int64(i)))
		checkErr := cx.Check(src)
		for draw := 0; draw < 4; draw++ {
			got, gotOK := "", false
			if checkErr == nil {
				got, gotOK = s.splice(src, cx.TU())
			}
			want, wantOK := referenceSplice(src, ref)
			if got != want || gotOK != wantOK {
				t.Fatalf("input %d draw %d: splice = (%q, %v), reference = (%q, %v)\n%s",
					i, draw, got, gotOK, want, wantOK, src)
			}
			if gotOK {
				spliced++
			}
		}
		if a, b := s.rng.Int63(), ref.Int63(); a != b {
			t.Fatalf("input %d: RNG state diverged from the reference", i)
		}
	}
	if spliced == 0 {
		t.Fatal("no input was spliced")
	}
	t.Logf("%d inputs, %d splices", len(inputs), spliced)
}
