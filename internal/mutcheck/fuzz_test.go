package mutcheck

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/icsnju/metamut-go/internal/compilersim"
	"github.com/icsnju/metamut-go/internal/muast"
	_ "github.com/icsnju/metamut-go/internal/mutators"
	"github.com/icsnju/metamut-go/internal/seeds"
)

// FuzzMutantValidator drives the soundness contract: Analyze/Reject must
// never panic, and a static rejection must imply the compilersim front
// end also rejects — the validator may never discard a mutant the
// compiler under test accepts.
func FuzzMutantValidator(f *testing.F) {
	for _, s := range seeds.Generate(20, 1) {
		f.Add(s)
	}
	f.Add("")
	f.Add("int main(void) { return 0 }")
	f.Add("int x = ;")
	f.Add("int main(void) { int a[2]; return a[5] / 0; }")
	f.Add("struct S { int f; } s; int main(void) { return s; }")

	comp := compilersim.New("gcc", 12)
	opts := compilersim.DefaultOptions()
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<15 {
			t.Skip()
		}
		diags := Analyze(src) // must not panic on any input
		_, rejected := Reject(src)
		if rejected != HasErrors(diags) {
			t.Fatalf("Reject=%v disagrees with Analyze errors=%v", rejected, HasErrors(diags))
		}
		res := comp.Compile(src, opts)
		if rejected && res.OK {
			t.Fatalf("validator rejected a program the compiler accepts:\n%s", src)
		}
	})
}

// FuzzCheckMatchesReject holds the fuzzers' static filter — the compile
// context's front end — to the independent reference: on every input,
// Context.Check and Reject give the same verdict and the same check
// label. One context serves every input, so state leaking between
// checks shows up as a disagreement.
func FuzzCheckMatchesReject(f *testing.F) {
	for _, s := range seeds.Generate(8, 3) {
		f.Add(s)
	}
	cx := compilersim.New("clang", 18).NewContext()
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<15 {
			t.Skip()
		}
		if msg := checkVsReject(cx, src); msg != "" {
			t.Fatalf("%s:\n%s", msg, src)
		}
	})
}

// checkVsReject compares one program's Context.Check verdict and label
// with Reject's, returning "" when they agree.
func checkVsReject(cx *compilersim.Context, src string) string {
	check, rejected := Reject(src)
	err := cx.Check(src)
	switch {
	case (err != nil) != rejected:
		return fmt.Sprintf("Context.Check returned %v, Reject rejected=%v", err, rejected)
	case err != nil && Classify(err) != check:
		return fmt.Sprintf("Context.Check classified as %q, Reject as %q", Classify(err), check)
	}
	return ""
}

// TestContextCheckMatchesReject runs the comparison over a fixed
// corpus: the seeds with truncated, garbage-suffixed and
// undeclared-name variants, and every mutator's mutant of every seed,
// each with and without an unchecked expression splice.
func TestContextCheckMatchesReject(t *testing.T) {
	cx := compilersim.New("gcc", 14).NewContext()
	labels := map[string]int{}
	for _, src := range checkCorpus(t) {
		if msg := checkVsReject(cx, src); msg != "" {
			t.Fatalf("%s:\n%s", msg, src)
		}
		check, _ := Reject(src)
		labels[check]++
	}
	t.Logf("verdicts: %v", labels)
	if labels[""] == 0 || labels[CheckParseError] == 0 || len(labels) < 4 {
		t.Fatalf("corpus reaches too few verdicts: %v", labels)
	}
}

// checkCorpus builds the comparison corpus from seeds.Generate(16, 11).
func checkCorpus(t *testing.T) []string {
	pool := seeds.Generate(16, 11)
	corpus := append([]string{}, pool...)
	for _, src := range pool[:6] {
		corpus = append(corpus, src[:len(src)/2], src+"\n@#$ garbage ;;;",
			"int main() { return undeclared_name; }\n"+src)
	}
	corpus = append(corpus, "", "int main() { return 0; }")
	rng := rand.New(rand.NewSource(11))
	for _, src := range pool {
		for _, mu := range muast.All() {
			mgr, err := muast.NewManager(src, rng)
			if err != nil {
				t.Fatal(err)
			}
			mutant, ok := mu.Apply(src, mgr)
			if !ok {
				continue
			}
			corpus = append(corpus, mutant)
			if spliced, ok := splice(mutant, rng); ok {
				corpus = append(corpus, spliced)
			}
		}
	}
	return corpus
}

// splice copies one expression over another with no semantic check —
// the fuzzers' unchecked rewrite, which is what lets mutants reach the
// sema rejects.
func splice(src string, rng *rand.Rand) (string, bool) {
	mgr, err := muast.NewManager(src, rng)
	if err != nil {
		return "", false
	}
	exprs := mgr.Exprs(nil, nil)
	if len(exprs) < 2 {
		return "", false
	}
	dst, from := exprs[rng.Intn(len(exprs))], exprs[rng.Intn(len(exprs))]
	if dst.Range().Contains(from.Range()) || from.Range().Contains(dst.Range()) ||
		!mgr.ReplaceNode(dst, mgr.GetSourceText(from)) {
		return "", false
	}
	return mgr.Apply(), true
}
