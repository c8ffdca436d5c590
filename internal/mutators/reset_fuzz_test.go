package mutators

import (
	"math/rand"
	"testing"

	"github.com/icsnju/metamut-go/internal/cast"
	"github.com/icsnju/metamut-go/internal/muast"
	"github.com/icsnju/metamut-go/internal/seeds"
)

// FuzzManagerResetMatchesFresh holds Manager.Reset to its contract: a
// manager that applied mutator i and was Reset must apply mutator j
// exactly as a fresh manager over the same tree does, from the same RNG
// state — the same output text, the same ok, and the same fuel verdict.
// The fuzzers rely on this when one manager serves every try of a step.
func FuzzManagerResetMatchesFresh(f *testing.F) {
	for k, s := range seeds.Generate(6, 5) {
		f.Add(s, uint8(7*k), uint8(11*k+3), int64(k))
	}
	muts := muast.All()
	f.Fuzz(func(t *testing.T, src string, i, j uint8, seed int64) {
		if len(src) > 1<<12 {
			t.Skip()
		}
		tu, err := cast.ParseAndCheck(src)
		if err != nil {
			t.Skip()
		}
		first, second := muts[int(i)%len(muts)], muts[int(j)%len(muts)]

		rng := rand.New(rand.NewSource(seed))
		reused := muast.NewManagerFromTU(tu, rng)
		applyWatched(first, src, reused)
		reused.Reset()
		rng.Seed(seed + 1)
		got, gotOK, gotFuel := applyWatched(second, src, reused)

		fresh := muast.NewManagerFromTU(tu, rand.New(rand.NewSource(seed+1)))
		want, wantOK, wantFuel := applyWatched(second, src, fresh)

		if got != want || gotOK != wantOK || gotFuel != wantFuel {
			t.Fatalf("%s after %s and Reset: ok=%v fuel=%v\n%s\nfresh manager: ok=%v fuel=%v\n%s",
				second.Name, first.Name, gotOK, gotFuel, got, wantOK, wantFuel, want)
		}
	})
}

// applyWatched applies mu, turning a fuel-watchdog cut into fuel=true
// the way the fuzzers' supervised apply does. Any other panic is a
// mutator bug and propagates.
func applyWatched(mu *muast.Mutator, src string, m *muast.Manager) (out string, ok, fuel bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, isFuel := r.(muast.FuelExhausted); !isFuel {
				panic(r)
			}
			out, ok, fuel = "", false, true
		}
	}()
	out, ok = mu.Apply(src, m)
	return out, ok, false
}
