// Package baselines reimplements the search strategies of the four
// fuzzers the paper compares against (Section 5.1): the byte-level
// coverage-guided AFL++, the UB-avoiding program generator Csmith, the
// loop-optimization-focused generator YARPGen, and GrayC with its five
// semantic-aware mutators. Each implements fuzz.Fuzzer, so the RQ1
// harness treats all techniques uniformly.
package baselines

import (
	"math/rand"

	"github.com/icsnju/metamut-go/internal/compilersim"
	"github.com/icsnju/metamut-go/internal/fuzz"
)

// AFL is a byte-level coverage-guided fuzzer in the style of AFL++:
// havoc-stacked binary mutations with no awareness of C syntax. Most of
// its offspring do not compile, which is exactly what drives its
// characteristic profile — high front-end (error-path) coverage, crashes
// concentrated in the front-end, and a ~3.5% compilable ratio (Table 5).
type AFL struct {
	cx    *compilersim.Context
	pool  []string
	rng   *rand.Rand
	stats *fuzz.Stats
	// HavocMax is the maximum number of stacked byte mutations.
	HavocMax int
}

// NewAFL builds the AFL++-style baseline over a seed pool.
func NewAFL(name string, comp *compilersim.Compiler, seedPool []string,
	rng *rand.Rand) *AFL {
	pool := make([]string, len(seedPool))
	copy(pool, seedPool)
	return &AFL{cx: comp.NewContext(), pool: pool, rng: rng,
		stats: fuzz.NewStats(name), HavocMax: 6}
}

// Name returns the fuzzer name.
func (a *AFL) Name() string { return a.stats.Name }

// Stats exposes accounting.
func (a *AFL) Stats() *fuzz.Stats { return a.stats }

// interestingBytes are AFL's classic interesting values.
var interestingBytes = []byte{0, 1, 0x7f, 0x80, 0xff, '(', ')', '{', '}',
	'"', '\'', ';', '#', '*', '&'}

// Step picks a pool entry, applies a havoc stack of byte mutations,
// compiles, and admits coverage-increasing offspring.
func (a *AFL) Step() {
	if len(a.pool) == 0 {
		return
	}
	src := []byte(a.pool[a.rng.Intn(len(a.pool))])
	// Power-schedule-like: some inputs get a single mutation, most get
	// deeper havoc stacks.
	n := 1
	if a.rng.Float64() < 0.75 {
		n += a.rng.Intn(a.HavocMax) + 1
	}
	for i := 0; i < n && len(src) > 0; i++ {
		switch a.rng.Intn(8) {
		case 0: // bit flip
			p := a.rng.Intn(len(src))
			src[p] ^= 1 << uint(a.rng.Intn(8))
		case 1: // interesting byte
			p := a.rng.Intn(len(src))
			src[p] = interestingBytes[a.rng.Intn(len(interestingBytes))]
		case 2: // delete span
			if len(src) > 4 {
				p := a.rng.Intn(len(src) - 2)
				l := 1 + a.rng.Intn(min(8, len(src)-p-1))
				src = append(src[:p], src[p+l:]...)
			}
		case 3: // duplicate span
			if len(src) > 4 && len(src) < 1<<15 {
				p := a.rng.Intn(len(src) - 2)
				l := 1 + a.rng.Intn(min(16, len(src)-p-1))
				chunk := append([]byte(nil), src[p:p+l]...)
				src = append(src[:p], append(chunk, src[p:]...)...)
			}
		case 4: // random byte
			p := a.rng.Intn(len(src))
			src[p] = byte(a.rng.Intn(256))
		case 5: // splice with another pool entry
			other := a.pool[a.rng.Intn(len(a.pool))]
			if len(other) > 2 && len(src) > 2 {
				cut1 := a.rng.Intn(len(src))
				cut2 := a.rng.Intn(len(other))
				src = append(src[:cut1], other[cut2:]...)
			}
		case 6: // arithmetic on a digit: frequently stays compilable
			p := a.rng.Intn(len(src))
			if src[p] >= '0' && src[p] <= '9' {
				src[p] = '0' + byte((int(src[p]-'0')+1+a.rng.Intn(8))%10)
			}
		case 7: // swap adjacent bytes
			if len(src) > 1 {
				p := a.rng.Intn(len(src) - 1)
				src[p], src[p+1] = src[p+1], src[p]
			}
		}
	}
	mutant := string(src)
	res := a.cx.Compile(mutant, compilersim.DefaultOptions())
	isNew := a.stats.Record(mutant, "havoc", res)
	if isNew {
		// AFL admits any coverage-increasing input, compilable or not —
		// error paths are coverage too.
		a.pool = append(a.pool, mutant)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
