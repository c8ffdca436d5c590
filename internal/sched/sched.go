// Package sched implements deterministic mutator scheduling for the
// fuzzers: the paper's Algorithm 1 picks mutators uniformly at random
// each tick, but its own Table 1 shows per-mutator validity and yield
// vary by an order of magnitude. The adaptive scheduler here is a
// UCB1-style multi-armed bandit over per-mutator reward (new coverage,
// crash bonus, compile-error penalty) with an epsilon floor so no
// mutator starves, following the feedback-weighted selection that
// Mut4All and FunFuzz report as where LLM-synthesized operators pay off.
//
// Determinism is the design constraint everything else bends around:
// a scheduler instance is private to one fuzzing stream, draws all of
// its randomness from that stream's RNG, and serializes its complete
// posterior into a State that rides the engine checkpoint — so a fixed
// seed produces byte-identical campaigns at any worker count, and
// checkpoint+resume equals an uninterrupted run.
package sched

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"github.com/icsnju/metamut-go/internal/obs"
)

// Reward describes one observed mutant outcome for an arm. Fields are
// not mutually exclusive: a crashing mutant usually also covers new
// edges.
type Reward struct {
	// NewCoverage: the mutant covered previously-unseen edges.
	NewCoverage bool
	// Crash: the mutant crashed (or hung) the compiler.
	Crash bool
	// CompileError: the mutant was rejected, statically or by the
	// compiler front-end — the waste the paper's refinement loop fights.
	CompileError bool
	// Fault: the mutator itself panicked or exhausted its fuel budget.
	Fault bool
}

// Config tunes the adaptive policy. The zero value is not useful; use
// DefaultConfig.
type Config struct {
	// CoverageReward is credited per mutant covering new edges.
	CoverageReward float64
	// CrashBonus is credited per crashing mutant (on top of any
	// coverage credit).
	CrashBonus float64
	// CompileErrorPenalty is debited per rejected mutant.
	CompileErrorPenalty float64
	// FaultPenalty is debited per mutator panic or fuel exhaustion.
	FaultPenalty float64
	// Explore is the UCB exploration coefficient: score is
	// mean + Explore*sqrt(ln(t+1)/picks).
	Explore float64
	// Epsilon is the starvation floor: with this probability the
	// scheduler promotes a uniformly random allowed arm instead of the
	// exploit ranking, so every mutator keeps getting sampled.
	Epsilon float64
}

// DefaultConfig returns the calibrated policy: coverage is the base
// currency, crashes are worth a handful of coverage events, rejects
// cost a fraction, and a 10% epsilon floor keeps the tail alive.
func DefaultConfig() Config {
	return Config{
		CoverageReward:      1.0,
		CrashBonus:          4.0,
		CompileErrorPenalty: 0.25,
		FaultPenalty:        0.5,
		Explore:             0.7,
		Epsilon:             0.1,
	}
}

// value folds a Reward into its scalar credit.
func (c Config) value(r Reward) float64 {
	v := 0.0
	if r.NewCoverage {
		v += c.CoverageReward
	}
	if r.Crash {
		v += c.CrashBonus
	}
	if r.CompileError {
		v -= c.CompileErrorPenalty
	}
	if r.Fault {
		v -= c.FaultPenalty
	}
	return v
}

// Observer receives every Observe call after it lands in the
// posterior — the flight recorder's reward tap. Observers must be
// deterministic side channels: they may not touch the RNG or feed
// anything back into scheduling.
type Observer func(arm int, r Reward)

// Scheduler ranks mutator arms for one fuzzing stream. Implementations
// are deterministic functions of their own state and the RNG handed in;
// they are not safe for concurrent use (one instance per stream, like
// the quarantine).
type Scheduler interface {
	// Kind names the policy ("uniform" or "adaptive").
	Kind() string
	// Arms returns the arm count the scheduler was built for.
	Arms() int
	// Order returns a try-order over the arms for one μCFuzz tick.
	// allowed filters arms (nil allows all); the uniform policy ignores
	// it — matching Algorithm 1, where quarantined mutators are skipped
	// inline — while the adaptive policy excludes disallowed arms. The
	// returned slice is valid until the next Order call.
	Order(rng *rand.Rand, allowed func(int) bool) []int
	// Pick returns a single arm for one macro-fuzzer havoc round, or -1
	// when no arm is allowed.
	Pick(rng *rand.Rand, allowed func(int) bool) int
	// Observe books one mutant outcome against an arm.
	Observe(arm int, r Reward)
	// State serializes the complete posterior for checkpointing.
	State() *State
	// Restore replaces the posterior from a checkpoint; it rejects a
	// state of the wrong kind or arm count.
	Restore(st *State) error
	// Instrument attaches per-arm telemetry: sched_picks_total{mutator}
	// and sched_weight{mutator} (mean reward in milli-units). names must
	// have one entry per arm.
	Instrument(reg *obs.Registry, names []string)
	// SetObserver attaches a reward tap called on every Observe (nil
	// detaches). The observer never influences scheduling.
	SetObserver(fn Observer)
}

// State is the JSON-serializable posterior of a scheduler. float64
// reward sums round-trip exactly through encoding/json (shortest
// round-trip representation), so a restored scheduler is byte-identical
// to the checkpointed one.
type State struct {
	Kind    string    `json:"kind"`
	Arms    int       `json:"arms"`
	Ticks   int64     `json:"ticks,omitempty"`
	Picks   []int64   `json:"picks,omitempty"`
	Rewards []float64 `json:"rewards,omitempty"`
}

// New builds a scheduler of the given kind ("uniform" or "adaptive",
// the latter with DefaultConfig) over n arms.
func New(kind string, n int) (Scheduler, error) {
	switch kind {
	case "", "uniform":
		return NewUniform(n), nil
	case "adaptive":
		return NewAdaptive(n, DefaultConfig()), nil
	}
	return nil, fmt.Errorf("sched: unknown policy %q (want uniform or adaptive)", kind)
}

// ---------------------------------------------------------------------
// Uniform — the paper's Algorithm 1 policy
// ---------------------------------------------------------------------

// Uniform reproduces the pre-scheduler behavior exactly: Order is one
// rng.Perm and Pick is one rng.Intn, consuming the same RNG draws in
// the same sequence as the original shuffle-and-apply loop, so legacy
// seeds reproduce bit-for-bit.
type Uniform struct {
	n      int
	order  []int // Order scratch, reused across calls
	mPicks []*obs.Counter
	obsFn  Observer
}

// NewUniform returns the uniform policy over n arms.
func NewUniform(n int) *Uniform { return &Uniform{n: n} }

// Kind names the policy.
func (u *Uniform) Kind() string { return "uniform" }

// Arms returns the arm count.
func (u *Uniform) Arms() int { return u.n }

// Order returns a uniform permutation (exactly Algorithm 1's shuffle).
// The permutation is built into a reused scratch slice with the same
// inside-out construction — and therefore the exact same Intn draw
// sequence — as rand.Perm, so legacy seeds reproduce bit-for-bit
// without allocating per step. The slice is valid until the next Order
// call. allowed is deliberately ignored — the fuzzer skips benched
// arms inline, preserving the legacy draw sequence.
func (u *Uniform) Order(rng *rand.Rand, allowed func(int) bool) []int {
	m := u.order
	if cap(m) < u.n {
		m = make([]int, u.n)
	}
	m = m[:u.n]
	for i := 0; i < u.n; i++ {
		j := rng.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
	u.order = m
	return m
}

// Pick returns a uniformly random arm (exactly the macro fuzzer's
// legacy rng.Intn draw); allowed is ignored as in Order.
func (u *Uniform) Pick(rng *rand.Rand, allowed func(int) bool) int {
	if u.n == 0 {
		return -1
	}
	return rng.Intn(u.n)
}

// Observe only feeds telemetry: the uniform policy has no posterior.
func (u *Uniform) Observe(arm int, r Reward) {
	if arm < 0 || arm >= u.n {
		return
	}
	if u.mPicks != nil {
		u.mPicks[arm].Inc()
	}
	if u.obsFn != nil {
		u.obsFn(arm, r)
	}
}

// SetObserver attaches the reward tap.
func (u *Uniform) SetObserver(fn Observer) { u.obsFn = fn }

// State serializes the (empty) posterior.
func (u *Uniform) State() *State { return &State{Kind: "uniform", Arms: u.n} }

// Restore validates the checkpointed state against this instance.
func (u *Uniform) Restore(st *State) error {
	if err := validate(st, "uniform", u.n); err != nil {
		return err
	}
	return nil
}

// Instrument attaches per-arm pick counters.
func (u *Uniform) Instrument(reg *obs.Registry, names []string) {
	u.mPicks = resolvePicks(reg, names, u.n)
}

// ---------------------------------------------------------------------
// Adaptive — UCB1 with an epsilon starvation floor
// ---------------------------------------------------------------------

// Adaptive is the bandit policy: each arm's score is its mean observed
// reward plus a UCB exploration bonus; untried arms score +Inf so every
// mutator is sampled before any is ranked, and the epsilon floor keeps
// promoting random arms forever so a converged leader can never starve
// the tail. All tie-breaks are by arm index, so the ranking is a pure
// function of the posterior.
type Adaptive struct {
	cfg     Config
	n       int
	ticks   int64
	picks   []int64
	rewards []float64

	// scratch buffers reused across calls (hot path: one Order per
	// μCFuzz tick, HavocMax Picks per macro step).
	order  []int
	scores []float64

	mPicks  []*obs.Counter
	mWeight []*obs.Gauge
	obsFn   Observer
}

// NewAdaptive returns the bandit policy over n arms.
func NewAdaptive(n int, cfg Config) *Adaptive {
	return &Adaptive{
		cfg:     cfg,
		n:       n,
		picks:   make([]int64, n),
		rewards: make([]float64, n),
		order:   make([]int, 0, n),
		scores:  make([]float64, n),
	}
}

// Kind names the policy.
func (a *Adaptive) Kind() string { return "adaptive" }

// Arms returns the arm count.
func (a *Adaptive) Arms() int { return a.n }

// score is the UCB1 index of one arm.
func (a *Adaptive) score(i int) float64 {
	if a.picks[i] == 0 {
		return math.Inf(1)
	}
	mean := a.rewards[i] / float64(a.picks[i])
	return mean + a.cfg.Explore*math.Sqrt(math.Log(float64(a.ticks+1))/float64(a.picks[i]))
}

// collectAllowed fills the scratch order buffer with the allowed arms
// in index order.
func (a *Adaptive) collectAllowed(allowed func(int) bool) {
	a.order = a.order[:0]
	for i := 0; i < a.n; i++ {
		if allowed != nil && !allowed(i) {
			continue
		}
		a.order = append(a.order, i)
	}
}

// Order ranks the allowed arms by UCB score (descending, ties by
// index), then — with probability Epsilon — promotes one uniformly
// random allowed arm to the front. The returned slice is a reused
// scratch buffer.
func (a *Adaptive) Order(rng *rand.Rand, allowed func(int) bool) []int {
	a.collectAllowed(allowed)
	for _, i := range a.order {
		a.scores[i] = a.score(i)
	}
	sort.SliceStable(a.order, func(x, y int) bool {
		ix, iy := a.order[x], a.order[y]
		if a.scores[ix] != a.scores[iy] {
			return a.scores[ix] > a.scores[iy]
		}
		return ix < iy
	})
	if a.cfg.Epsilon > 0 && len(a.order) > 1 && rng.Float64() < a.cfg.Epsilon {
		j := rng.Intn(len(a.order))
		promoted := a.order[j]
		copy(a.order[1:j+1], a.order[:j])
		a.order[0] = promoted
	}
	return a.order
}

// Pick returns the best-scoring allowed arm (epsilon-greedy: with
// probability Epsilon a uniformly random allowed arm instead), or -1
// when nothing is allowed.
func (a *Adaptive) Pick(rng *rand.Rand, allowed func(int) bool) int {
	a.collectAllowed(allowed)
	if len(a.order) == 0 {
		return -1
	}
	if a.cfg.Epsilon > 0 && rng.Float64() < a.cfg.Epsilon {
		return a.order[rng.Intn(len(a.order))]
	}
	best, bestScore := -1, math.Inf(-1)
	for _, i := range a.order {
		if s := a.score(i); s > bestScore {
			best, bestScore = i, s
		}
	}
	return best
}

// Observe books one outcome into the posterior and telemetry.
func (a *Adaptive) Observe(arm int, r Reward) {
	if arm < 0 || arm >= a.n {
		return
	}
	a.ticks++
	a.picks[arm]++
	a.rewards[arm] += a.cfg.value(r)
	if a.mPicks != nil {
		a.mPicks[arm].Inc()
	}
	if a.mWeight != nil {
		a.mWeight[arm].Set(int64(1000 * a.rewards[arm] / float64(a.picks[arm])))
	}
	if a.obsFn != nil {
		a.obsFn(arm, r)
	}
}

// SetObserver attaches the reward tap.
func (a *Adaptive) SetObserver(fn Observer) { a.obsFn = fn }

// State serializes the full posterior.
func (a *Adaptive) State() *State {
	return &State{
		Kind:    "adaptive",
		Arms:    a.n,
		Ticks:   a.ticks,
		Picks:   append([]int64(nil), a.picks...),
		Rewards: append([]float64(nil), a.rewards...),
	}
}

// Restore replaces the posterior from a checkpoint.
func (a *Adaptive) Restore(st *State) error {
	if err := validate(st, "adaptive", a.n); err != nil {
		return err
	}
	if st.Ticks != 0 || st.Picks != nil || st.Rewards != nil {
		if len(st.Picks) != a.n || len(st.Rewards) != a.n {
			return fmt.Errorf("sched: state has %d/%d arm entries, want %d",
				len(st.Picks), len(st.Rewards), a.n)
		}
		a.ticks = st.Ticks
		copy(a.picks, st.Picks)
		copy(a.rewards, st.Rewards)
	} else {
		a.ticks = 0
		for i := range a.picks {
			a.picks[i], a.rewards[i] = 0, 0
		}
	}
	return nil
}

// Instrument attaches per-arm pick counters and mean-reward gauges
// (milli-units: the int64 gauge holds round(1000*mean)).
func (a *Adaptive) Instrument(reg *obs.Registry, names []string) {
	a.mPicks = resolvePicks(reg, names, a.n)
	if reg == nil || len(names) != a.n {
		return
	}
	weight := reg.Gauge("sched_weight", "mutator")
	a.mWeight = make([]*obs.Gauge, a.n)
	for i, name := range names {
		a.mWeight[i] = weight.With(name)
	}
}

// resolvePicks pre-resolves the per-arm sched_picks_total handles.
func resolvePicks(reg *obs.Registry, names []string, n int) []*obs.Counter {
	if reg == nil || len(names) != n {
		return nil
	}
	picks := reg.Counter("sched_picks_total", "mutator")
	out := make([]*obs.Counter, n)
	for i, name := range names {
		out[i] = picks.With(name)
	}
	return out
}

// validate checks a checkpointed state against an instance's identity.
func validate(st *State, kind string, n int) error {
	if st == nil {
		return fmt.Errorf("sched: nil state")
	}
	if st.Kind != kind {
		return fmt.Errorf("sched: checkpointed policy %q contradicts configured %q", st.Kind, kind)
	}
	if st.Arms != n {
		return fmt.Errorf("sched: checkpointed arm count %d contradicts mutator set size %d", st.Arms, n)
	}
	return nil
}

// RegisterMetrics pre-registers the scheduler metric families so
// snapshots and the METRICS.md reference include them even before the
// first observation.
func RegisterMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.Counter("sched_picks_total", "mutator")
	reg.Gauge("sched_weight", "mutator")
}
