// Package fuzz implements the paper's coverage-guided fuzzers: μCFuzz
// (Algorithm 1), the long-running macro fuzzer with its engineering
// enhancements (Havoc, compiler-flag sampling, shared coverage, resource
// limits), and the crash bookkeeping (dedup by top-two stack frames)
// shared by every evaluated technique.
package fuzz

import (
	"math/rand"
	"sort"
	"strings"

	"github.com/icsnju/metamut-go/internal/cast"
	"github.com/icsnju/metamut-go/internal/compilersim"
	"github.com/icsnju/metamut-go/internal/compilersim/cover"
	"github.com/icsnju/metamut-go/internal/muast"
	"github.com/icsnju/metamut-go/internal/mutcheck"
	"github.com/icsnju/metamut-go/internal/obs"
	"github.com/icsnju/metamut-go/internal/resil"
	"github.com/icsnju/metamut-go/internal/sched"
)

// CrashInfo records the first discovery of a unique crash.
type CrashInfo struct {
	Report    compilersim.CrashReport
	FirstTick int
	// Input is the crashing program (kept for triage).
	Input string
	// Via names the mutator or generator that produced the input.
	Via string
}

// Stats is the common accounting every fuzzer maintains. One "tick" is
// one compiler invocation — the evaluation's virtual clock.
type Stats struct {
	Name string
	// Total and Compilable mutant counts (Table 5).
	Total      int
	Compilable int
	// StaticRejects counts mutants the static filter (the compile
	// context's front end) discarded before they consumed a compiler
	// tick (subset of Total - Compilable).
	StaticRejects int
	// Ticks consumed so far.
	Ticks int
	// Panics counts mutator applications the supervisor recovered from
	// a panic; FuelExhausted counts applications the μAST fuel watchdog
	// cut off. Both feed the quarantine and neither consumes a tick.
	Panics        int
	FuelExhausted int
	// Crashes maps signature -> first-discovery info (Figures 8, 9;
	// Table 4).
	Crashes map[string]*CrashInfo
	// Coverage is the cumulative edge map (Figure 7).
	Coverage *cover.Map

	// Observability handles, resolved once by Instrument (all nil when
	// telemetry is off, so Record stays allocation-free).
	obsTicks         *obs.Counter
	obsMutants       *obs.CounterVec
	obsCrashes       *obs.Counter
	obsEdges         *obs.Gauge
	obsStaticRejects *obs.CounterVec
	obsPanics        *obs.CounterVec
	obsFuel          *obs.CounterVec
}

// NewStats returns empty accounting for a named fuzzer.
func NewStats(name string) *Stats {
	return &Stats{Name: name, Crashes: map[string]*CrashInfo{},
		Coverage: cover.NewMap()}
}

// Instrument attaches live telemetry: every Record updates
// compile_ticks, mutants_total{mutator,outcome},
// crashes_unique_total{fuzzer}, and coverage_edges{fuzzer}. A nil
// registry leaves the stats uninstrumented.
func (s *Stats) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	s.obsTicks = reg.Counter("compile_ticks").With()
	s.obsMutants = reg.Counter("mutants_total", "mutator", "outcome")
	s.obsCrashes = reg.Counter("crashes_unique_total", "fuzzer").With(s.Name)
	s.obsEdges = reg.Gauge("coverage_edges", "fuzzer").With(s.Name)
	s.obsStaticRejects = reg.Counter("static_rejects_total", "check")
	s.obsPanics = reg.Counter("mutator_panics_total", "mutator")
	s.obsFuel = reg.Counter("mutator_fuel_exhausted_total", "mutator")
}

// resultOutcome labels one compilation for mutants_total.
func resultOutcome(res compilersim.Result) string {
	switch {
	case res.OK:
		return "ok"
	case res.Hang:
		return "hang"
	case res.Crash != nil:
		return "crash"
	default:
		return "reject"
	}
}

// primaryMutator reduces a Havoc chain ("CopyExpr+DuplicateBranch") to
// its first mutator, bounding mutants_total's label cardinality.
func primaryMutator(via string) string {
	if i := strings.IndexByte(via, '+'); i >= 0 {
		return via[:i]
	}
	return via
}

// Record books one compilation outcome. Returns true when the input
// covered new edges.
func (s *Stats) Record(src, via string, res compilersim.Result) bool {
	s.Total++
	s.Ticks++
	if res.OK {
		s.Compilable++
	}
	s.obsTicks.Inc()
	if s.obsMutants != nil {
		s.obsMutants.With(primaryMutator(via), resultOutcome(res)).Inc()
	}
	if res.Crash != nil {
		sig := res.Crash.Signature()
		if _, dup := s.Crashes[sig]; !dup {
			s.Crashes[sig] = &CrashInfo{
				Report:    *res.Crash,
				FirstTick: s.Ticks,
				Input:     src,
				Via:       via,
			}
			s.obsCrashes.Inc()
		}
	}
	isNew := s.Coverage.HasNew(res.Coverage)
	s.Coverage.Merge(res.Coverage)
	if isNew {
		s.obsEdges.Set(int64(s.Coverage.Count()))
	}
	return isNew
}

// RecordStaticReject books one mutant the static filter discarded
// before compilation. The mutant counts toward Total (it was produced)
// but consumes no compiler tick — that is the saving being measured.
func (s *Stats) RecordStaticReject(via, check string) {
	s.Total++
	s.StaticRejects++
	if s.obsMutants != nil {
		s.obsMutants.With(primaryMutator(via), "static-reject").Inc()
	}
	if s.obsStaticRejects != nil {
		s.obsStaticRejects.With(check).Inc()
	}
}

// RecordMutatorFault books one supervised mutator application that
// ended in a recovered panic (or, with fuel true, a fuel-watchdog cut).
// The offense consumes no tick — the mutant was never produced.
func (s *Stats) RecordMutatorFault(via string, fuel bool) {
	if fuel {
		s.FuelExhausted++
		if s.obsFuel != nil {
			s.obsFuel.With(primaryMutator(via)).Inc()
		}
		return
	}
	s.Panics++
	if s.obsPanics != nil {
		s.obsPanics.With(primaryMutator(via)).Inc()
	}
}

// MergeFrom folds another fuzzer's accounting into s: totals add up,
// crashes union with the earliest discovery winning, coverage maps
// merge. This is the one tested aggregation path the macro fuzzer's
// per-worker stats flow through.
func (s *Stats) MergeFrom(o *Stats) {
	if o == nil {
		return
	}
	s.Total += o.Total
	s.Compilable += o.Compilable
	s.StaticRejects += o.StaticRejects
	s.Ticks += o.Ticks
	s.Panics += o.Panics
	s.FuelExhausted += o.FuelExhausted
	for sig, c := range o.Crashes {
		if prev, ok := s.Crashes[sig]; !ok || c.FirstTick < prev.FirstTick {
			s.Crashes[sig] = c
		}
	}
	if o.Coverage != nil {
		s.Coverage.Merge(o.Coverage)
	}
}

// CompilableRatio returns the Table 5 ratio in percent.
func (s *Stats) CompilableRatio() float64 {
	if s.Total == 0 {
		return 0
	}
	return 100 * float64(s.Compilable) / float64(s.Total)
}

// UniqueCrashes returns the crash count.
func (s *Stats) UniqueCrashes() int { return len(s.Crashes) }

// CrashesByComponent buckets unique crashes per compiler component
// (Table 4).
func (s *Stats) CrashesByComponent() map[compilersim.Component]int {
	out := map[compilersim.Component]int{}
	for _, c := range s.Crashes {
		out[c.Report.Component]++
	}
	return out
}

// CrashTimeline returns (tick, cumulative unique crashes) points sorted
// by tick (Figure 9).
func (s *Stats) CrashTimeline() [][2]int {
	ticks := make([]int, 0, len(s.Crashes))
	for _, c := range s.Crashes {
		ticks = append(ticks, c.FirstTick)
	}
	sort.Ints(ticks)
	out := make([][2]int, len(ticks))
	for i, t := range ticks {
		out[i] = [2]int{t, i + 1}
	}
	return out
}

// Fuzzer is one technique under evaluation: each Step produces and
// compiles exactly one test program.
type Fuzzer interface {
	Name() string
	Step()
	Stats() *Stats
}

// DefaultUncheckedRate calibrates mutator fallibility. The paper's 118
// LLM-synthesized mutators are validated against unit tests but are not
// sound: 26-28% of μCFuzz's mutants fail to compile (Table 5). Our Go
// reimplementations are more defensive (<1% invalid output), so the
// fuzzers emulate the original imperfection by following a fraction of
// mutations with an *unchecked* rewrite — a copy of one expression over
// another with every semantic check skipped, exactly the class of error
// the paper's refinement loop kept fixing (Table 1 row #6).
const DefaultUncheckedRate = 0.68

// DefaultQuarantine tunes the fuzzers' mutator quarantine: three
// offenses bench a mutator for 512 steps, after which it is paroled
// with a clean record.
func DefaultQuarantine() resil.QuarantineConfig {
	return resil.QuarantineConfig{StrikeLimit: 3, Parole: 512}
}

// safeApply is supervised mutator application: a panic inside the
// mutator — including the μAST fuel watchdog cutting off a runaway
// traversal — is recovered and reported instead of killing the fuzzing
// stream. fuel distinguishes watchdog cuts from genuine panics.
func safeApply(mu *muast.Mutator, src string, mgr *muast.Manager) (mutant string, ok bool, faulted, fuel bool) {
	defer func() {
		if r := recover(); r != nil {
			mutant, ok, faulted = "", false, true
			_, fuel = r.(muast.FuelExhausted)
		}
	}()
	mutant, ok = mu.Apply(src, mgr)
	return
}

// manager returns the stream's mutation manager over src: the one it
// holds, Reset to fresh state, when that already wraps src, else a new
// one over src parsed and checked into the reset parse arena (a failed
// parse leaves none). It and its nodes are valid until a manager call
// parses, so only the strings it produces may outlive that.
func (s *stream) manager(src string) (*muast.Manager, error) {
	if s.mgr != nil && s.mgr.TU.Source == src {
		s.mgr.Reset()
		return s.mgr, nil
	}
	s.mgr = nil
	s.parseArena.Reset()
	tu, err := cast.ParseAndCheckArena(src, s.parseArena)
	if err != nil {
		return nil, err
	}
	s.mgr = muast.NewManagerFromTU(tu, s.rng)
	return s.mgr, nil
}

// check is the static filter: Check mutant on the compile context and,
// if it checks and doSplice is set, splice it and Check the result. It
// returns the text the context now holds and that text's verdict.
func (s *stream) check(mutant string, doSplice bool) (string, error) {
	err := s.cx.Check(mutant)
	if err != nil || !doSplice {
		return mutant, err
	}
	spliced, ok := s.splice(mutant, s.cx.TU())
	if !ok {
		return mutant, nil
	}
	return spliced, s.cx.Check(spliced)
}

// splice performs a completely unvalidated expression-over-expression
// splice on src: it copies the text of one random expression over
// another, a plain text edit on tu, src's checked tree. ok is false
// when src has fewer than two expressions or the draw picks nested or
// identically spelled expressions.
func (s *stream) splice(src string, tu *cast.TranslationUnit) (string, bool) {
	exprs := s.spliceExprs[:0]
	cast.Walk(tu, func(n cast.Node) bool {
		if e, ok := n.(cast.Expr); ok {
			exprs = append(exprs, e)
		}
		return true
	})
	s.spliceExprs = exprs
	if len(exprs) < 2 {
		return "", false
	}
	dst := exprs[s.rng.Intn(len(exprs))].Range()
	from := exprs[s.rng.Intn(len(exprs))].Range()
	// The splice runs outside safeApply's recover: a range the parser
	// got wrong must fail the splice, not panic the stream.
	if !inBounds(dst, len(src)) || !inBounds(from, len(src)) ||
		dst.Contains(from) || from.Contains(dst) {
		return "", false
	}
	text := src[from.Begin:from.End]
	if text == src[dst.Begin:dst.End] {
		return "", false // identical spelling: would be a no-op splice
	}
	return src[:dst.Begin] + text + src[dst.End:], true
}

// inBounds reports whether r is a valid range of an n-byte source.
func inBounds(r cast.SourceRange, n int) bool {
	return 0 <= r.Begin && r.Begin <= r.End && r.End <= n
}

// ---------------------------------------------------------------------
// Per-stream state
// ---------------------------------------------------------------------

// stream is what each fuzzer owns per fuzzing stream: the mutator
// arsenal and program pool, the stream RNG, the accounting, the compile
// context, the mutation manager, the quarantine and the scheduler. Both
// fuzzers embed it, so its exported fields and methods are theirs.
type stream struct {
	mutators []*muast.Mutator
	pool     []string
	rng      *rand.Rand
	stats    *Stats
	// cx compiles every mutant, and its front end (Check) is the
	// static filter: each mutant is lexed, parsed and checked once.
	cx *compilersim.Context
	// mgr is the mutation manager over the program the mutators run on
	// (see manager), its tree in parseArena. spliceExprs is the
	// splice's expression scratch, pointing into cx's arena.
	mgr         *muast.Manager
	parseArena  *cast.Arena
	spliceExprs []cast.Expr
	// Quarantine benches mutators that keep panicking or exhausting
	// their fuel budget (strike/parole discipline). Per-instance and
	// tick-driven, so it never perturbs the deterministic schedule.
	Quarantine *resil.Quarantine
	// Sched ranks the mutators: μCFuzz's try order each step, the macro
	// fuzzer's pick each havoc round. The default Uniform policy
	// reproduces the legacy stream-RNG draws bit-for-bit; swap in
	// sched.NewAdaptive for bandit-weighted selection. Arms index into
	// the mutator slice in constructor order.
	Sched sched.Scheduler

	allowedFn func(int) bool
	// flight, when attached, journals crashes, pool admissions,
	// rewards, and quarantine churn (see AttachFlight).
	flight FlightEmitter
}

// init fills a stream in place (allowedFn binds to its final address).
func (s *stream) init(name string, comp *compilersim.Compiler,
	mutators []*muast.Mutator, seedPool []string, rng *rand.Rand) {
	s.mutators = mutators
	s.SetCorpus(seedPool)
	s.rng = rng
	s.stats = NewStats(name)
	s.cx = comp.NewContext()
	s.parseArena = cast.NewArena()
	s.Quarantine = resil.NewQuarantine(DefaultQuarantine(), nil)
	s.Sched = sched.NewUniform(len(mutators))
	s.allowedFn = s.armAllowed
}

// armAllowed reports whether the arm's mutator is off the quarantine
// bench — the filter handed to the scheduler.
func (s *stream) armAllowed(i int) bool {
	return s.Quarantine.Allowed(s.mutators[i].Name)
}

// Name returns the fuzzer's display name.
func (s *stream) Name() string { return s.stats.Name }

// Stats exposes the accounting.
func (s *stream) Stats() *Stats { return s.stats }

// PoolSize returns the current program-pool size.
func (s *stream) PoolSize() int { return len(s.pool) }

// Corpus returns a copy of the current program pool (checkpointing).
func (s *stream) Corpus() []string {
	out := make([]string, len(s.pool))
	copy(out, s.pool)
	return out
}

// SetCorpus replaces the program pool (checkpoint restore).
func (s *stream) SetCorpus(pool []string) {
	s.pool = make([]string, len(pool))
	copy(s.pool, pool)
}

// SchedState serializes the scheduler posterior (checkpointing).
func (s *stream) SchedState() *sched.State { return s.Sched.State() }

// SetSchedState restores the scheduler posterior (checkpoint resume).
func (s *stream) SetSchedState(st *sched.State) error { return s.Sched.Restore(st) }

// InstrumentSched attaches per-mutator scheduler telemetry
// (sched_picks_total, sched_weight).
func (s *stream) InstrumentSched(reg *obs.Registry) {
	names := make([]string, len(s.mutators))
	for i, mu := range s.mutators {
		names[i] = mu.Name
	}
	s.Sched.Instrument(reg, names)
}

// ---------------------------------------------------------------------
// μCFuzz — Algorithm 1
// ---------------------------------------------------------------------

// MuCFuzz is the paper's micro coverage-guided fuzzer. Each iteration
// picks a random pool program, shuffles the mutators, and applies them in
// order until one produces a mutant covering a new branch, which is then
// added back to the pool (Algorithm 1).
type MuCFuzz struct {
	stream
	opts compilersim.Options
	// MaxMutatorTries bounds the inner loop; Algorithm 1 tries every
	// mutator, which we cap for throughput on large mutator sets.
	MaxMutatorTries int
	// MaxProgramSize drops runaway mutants (resource limiting).
	MaxProgramSize int
	// UncheckedRate emulates mutator fallibility (see
	// DefaultUncheckedRate).
	UncheckedRate float64
	// Blind disables coverage guidance (Algorithm 1 line 8): mutants are
	// admitted to the pool at a small fixed rate instead. Ablation only.
	Blind bool
	// StaticFilter discards mutants the front end rejects before they
	// consume a compiler tick. Off by default; the mucfuzz CLI enables
	// it (and exposes -no-static to turn it off).
	StaticFilter bool
}

// NewMuCFuzz builds a μCFuzz instance over the given mutator set.
func NewMuCFuzz(name string, comp *compilersim.Compiler, mutators []*muast.Mutator,
	seedPool []string, rng *rand.Rand) *MuCFuzz {
	f := &MuCFuzz{
		opts:            compilersim.DefaultOptions(),
		MaxMutatorTries: 8,
		MaxProgramSize:  1 << 16,
		UncheckedRate:   DefaultUncheckedRate,
	}
	f.init(name, comp, mutators, seedPool, rng)
	return f
}

// Step runs one iteration of Algorithm 1: it stops after the first
// mutant that covers a new branch (adding it to the pool), or after
// MaxMutatorTries mutants.
func (f *MuCFuzz) Step() {
	f.Quarantine.Tick()
	if len(f.pool) == 0 {
		return
	}
	p := f.pool[f.rng.Intn(len(f.pool))]
	// The try-order comes from the scheduler, driven only by the stream
	// RNG: Uniform is Algorithm 1's shuffle (one Perm, identical draws),
	// Adaptive ranks arms by posterior reward. Either way the schedule
	// is a pure function of stream state — reproducible under the
	// engine at any worker count.
	order := f.Sched.Order(f.rng, f.allowedFn)
	tries := 0
	for _, mi := range order {
		if tries >= f.MaxMutatorTries {
			return
		}
		mu := f.mutators[mi]
		if !f.Quarantine.Allowed(mu.Name) {
			continue // benched offender; costs nothing, like inapplicable
		}
		mgr, err := f.manager(p)
		if err != nil {
			return // pool entry no longer parses (should not happen)
		}
		mutant, ok, faulted, fuel := safeApply(mu, p, mgr)
		if faulted {
			f.stats.RecordMutatorFault(mu.Name, fuel)
			f.Quarantine.Strike(mu.Name)
			f.Sched.Observe(mi, sched.Reward{Fault: true})
			continue
		}
		if !ok {
			// Not applicable to this program: zero reward, but the try
			// still counts — otherwise a never-applying arm keeps its
			// untried (+Inf) UCB score and the bandit re-picks it forever.
			f.Sched.Observe(mi, sched.Reward{})
			continue // try the next (free)
		}
		// One front-end pass per mutant text: the splice reads Check's
		// tree, and an accepted mutant's compile continues from it.
		mutant, err = f.check(mutant, f.rng.Float64() < f.UncheckedRate)
		if len(mutant) > f.MaxProgramSize {
			continue
		}
		tries++
		if err != nil && f.StaticFilter {
			f.stats.RecordStaticReject(mu.Name, mutcheck.Classify(err))
			f.Sched.Observe(mi, sched.Reward{CompileError: true})
			continue
		}
		nCrash := len(f.stats.Crashes)
		// The result is borrowed (coverage aliases context storage until
		// the next Check), and Stats.Record merges the coverage
		// immediately, which is the copy.
		res := f.cx.CompileChecked(f.opts)
		isNew := f.stats.Record(mutant, mu.Name, res)
		if f.flight != nil && len(f.stats.Crashes) > nCrash {
			emitCrash(f.flight, f.stats, res.Crash, mu.Name)
		}
		f.Sched.Observe(mi, sched.Reward{
			NewCoverage:  isNew,
			Crash:        res.Crash != nil,
			CompileError: !res.OK && res.Crash == nil,
		})
		if f.Blind {
			// Ablation: no coverage feedback; admit a fixed fraction.
			if res.OK && f.rng.Float64() < 0.05 {
				f.pool = append(f.pool, mutant)
				return
			}
			continue
		}
		if isNew && res.OK {
			f.pool = append(f.pool, mutant)
			if f.flight != nil {
				emitAdmission(f.flight, f.stats, mu.Name, len(f.pool))
			}
			return
		}
	}
}

// ---------------------------------------------------------------------
// Macro fuzzer
// ---------------------------------------------------------------------

// CoverageSink is where a macro worker publishes each compilation's
// coverage and learns whether it found anything new — the pool-admission
// signal. The campaign engine swaps in per-epoch views that satisfy
// this interface.
type CoverageSink interface {
	// MergeIfNew merges m and reports whether it contained unseen edges.
	MergeIfNew(m *cover.Map) bool
}

// MacroConfig tunes the macro fuzzer's enhancements.
type MacroConfig struct {
	// HavocMax is the maximum number of mutation rounds applied per
	// mutant (enhancement #2).
	HavocMax int
	// SampleFlags enables random compiler-command-line sampling
	// (enhancement #1).
	SampleFlags bool
	// MaxProgramSize is the resource limit (enhancement #4).
	MaxProgramSize int
	// UncheckedRate emulates mutator fallibility (see
	// DefaultUncheckedRate).
	UncheckedRate float64
	// StaticFilter discards statically-invalid mutants before they
	// consume a compiler tick (see MuCFuzz.StaticFilter).
	StaticFilter bool
}

// DefaultMacroConfig mirrors the long-running campaign settings.
func DefaultMacroConfig() MacroConfig {
	return MacroConfig{HavocMax: 4, SampleFlags: true, MaxProgramSize: 1 << 16,
		UncheckedRate: DefaultUncheckedRate}
}

// MacroFuzzer is the long-term bug-hunting fuzzer of Section 3.4.
type MacroFuzzer struct {
	stream
	shared CoverageSink
	cfg    MacroConfig
	armBuf []int // applied-arm scratch, reused across steps
}

// NewMacroFuzzer builds a macro fuzzer worker; workers on the same
// compiler share coverage via shared (nil disables pool admission).
func NewMacroFuzzer(name string, comp *compilersim.Compiler,
	mutators []*muast.Mutator, seedPool []string, rng *rand.Rand,
	shared CoverageSink, cfg MacroConfig) *MacroFuzzer {
	f := &MacroFuzzer{shared: shared, cfg: cfg}
	f.init(name, comp, mutators, seedPool, rng)
	return f
}

// sampleOptions draws a random compiler command line (enhancement #1).
func (f *MacroFuzzer) sampleOptions() compilersim.Options {
	if !f.cfg.SampleFlags {
		return compilersim.DefaultOptions()
	}
	opts := compilersim.Options{OptLevel: f.rng.Intn(4)}
	flagPool := []string{"loopvec", "strbuiltin", "cse", "simplify", "dce"}
	for _, fl := range flagPool {
		if f.rng.Float64() < 0.15 {
			opts.DisabledPasses = append(opts.DisabledPasses, fl)
		}
	}
	return opts
}

// Step runs one macro-fuzzer iteration: Havoc-style stacked mutations,
// flag sampling, shared-coverage pool admission, and size limits.
func (f *MacroFuzzer) Step() {
	f.Quarantine.Tick()
	if len(f.pool) == 0 {
		return
	}
	p := f.pool[f.rng.Intn(len(f.pool))]
	rounds := 1 + f.rng.Intn(f.cfg.HavocMax)
	cur := p
	via := ""
	applied := f.armBuf[:0]
	for i := 0; i < rounds; i++ {
		// The scheduler picks each round's mutator from the stream RNG:
		// Uniform is the legacy rng.Intn draw, Adaptive is
		// epsilon-greedy over posterior reward.
		mi := f.Sched.Pick(f.rng, f.allowedFn)
		if mi < 0 {
			continue // every arm benched; the round is spent
		}
		mu := f.mutators[mi]
		if !f.Quarantine.Allowed(mu.Name) {
			continue // benched offender; the round is spent, like a no-op
		}
		mgr, err := f.manager(cur)
		if err != nil {
			break // intermediate mutant went invalid; stop stacking
		}
		mutant, ok, faulted, fuel := safeApply(mu, cur, mgr)
		if faulted {
			f.stats.RecordMutatorFault(mu.Name, fuel)
			f.Quarantine.Strike(mu.Name)
			f.Sched.Observe(mi, sched.Reward{Fault: true})
			continue
		}
		if !ok {
			// Zero reward so the arm's untried (+Inf) UCB score decays;
			// see the μCFuzz counterpart.
			f.Sched.Observe(mi, sched.Reward{})
			continue
		}
		if len(mutant) > f.cfg.MaxProgramSize {
			break // resource limit: drop oversized offspring
		}
		cur = mutant
		applied = append(applied, mi)
		if via != "" {
			via += "+"
		}
		via += mu.Name
	}
	f.armBuf = applied
	if cur == p {
		return
	}
	cur, err := f.check(cur, f.rng.Float64() < f.cfg.UncheckedRate)
	if err != nil && f.cfg.StaticFilter {
		f.stats.RecordStaticReject(via, mutcheck.Classify(err))
		for _, mi := range applied {
			f.Sched.Observe(mi, sched.Reward{CompileError: true})
		}
		return
	}
	nCrash := len(f.stats.Crashes)
	// The borrowed coverage is merged by Record and by the shared sink
	// below before the next Check. The flags are drawn after the filter,
	// so a rejected mutant costs no RNG draws.
	res := f.cx.CompileChecked(f.sampleOptions())
	f.stats.Record(cur, via, res)
	if f.flight != nil && len(f.stats.Crashes) > nCrash {
		emitCrash(f.flight, f.stats, res.Crash, via)
	}
	admitted := res.OK && f.shared != nil && f.shared.MergeIfNew(res.Coverage)
	if admitted {
		f.pool = append(f.pool, cur)
		if f.flight != nil {
			emitAdmission(f.flight, f.stats, via, len(f.pool))
		}
	}
	// The single end-of-step compile outcome is attributed to every
	// mutator in the havoc chain.
	rw := sched.Reward{
		NewCoverage:  admitted,
		Crash:        res.Crash != nil,
		CompileError: !res.OK && res.Crash == nil,
	}
	for _, mi := range applied {
		f.Sched.Observe(mi, rw)
	}
}

// MergedCrashes unions workers' unique crashes (earliest discovery wins).
func MergedCrashes(workers []*MacroFuzzer) map[string]*CrashInfo {
	agg := NewStats("merged")
	for _, w := range workers {
		agg.MergeFrom(w.stats)
	}
	return agg.Crashes
}
