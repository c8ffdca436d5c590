package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"github.com/icsnju/metamut-go/internal/compilersim"
	"github.com/icsnju/metamut-go/internal/engine"
	"github.com/icsnju/metamut-go/internal/fuzz"
	"github.com/icsnju/metamut-go/internal/muast"
	_ "github.com/icsnju/metamut-go/internal/mutators" // populate the mutator registry
	"github.com/icsnju/metamut-go/internal/sched"
	"github.com/icsnju/metamut-go/internal/seeds"
)

// campaignSpec is one campaign workload: a fuzzer configuration run on
// engine.New at a fixed step budget. A run is a closed loop of such
// campaigns, each over seeds derived from the run seed.
type campaignSpec struct {
	compiler string
	version  int
	macro    bool // fuzz.NewMacroFuzzer streams instead of fuzz.NewMuCFuzz
	set      string
	streams  int
	steps    int
	// counted is how many campaigns, the first of every run, the exact
	// counts (edges, crashes) sum over. One campaign finds a handful of
	// unique crashes; the sum over many makes the count a steady
	// measure of yield instead of the luck of one seed.
	counted int
}

// mucfuzzGCC is the paper's core fuzzer (Algorithm 1): μCFuzz on gcc at
// -O2 with all 118 mutators, the uniform shuffle and the static filter.
// It was chosen because its CPU goes mostly to compile, the static
// filter's re-parse and the splice re-parse, while the engine's coverage
// sink is never used.
var mucfuzzGCC = campaignSpec{
	compiler: "gcc", version: 14, set: "all",
	streams: 4, steps: 800, counted: 96,
}

// macroClang is the macro fuzzer configured like `mucfuzz -macro` on
// clang. It was chosen because every havoc round rebuilds a μAST manager,
// so manager-build parsing, mutator apply and Parents dominate, and it
// alone runs the clang pass pipeline, flag sampling, O0/O1/O3 and the
// engine's shared coverage views.
var macroClang = campaignSpec{
	compiler: "clang", version: 18, macro: true, set: "s",
	streams: 16, steps: 1600, counted: 36,
}

// campaignSeed derives the seed of a run's i-th campaign (distinct,
// deterministic, never 0 for a positive run seed).
func campaignSeed(seed int64, i int) int64 {
	return seed*1000003 + int64(i)*7919 + 1
}

// mutatorSet resolves a set name the way the mucfuzz CLI does.
func mutatorSet(set string) []*muast.Mutator {
	switch set {
	case "s":
		return muast.BySet(muast.Supervised)
	case "u":
		return muast.BySet(muast.Unsupervised)
	}
	return muast.All()
}

// hooks are the wrappers a traced run installs at the layer boundaries
// the fuzzers already call through; nil fields leave a boundary as is.
type hooks struct {
	mutators func(stream int, ms []*muast.Mutator) []*muast.Mutator
	sched    func(stream int, s sched.Scheduler) sched.Scheduler
	sink     func(stream int, s fuzz.CoverageSink) fuzz.CoverageSink
	worker   func(stream int, w engine.Worker) engine.Worker
	onEpoch  func(done, total int)
}

// seedPrograms is the seed corpus size, the daemon's default too.
const seedPrograms = 120

// newCampaign builds one campaign of spec over seeds.Generate(120,
// seed): everything a user pays before the first step.
func newCampaign(spec campaignSpec, seed int64, workers int, h *hooks) *engine.Campaign {
	if h == nil {
		h = &hooks{}
	}
	comp := compilersim.New(spec.compiler, spec.version)
	all := mutatorSet(spec.set)
	pool := seeds.Generate(seedPrograms, seed)
	factory := func(stream int, rng *rand.Rand, cov fuzz.CoverageSink) engine.Worker {
		ms := all
		if h.mutators != nil {
			ms = h.mutators(stream, all)
		}
		if h.sink != nil {
			cov = h.sink(stream, cov)
		}
		var w engine.Worker
		if spec.macro {
			cfg := fuzz.DefaultMacroConfig()
			cfg.StaticFilter = true
			f := fuzz.NewMacroFuzzer(fmt.Sprintf("macro-%d", stream), comp, ms, pool, rng, cov, cfg)
			f.Sched = sched.NewAdaptive(len(ms), sched.DefaultConfig())
			if h.sched != nil {
				f.Sched = h.sched(stream, f.Sched)
			}
			w = f
		} else {
			f := fuzz.NewMuCFuzz(fmt.Sprintf("mucfuzz-%d", stream), comp, ms, pool, rng)
			f.StaticFilter = true
			if h.sched != nil {
				f.Sched = h.sched(stream, f.Sched)
			}
			w = f
		}
		if h.worker != nil {
			w = h.worker(stream, w)
		}
		return w
	}
	return engine.New(engine.Config{
		Streams:    spec.streams,
		Workers:    workers,
		TotalSteps: spec.steps,
		Seed:       seed,
		OnEpoch:    h.onEpoch,
	}, factory)
}

// outcome is what campaigns computed; every field is exact and must
// repeat on every run of the same seed at any worker count.
type outcome struct {
	Ticks         int `json:"ticks"`
	Edges         int `json:"edges"`
	Crashes       int `json:"crashes"`
	StaticRejects int `json:"static_rejects"`
}

func (o *outcome) add(p outcome) {
	o.Ticks += p.Ticks
	o.Edges += p.Edges
	o.Crashes += p.Crashes
	o.StaticRejects += p.StaticRejects
}

// sample is one timed campaign.
type sample struct {
	setup, wall, cpu time.Duration
	allocs           uint64 // bytes allocated while the campaign ran
	out              outcome
	compilable       int
	// failed counts lost operations: the budget of poisoned streams
	// plus stream tasks the engine had to re-dispatch.
	failed int
}

// runOne builds one campaign and runs it to its budget.
func runOne(spec campaignSpec, seed int64, workers int, h *hooks) (sample, error) {
	var s sample
	var ms runtime.MemStats
	t0 := time.Now()
	c := newCampaign(spec, seed, workers, h)
	s.setup = time.Since(t0)

	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	cpu0 := cpuTime()
	t1 := time.Now()
	_, err := c.RunSlice(context.Background(), 0)
	s.wall = time.Since(t1)
	s.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&ms)
	s.allocs = ms.TotalAlloc - alloc0
	if err != nil {
		return s, fmt.Errorf("campaign seed %d: %w", seed, err)
	}
	s.failed = len(c.Poisoned())*spec.steps/spec.streams + c.LastSlice().Retries
	agg := c.MergedStats()
	s.out = outcome{
		Ticks:         agg.Ticks,
		Edges:         agg.Coverage.Count(),
		Crashes:       len(agg.Crashes),
		StaticRejects: agg.StaticRejects,
	}
	s.compilable = agg.Compilable
	return s, nil
}

// checkWorkers is the standing invariant the engine promises: a short
// campaign at workers=1 computes exactly what it computes on the whole
// fleet. It also warms the process before anything is timed.
func checkWorkers(spec campaignSpec, seed int64, fleet int) error {
	short := spec
	short.steps = spec.steps / 4
	one, err := runOne(short, seed, 1, nil)
	if err != nil {
		return err
	}
	all, err := runOne(short, seed, fleet, nil)
	if err != nil {
		return err
	}
	if one.out != all.out {
		return fmt.Errorf("workers=1 computed %+v, workers=%d computed %+v", one.out, fleet, all.out)
	}
	return nil
}

// campaignRun is the timed part of a campaign workload run.
type campaignRun struct {
	samples []sample
	counted outcome // summed over the first spec.counted campaigns
}

// runCampaigns runs campaigns 0, 1, 2, ... of the run seed until the
// time is up and at least spec.counted have finished; it then reruns
// campaign 0 and checks it computes what it computed the first time.
func runCampaigns(spec campaignSpec, o options, h *hooks) (campaignRun, bool, error) {
	var run campaignRun
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for i := 0; i < spec.counted || time.Now().Before(deadline); i++ {
		s, err := runOne(spec, campaignSeed(o.seed, i), o.workers, h)
		if err != nil {
			return run, false, err
		}
		if i < spec.counted {
			run.counted.add(s.out)
		}
		run.samples = append(run.samples, s)
	}
	again, err := runOne(spec, campaignSeed(o.seed, 0), o.workers, h)
	if err != nil {
		return run, false, err
	}
	if again.out != run.samples[0].out {
		fmt.Fprintf(os.Stderr, "perfbench: campaign 0 computed %+v, then %+v\n", run.samples[0].out, again.out)
		return run, false, nil
	}
	return run, true, nil
}

// runCampaignWorkload measures a campaign workload end to end, or hands
// a traced run to the per-layer ledger.
func runCampaignWorkload(spec campaignSpec, o options) (result, error) {
	if o.trace {
		return traceCampaignWorkload(spec, o)
	}
	res := result{Correct: true}
	if err := checkWorkers(spec, o.seed, o.workers); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: determinism:", err)
		res.Correct = false
	}
	run, ok, err := runCampaigns(spec, o, nil)
	if err != nil {
		return res, err
	}
	res.Correct = res.Correct && ok
	if err := checkExpected(o.workload, o.seed, run.counted); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		res.Correct = false
	}
	for _, s := range run.samples {
		res.Attempted += spec.steps
		res.Failed += s.failed
	}
	res.Metrics = campaignMetrics(spec, run)
	return res, nil
}

// campaignMetrics reduces a run to the end-to-end metrics. A job is one
// campaign at the fixed budget, and its latency is its set-up plus its
// run; rates are medians over campaigns, and
// the counts are exact sums over the counted prefix. The yields divide
// those sums by the CPU time that bought them, the paper's equal-budget
// comparison.
func campaignMetrics(spec campaignSpec, run campaignRun) map[string]metric {
	var setup, tps, tpcpu, apt, lat, cpu []float64
	for _, s := range run.samples {
		w, c := s.wall.Seconds(), s.cpu.Seconds()
		setup = append(setup, s.setup.Seconds())
		tps = append(tps, float64(s.out.Ticks)/w)
		tpcpu = append(tpcpu, float64(s.out.Ticks)/c)
		apt = append(apt, float64(s.allocs)/float64(s.out.Ticks))
		lat = append(lat, (s.setup + s.wall).Seconds())
		cpu = append(cpu, c)
	}
	// The CPU budget of the counted campaigns, at the median campaign's
	// cost: one slow campaign must not move the yield of all of them.
	budget := float64(spec.counted) * median(cpu)
	report("setup_s", setup)
	report("ticks_per_s", tps)
	report("job_latency_s", lat)
	return map[string]metric{
		"setup_s":              {median(setup), "s"},
		"ticks_per_cpu_s":      {median(tpcpu), "1/s"},
		"edges":                {float64(run.counted.Edges), "count"},
		"crashes":              {float64(run.counted.Crashes), "count"},
		"edges_per_cpu_s":      {float64(run.counted.Edges) / budget, "1/s"},
		"crashes_per_cpu_s":    {float64(run.counted.Crashes) / budget, "1/s"},
		"alloc_bytes_per_tick": {median(apt), "B"},
		"peak_rss_mb":          {peakRSSMB(), "MB"},
	}
}
