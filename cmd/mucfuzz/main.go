// Command mucfuzz runs the μCFuzz micro fuzzer (or the macro fuzzer)
// against a simulated compiler profile and reports coverage, compilable
// ratio, and unique crashes.
//
//	mucfuzz -compiler gcc -steps 10000
//	mucfuzz -compiler clang -set u -steps 5000
//	mucfuzz -macro -workers 8 -steps 40000
//
// Macro campaigns run on the parallel engine: -streams logical fuzzing
// streams executed by -workers goroutines (results depend only on
// -seed/-streams/-steps, never on -workers). -checkpoint FILE snapshots
// the campaign periodically and on SIGINT; -resume FILE continues one,
// optionally with a larger -steps. -triage-out FILE writes the ranked
// crash-triage report as JSON; -reduce additionally minimizes each
// triaged witness.
//
//	mucfuzz -macro -steps 40000 -checkpoint c.json          # ^C any time
//	mucfuzz -macro -resume c.json -steps 80000 -triage-out bugs.json
//
// Observability: -stats-interval N prints a live status line every N
// steps (throughput EMAs, ETA from the remaining budget, stall flag);
// -metrics-out/-trace-out write the final JSON snapshot and the JSONL
// span journal; -debug-addr serves /debug/metrics, /debug/pprof, and —
// when the flight recorder is on — /debug/campaign (live JSON console)
// plus /debug/campaign/stream (SSE journal feed).
//
//	mucfuzz -steps 2000 -stats-interval 500 -metrics-out m.json -trace-out t.jsonl
//
// Flight recorder: -flight FILE journals every significant campaign
// event (barriers, checkpoints, mutator rewards, quarantine churn,
// crashes, watchdog anomalies) as JSONL keyed by logical time only —
// the journal is byte-identical at any -workers value for a fixed
// -seed. -flight-max-bytes caps the file (rotation keeps one .1
// generation); -flight-report prints the replayed campaign report at
// exit; -flight-baseline BENCH_sched.json arms the throughput-
// regression watchdog against the committed baseline.
//
//	mucfuzz -macro -steps 40000 -flight flight.jsonl -flight-report
//
// Scheduling: -sched picks the mutator scheduling policy — "adaptive"
// (the default) runs a per-stream UCB bandit over mutator reward,
// "uniform" restores the legacy unbiased shuffle; a resumed campaign
// inherits the checkpoint's policy unless -sched is given explicitly.
//
//	mucfuzz -macro -steps 40000 -sched uniform   # ablation
//
// Fault injection: -chaos SEED arms the deterministic chaos harness on a
// macro campaign — worker panics before stream steps plus torn/failed
// checkpoint writes, all recoverable, so the results must match the
// fault-free run at the same -seed. A fault summary is printed at exit.
//
//	mucfuzz -macro -steps 40000 -checkpoint c.json -chaos 99
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"github.com/icsnju/metamut-go/internal/compilersim"
	"github.com/icsnju/metamut-go/internal/engine"
	"github.com/icsnju/metamut-go/internal/flight"
	"github.com/icsnju/metamut-go/internal/fuzz"
	"github.com/icsnju/metamut-go/internal/llm"
	"github.com/icsnju/metamut-go/internal/muast"
	_ "github.com/icsnju/metamut-go/internal/mutators"
	"github.com/icsnju/metamut-go/internal/mutcheck"
	"github.com/icsnju/metamut-go/internal/obs"
	"github.com/icsnju/metamut-go/internal/reduce"
	"github.com/icsnju/metamut-go/internal/resil"
	"github.com/icsnju/metamut-go/internal/resil/chaos"
	"github.com/icsnju/metamut-go/internal/sched"
	"github.com/icsnju/metamut-go/internal/seeds"
	"github.com/icsnju/metamut-go/internal/serve"
)

func main() {
	var (
		compiler  = flag.String("compiler", "gcc", "target profile: gcc or clang")
		set       = flag.String("set", "s", "mutator set: s (supervised), u (unsupervised), all")
		steps     = flag.Int("steps", 10000, "compilations to run")
		seed      = flag.Int64("seed", 1, "random seed")
		nSeeds    = flag.Int("seeds", 120, "seed corpus size")
		macro     = flag.Bool("macro", false, "run the macro fuzzer instead of μCFuzz")
		workers   = flag.Int("workers", 0, "macro campaign: goroutines executing the streams (0 = GOMAXPROCS; does not change results)")
		streams   = flag.Int("streams", 16, "macro campaign: logical fuzzing streams (campaign identity)")
		ckpt      = flag.String("checkpoint", "", "macro campaign: snapshot file, written every -checkpoint-every epochs and on SIGINT")
		ckptEvery = flag.Int("checkpoint-every", 8, "macro campaign: epochs between snapshots")
		resume    = flag.String("resume", "", "macro campaign: resume from this snapshot file")
		triageOut = flag.String("triage-out", "", "macro campaign: write the ranked triage report as JSON here")
		doReduce  = flag.Bool("reduce", false, "minimize each crashing input before printing")
		lint      = flag.Bool("lint", false, "statically analyze the seed corpus plus sampled mutants and exit")
		noStatic  = flag.Bool("no-static", false, "ablation: compile statically-invalid mutants instead of filtering them")
		chaosSeed = flag.Int64("chaos", 0, "macro campaign: arm the deterministic chaos harness with this fault seed (0 = off)")
		schedKind = flag.String("sched", "adaptive", "mutator scheduling policy: uniform or adaptive (UCB bandit)")
		flightOut = flag.String("flight", "", "write the flight journal (JSONL, logical time only) to this file")
		flightMax = flag.Int64("flight-max-bytes", 64<<20, "rotate the flight journal after this many bytes (0 = unbounded)")
		flightRep = flag.Bool("flight-report", false, "print the replayed flight report at exit")
		flightBas = flag.String("flight-baseline", "", "BENCH_sched.json file arming the throughput-regression watchdog")
		submitTo  = flag.String("submit", "", "delegate the campaign to a mucfuzzd daemon at this address instead of running locally")
		tenant    = flag.String("tenant", "cli", "tenant id for -submit")
	)
	cli := obs.BindCLIFlags()
	flag.Parse()
	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })

	if *submitTo != "" && !*macro {
		// The daemon runs only macro campaigns: submitting a μCFuzz run
		// would silently swap the fuzzer.
		fmt.Fprintln(os.Stderr, "mucfuzz: the daemon runs macro campaigns only; add -macro to -submit")
		os.Exit(2)
	}
	if *submitTo != "" {
		// Service delegation: the same flags become a serve.JobSpec — one
		// canonical job schema for the single-shot CLI and the daemon —
		// and the daemon runs the identical campaign (same seed, streams,
		// budget → same results as running locally).
		spec := serve.JobSpec{
			SpecVersion: serve.JobSpecVersion,
			Tenant:      *tenant,
			Compiler:    *compiler, MutatorSet: *set,
			Seed: *seed, SeedCount: *nSeeds, Steps: *steps,
			Streams: *streams, Sched: *schedKind,
			NoStatic: *noStatic, Reduce: *doReduce,
		}
		if err := submitJob(*submitTo, spec); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	reg := obs.NewRegistry()
	// Pre-register the full campaign metric schema so snapshots and
	// /debug/metrics show every family from the first tick, not just
	// those that happened to fire already.
	fuzz.RegisterMetrics(reg)
	engine.RegisterMetrics(reg)
	sched.RegisterMetrics(reg)
	resil.RegisterMetrics(reg)
	flight.RegisterMetrics(reg)

	version := 14
	if *compiler == "clang" {
		version = 18
	}
	comp := compilersim.New(*compiler, version)
	comp.Instrument(reg)

	var mutators []*muast.Mutator
	switch *set {
	case "s":
		mutators = muast.BySet(muast.Supervised)
	case "u":
		mutators = muast.BySet(muast.Unsupervised)
	default:
		mutators = muast.All()
	}
	if _, err := sched.New(*schedKind, len(mutators)); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	// A resume must be inspected before the recorder and scheduler are
	// built: the snapshot fixes the campaign identity (seed, streams,
	// budget, scheduler policy) and its Done count tells the recorder to
	// continue the journal rather than re-emit the campaign header.
	var preSnap *engine.Snapshot
	if *macro && *resume != "" {
		if snap, used, perr := engine.LoadWithFallback(*resume); perr == nil {
			preSnap = snap
			if used != *resume {
				fmt.Printf("primary checkpoint %s failed integrity check; resuming from %s\n",
					*resume, used)
			}
			// Like -seed/-streams/-steps, an unset -sched inherits the
			// snapshot's policy rather than contradicting it (Resume
			// rejects a posterior the worker cannot restore).
			if !explicit["sched"] && len(snap.StreamStates) > 0 &&
				snap.StreamStates[0].Sched != nil {
				*schedKind = snap.StreamStates[0].Sched.Kind
			}
		}
	}

	// Flight recorder: journal to -flight, or ring-only when just the
	// report or the live console is wanted.
	var rec *flight.Recorder
	var flightW *obs.RotatingWriter
	if *flightOut != "" || *flightRep || cli.DebugAddr != "" {
		if *flightOut != "" {
			w, werr := obs.OpenRotating(*flightOut, *flightMax)
			if werr != nil {
				fmt.Fprintln(os.Stderr, werr)
				os.Exit(1)
			}
			flightW = w
		}
		var wd flight.WatchdogConfig
		if *flightBas != "" {
			base, berr := flight.BenchBaseline(*flightBas, *schedKind)
			if berr != nil {
				fmt.Fprintln(os.Stderr, berr)
				os.Exit(1)
			}
			wd.BaselineEdgesPer1k = base
		}
		armNames := make([]string, len(mutators))
		for i, mu := range mutators {
			armNames[i] = mu.Name
		}
		fcfg := flight.Config{
			Streams:    *streams,
			TotalSteps: *steps,
			Seed:       *seed,
			Registry:   reg,
			ArmNames:   armNames,
			Watchdogs:  wd,
		}
		if flightW != nil {
			fcfg.Journal = flightW
		}
		if !*macro {
			fcfg.Streams = 1
		}
		if preSnap != nil {
			fcfg.Done = preSnap.Done
			fcfg.Seed = preSnap.Seed
			fcfg.Streams = preSnap.Streams
			if !explicit["steps"] {
				fcfg.TotalSteps = preSnap.TotalSteps
			}
		}
		rec = flight.NewRecorder(fcfg)
	}

	shutdown, err := cli.Activate(reg, "mucfuzz", flight.Routes(rec)...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	sp := reg.Span("seed-gen")
	pool := seeds.Generate(*nSeeds, *seed)
	sp.End()

	// The arsenal was LLM-generated offline; surface the token spend it
	// embodies so campaign dashboards can relate throughput to cost.
	llm.RecordArsenalCost(reg, len(mutators))

	if *lint {
		runLint(pool, mutators, *seed)
		return
	}

	status := flight.NewStatus()
	var stats []*fuzz.Stats
	var campaign *engine.Campaign
	sp = reg.Span("fuzz")
	if *macro {
		mcfg := fuzz.DefaultMacroConfig()
		mcfg.StaticFilter = !*noStatic
		factory := func(stream int, rng *rand.Rand, cov fuzz.CoverageSink) engine.Worker {
			w := fuzz.NewMacroFuzzer(fmt.Sprintf("macro-%d", stream), comp,
				mutators, pool, rng, cov, mcfg)
			s, serr := sched.New(*schedKind, len(mutators))
			if serr != nil {
				fmt.Fprintln(os.Stderr, serr)
				os.Exit(1)
			}
			w.Sched = s
			w.Stats().Instrument(reg)
			w.InstrumentSched(reg)
			if rec != nil {
				w.AttachFlight(rec.Stream(stream))
			}
			return w
		}
		ecfg := engine.Config{
			Streams:         *streams,
			Workers:         *workers,
			TotalSteps:      *steps,
			Seed:            *seed,
			CheckpointPath:  *ckpt,
			CheckpointEvery: *ckptEvery,
			Registry:        reg,
			Flight:          rec,
		}
		var inj *chaos.Injector
		if *chaosSeed != 0 {
			inj = chaos.NewInjector(chaos.Config{
				Seed:                *chaosSeed,
				StreamPanicEvery:    3,
				CheckpointTearEvery: 3,
				CheckpointFailEvery: 5,
			})
			ecfg.OnStreamStart = inj.OnStreamStart
			ecfg.CheckpointTransform = inj.CheckpointTransform
			fmt.Printf("chaos armed (fault seed %d): recoverable worker panics and checkpoint corruption\n", *chaosSeed)
		}
		var c *engine.Campaign
		if cli.StatsInterval > 0 {
			next := cli.StatsInterval
			ecfg.OnEpoch = func(done, total int) {
				if done < next {
					return
				}
				for next <= done {
					next += cli.StatsInterval
				}
				agg := c.MergedStats()
				fmt.Println("[stats] " + status.Line(done, total,
					agg.Coverage.Count(), len(agg.Crashes), agg.CompilableRatio()))
			}
		}
		if *resume != "" {
			// Flags left at their defaults inherit from the snapshot
			// instead of contradicting it.
			if !explicit["seed"] {
				ecfg.Seed = 0
			}
			if !explicit["streams"] {
				ecfg.Streams = 0
			}
			if !explicit["steps"] {
				ecfg.TotalSteps = 0
			}
			var rerr error
			if c, rerr = engine.Resume(*resume, ecfg, factory); rerr != nil {
				fmt.Fprintln(os.Stderr, rerr)
				os.Exit(1)
			}
			fmt.Printf("resumed from %s: %d/%d steps done, %d epochs\n",
				*resume, c.Done(), c.Config().TotalSteps, c.Epoch())
		} else {
			c = engine.New(ecfg, factory)
		}
		ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		runErr := c.Run(ctx)
		stopSignals()
		switch {
		case errors.Is(runErr, engine.ErrInterrupted) && *ckpt != "":
			fmt.Printf("interrupted at step %d; checkpoint written to %s (continue with -resume %s)\n",
				c.Done(), *ckpt, *ckpt)
		case errors.Is(runErr, engine.ErrInterrupted):
			fmt.Printf("interrupted at step %d (no -checkpoint set; progress lost)\n", c.Done())
		case runErr != nil:
			fmt.Fprintln(os.Stderr, runErr)
			os.Exit(1)
		}
		for _, w := range c.Workers() {
			stats = append(stats, w.Stats())
		}
		campaign = c
		fmt.Printf("campaign: %d streams on %d workers, %d epochs, shared coverage: %d edges\n",
			c.Config().Streams, c.Config().Workers, c.Epoch(), c.CoverageSnapshot().Count())
		if inj != nil {
			f := inj.Faults()
			fmt.Printf("chaos summary: %d worker panics injected, %d checkpoint writes torn, %d failed — all recovered\n",
				f.StreamPanics, f.TornWrites, f.FailedWrites)
		}
		if poisoned := c.Poisoned(); len(poisoned) > 0 {
			var ss []int
			for s := range poisoned {
				ss = append(ss, s)
			}
			sort.Ints(ss)
			for _, s := range ss {
				fmt.Printf("stream %d poisoned at epoch %d: %s\n",
					s, poisoned[s].Epoch, poisoned[s].Reason)
			}
		}
	} else {
		f := fuzz.NewMuCFuzz("muCFuzz."+*set, comp, mutators, pool,
			rand.New(rand.NewSource(*seed)))
		f.StaticFilter = !*noStatic
		if s, serr := sched.New(*schedKind, len(mutators)); serr == nil {
			f.Sched = s
		}
		f.Stats().Instrument(reg)
		f.InstrumentSched(reg)
		if rec != nil {
			f.AttachFlight(rec.Stream(0))
		}
		// The single-stream fuzzer has no engine barriers; give the
		// recorder pseudo-epochs every microEpochTicks compilations so
		// the console and watchdogs still see periodic summaries.
		const microEpochTicks = 256
		nextEpoch := microEpochTicks
		epoch := 0
		next := cli.StatsInterval
		for f.Stats().Ticks < *steps {
			f.Step()
			if rec != nil && f.Stats().Ticks >= nextEpoch {
				epoch++
				rec.EndEpoch(microEpoch(epoch, f, *steps))
				for nextEpoch <= f.Stats().Ticks {
					nextEpoch += microEpochTicks
				}
			}
			if cli.StatsInterval > 0 && f.Stats().Ticks >= next {
				st := f.Stats()
				fmt.Println("[stats] " + status.Line(st.Ticks, *steps,
					st.Coverage.Count(), st.UniqueCrashes(), st.CompilableRatio()))
				next += cli.StatsInterval
			}
		}
		if rec != nil {
			epoch++
			rec.EndEpoch(microEpoch(epoch, f, *steps))
			st := f.Stats()
			rec.End(st.Ticks, st.Coverage.Count(), st.UniqueCrashes())
		}
		stats = append(stats, f.Stats())
		fmt.Printf("pool grew to %d programs\n", f.PoolSize())
	}
	sp.End()

	sp = reg.Span("report")
	agg := fuzz.NewStats("all")
	for _, st := range stats {
		agg.MergeFrom(st)
	}
	crashes := agg.Crashes
	fmt.Printf("target: %s-%d   mutants: %d   compilable: %.1f%%   edges: %d\n",
		*compiler, version, agg.Total, agg.CompilableRatio(),
		agg.Coverage.Count())
	if agg.StaticRejects > 0 {
		fmt.Printf("static filter: %d mutants rejected before compilation (%d ticks saved)\n",
			agg.StaticRejects, agg.StaticRejects)
	}
	fmt.Printf("unique crashes: %d\n", len(crashes))
	if campaign != nil {
		// Macro campaigns get the full triage pipeline: signature
		// bucketing across streams, deep-component-first ranking, and
		// (with -reduce) automatic witness minimization.
		rep := campaign.Triage(comp, engine.TriageConfig{
			Reduce:   *doReduce,
			Registry: reg,
		})
		fmt.Print(rep.Render())
		if *triageOut != "" {
			if err := rep.WriteJSON(*triageOut); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("triage report written to %s\n", *triageOut)
		}
	} else {
		var sigs []string
		for sig := range crashes {
			sigs = append(sigs, sig)
		}
		// Deterministic report order: discovery tick, then signature, so
		// equal-seed runs print identical reports even when several
		// crashes share a tick.
		sort.Slice(sigs, func(i, j int) bool {
			ci, cj := crashes[sigs[i]], crashes[sigs[j]]
			if ci.FirstTick != cj.FirstTick {
				return ci.FirstTick < cj.FirstTick
			}
			return sigs[i] < sigs[j]
		})
		for _, sig := range sigs {
			c := crashes[sig]
			fmt.Printf("  t=%-7d [%s/%s] %s\n     via %s\n     frames: %s | %s\n",
				c.FirstTick, c.Report.Component, c.Report.Kind, c.Report.Message,
				c.Via, c.Report.Frames[0], c.Report.Frames[1])
			if *doReduce {
				oracle := reduce.CrashOracle(comp, compilersim.DefaultOptions(), sig)
				res := reduce.Reduce(c.Input, oracle, reduce.DefaultConfig())
				fmt.Printf("     reduced input (%d -> %d bytes):\n", len(c.Input), len(res.Output))
				for _, line := range strings.Split(strings.TrimSpace(res.Output), "\n") {
					fmt.Printf("       %s\n", line)
				}
			}
		}
	}
	sp.End()

	if rec != nil {
		if n := len(rec.Anomalies()); n > 0 {
			fmt.Printf("flight watchdogs raised %d anomalies (see journal or -flight-report)\n", n)
		}
		if jerr := rec.JournalErr(); jerr != nil {
			fmt.Fprintf(os.Stderr, "flight journal error: %v\n", jerr)
		}
		if *flightRep {
			frep := flight.BuildReport(rec.Events())
			fmt.Print(frep.Render())
			fmt.Print(flight.RenderLatency(reg.Snapshot()))
		}
		if flightW != nil {
			if cerr := flightW.Close(); cerr != nil {
				fmt.Fprintln(os.Stderr, cerr)
			}
			fmt.Printf("flight journal written to %s\n", *flightOut)
		}
	}

	if err := shutdown(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// submitJob delegates a campaign to a running daemon: submit, watch
// until terminal, print the triage report.
func submitJob(addr string, spec serve.JobSpec) error {
	// Reads retry transient connection errors (bounded seeded backoff)
	// so a daemon restart mid-watch does not abort the delegation.
	c := &serve.Client{Addr: addr, Retry: &resil.Policy{MaxAttempts: 8}}
	id, err := c.Submit(spec)
	if err != nil {
		return err
	}
	fmt.Printf("submitted to %s as %s (tenant %s)\n", addr, id, spec.Tenant)
	lastDone := -1
	rec, err := c.Wait(id, 500*time.Millisecond, 0, func(r serve.JobRecord) {
		if r.Done == lastDone {
			return
		}
		lastDone = r.Done
		fmt.Printf("job %s [%s] %d/%d steps   %d edges   %d crashes\n",
			r.ID, r.State, r.Done, r.Spec.Steps, r.Edges, r.Crashes)
	})
	if err != nil {
		return err
	}
	switch rec.State {
	case serve.Failed:
		return fmt.Errorf("job %s failed: %s", id, rec.Error)
	case serve.Quarantined:
		return fmt.Errorf("job %s quarantined: %s", id, rec.Error)
	}
	data, err := c.Results(id)
	if err != nil {
		return err
	}
	os.Stdout.Write(data)
	return nil
}

// microEpoch summarizes the single-stream fuzzer's progress as one
// pseudo-barrier for the flight recorder.
func microEpoch(epoch int, f *fuzz.MuCFuzz, total int) flight.EpochInfo {
	st := f.Stats()
	return flight.EpochInfo{
		Epoch: epoch, Done: st.Ticks, Total: total, Edges: st.Coverage.Count(),
		Streams: []flight.StreamInfo{{
			Stream: 0, Ticks: st.Ticks, Total: st.Total,
			Crashes: len(st.Crashes), Edges: st.Coverage.Count(),
			Pool: f.PoolSize(), Sched: f.SchedState(),
		}},
	}
}

// runLint is the standalone shift-left report: it semantically analyzes
// the seed corpus (which must be clean) and one sampled mutant per
// mutator, tallying diagnostics per check.
func runLint(pool []string, mutators []*muast.Mutator, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	perCheck := map[string]int{}
	tally := func(src string) (errs int) {
		for _, d := range mutcheck.Analyze(src) {
			perCheck[d.Check]++
			if d.Severity == mutcheck.Error {
				errs++
			}
		}
		return errs
	}
	seedErrs := 0
	for _, s := range pool {
		seedErrs += tally(s)
	}
	fmt.Printf("seed corpus: %d programs, %d front-end errors (want 0)\n",
		len(pool), seedErrs)

	sampled, rejected := 0, 0
	for _, mu := range mutators {
		p := pool[rng.Intn(len(pool))]
		mgr, err := muast.NewManager(p, rng)
		if err != nil {
			continue
		}
		mutant, ok := mu.Apply(p, mgr)
		if !ok {
			continue
		}
		sampled++
		if tally(mutant) > 0 {
			rejected++
			fmt.Printf("  %-36s would be statically rejected\n", mu.Name)
		}
	}
	fmt.Printf("sampled %d mutants (one per applicable mutator): %d statically rejected\n",
		sampled, rejected)
	var checks []string
	for c := range perCheck {
		checks = append(checks, c)
	}
	sort.Strings(checks)
	for _, c := range checks {
		fmt.Printf("  %-24s %d\n", c, perCheck[c])
	}
}
