package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"github.com/icsnju/metamut-go/internal/cast"
	"github.com/icsnju/metamut-go/internal/compilersim"
	"github.com/icsnju/metamut-go/internal/compilersim/cover"
	"github.com/icsnju/metamut-go/internal/fuzz"
	"github.com/icsnju/metamut-go/internal/muast"
	"github.com/icsnju/metamut-go/internal/mutcheck"
	"github.com/icsnju/metamut-go/internal/sched"
	"github.com/icsnju/metamut-go/internal/serve"
)

// The traced run. It measures two halves on every workload, so every
// workload reports every layer:
//
//   - the campaign layers (fuzz, sched, mutators, muast, cast, mutcheck,
//     compilersim, cover, engine), from traced campaigns of the
//     workload's campaign shape — for serve-4t, the campaign a job runs;
//   - the service layers (serve, engine checkpoints, flight journals),
//     from a traced daemon serving jobs of that shape — for the campaign
//     workloads, a short closed loop of 8 such jobs.
//
// Layers the runner cannot wrap are replayed through their public
// functions over inputs captured at the wrapped boundaries.
//
// The end-to-end metric each layer should move, and where:
//
//   - fuzz step, ticks per step, static rejects, admissions: ticks_per_s
//     on both campaign workloads; the splice: ticks_per_cpu_s on
//     mucfuzz-gcc.
//   - mutators and muast (apply, manager builds, Parents, rewrite):
//     ticks_per_cpu_s and alloc_bytes_per_tick, most on macro-clang.
//   - cast (lex, parse, check): ticks_per_cpu_s on both campaign
//     workloads, through manager builds, the static filter and compile.
//   - mutcheck and compilersim: ticks_per_cpu_s and edges_per_cpu_s,
//     most on mucfuzz-gcc.
//   - cover sink: macro-clang only. sched: under 3% of a step today, so
//     no change unless a scheduler is rewritten.
//   - engine epoch and parallel efficiency: ticks_per_s but not
//     ticks_per_cpu_s. Checkpoints, flight journals and serve (submit,
//     poll, queue wait, slices, ledger): job_latency_p50_s and ticks_per_s
//     on serve-4t.

const (
	// captureEvery samples one successful mutator application in this
	// many for the replays.
	captureEvery = 8
	// maxReplays caps the replayed inputs.
	maxReplays = 1500
	// maxTracedCampaigns caps the traced campaigns, which bounds the
	// spans kept in memory.
	maxTracedCampaigns = 8
	// serviceJobs is the closed loop a campaign workload's traced run
	// serves to measure the service layers.
	serviceJobs = 8
)

// jobShape is the JobSpec closest to a campaign workload: the daemon
// always runs the macro fuzzer, over the workload's compiler, mutator
// set, scheduler, streams and budget.
func jobShape(spec campaignSpec, seed int64) func(idx int) serve.JobSpec {
	return func(idx int) serve.JobSpec {
		s := serveJob(seed, idx)
		s.Compiler, s.MutatorSet, s.Streams, s.Steps = spec.compiler, spec.set, spec.streams, spec.steps
		if !spec.macro {
			s.Sched = "uniform"
		}
		return s
	}
}

func traceCampaignWorkload(spec campaignSpec, o options) (result, error) {
	return traceWorkload(o, spec, o.seconds/2, jobShape(spec, o.seed), 0, serviceJobs)
}

func traceServeWorkload(shape serveShape, o options) (result, error) {
	job := func(idx int) serve.JobSpec { return shape.job(o.seed, idx) }
	return traceWorkload(o, shape.campaign, o.seconds/4, job, o.seconds/2, shape.counted)
}

// traceWorkload runs the traced campaigns (campSeconds), their untraced
// twins, the replays, and the traced service (serviceSeconds, at least
// minJobs jobs), and assembles the per-layer metrics.
func traceWorkload(o options, spec campaignSpec, campSeconds float64,
	job func(int) serve.JobSpec, serviceSeconds float64, minJobs int) (result, error) {
	res := result{Correct: true, Metrics: map[string]metric{}}
	root, err := benchRoot()
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(root)

	tr := newTracer(captureEvery, o.workers)
	var traced, plain []sample
	deadline := time.Now().Add(time.Duration(campSeconds * float64(time.Second)))
	for i := 0; i < 2 || (i < maxTracedCampaigns && time.Now().Before(deadline)); i++ {
		first := len(tr.streams)
		s, err := runOne(spec, campaignSeed(o.seed, i), o.workers, tr.hooks())
		if err != nil {
			return res, err
		}
		for _, st := range tr.streams[first:] {
			if p, ok := st.inner.(interface{ PoolSize() int }); ok {
				tr.poolGrowth += p.PoolSize() - seedPrograms
			}
		}
		traced = append(traced, s)
	}
	for i := range traced {
		s, err := runOne(spec, campaignSeed(o.seed, i), o.workers, nil)
		if err != nil {
			return res, err
		}
		if s.out != traced[i].out {
			fmt.Fprintf(os.Stderr, "perfbench: traced campaign %d computed %+v, untraced %+v\n", i, traced[i].out, s.out)
			res.Correct = false
		}
		plain = append(plain, s)
	}
	camp := campaignLayers(spec, tr, selfTimes(tr.spans()), traced, plain, o.seed)
	svc, err := traceService(o, root, tr, job, serviceSeconds, minJobs)
	if err != nil {
		return res, err
	}
	if err := os.MkdirAll(filepath.Join(".bench_build", "traces"), 0o755); err != nil {
		return res, err
	}
	if err := writeSpans(filepath.Join(".bench_build", "traces",
		fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed)), tr.spans()); err != nil {
		return res, err
	}
	for k, v := range camp {
		res.Metrics[k] = v
	}
	for k, v := range svc.metrics {
		res.Metrics[k] = v
	}
	for _, s := range traced {
		res.Attempted += spec.steps
		res.Failed += s.failed
	}
	res.Attempted += svc.attempted
	res.Failed += svc.failed
	res.Correct = res.Correct && svc.failed == 0
	return res, nil
}

// replayed is what the replays measured, per call.
type replayed struct {
	managerBuild, parents, splice, reject, compile, frontend, check, merge float64
	compileAt                                                              [4]float64
	rejectAllocs, compileAllocs, compileBytes, parseAllocs, parseBytes     float64
	tokensPerS, nodesPerS, crashRatio, mergeNewRatio                       float64
}

// timeEach returns the mean duration of f over n calls, in nanoseconds.
func timeEach(n int, f func(i int)) float64 {
	var total time.Duration
	for i := 0; i < n; i++ {
		t0 := time.Now()
		f(i)
		total += time.Since(t0)
	}
	return ratio(float64(total.Nanoseconds()), float64(n))
}

// allocsEach returns the mean heap allocations and bytes of f over n
// calls, measured on this goroutine with nothing else running.
func allocsEach(n int, f func(i int)) (allocs, bytes float64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		f(i)
	}
	runtime.ReadMemStats(&b)
	return ratio(float64(b.Mallocs-a.Mallocs), float64(n)), ratio(float64(b.TotalAlloc-a.TotalAlloc), float64(n))
}

// spliceReplay rebuilds the fuzzers' unchecked splice from its public
// parts: ParseAndCheckArena → NewManagerFromTU → Exprs → ReplaceNode.
func spliceReplay(src string, rng *rand.Rand, arena *cast.Arena) (string, bool) {
	arena.Reset()
	tu, err := cast.ParseAndCheckArena(src, arena)
	if err != nil {
		return "", false
	}
	mgr := muast.NewManagerFromTU(tu, rng)
	exprs := mgr.Exprs(nil, nil)
	if len(exprs) < 2 {
		return "", false
	}
	dst, from := exprs[rng.Intn(len(exprs))], exprs[rng.Intn(len(exprs))]
	if dst == from || dst.Range().Contains(from.Range()) || from.Range().Contains(dst.Range()) {
		return "", false
	}
	text := mgr.GetSourceText(from)
	if text == mgr.GetSourceText(dst) || !mgr.ReplaceNode(dst, text) {
		return "", false
	}
	return mgr.Apply(), true
}

// replayOptions draws compile options the way the workload's fuzzer
// does: -O2 for μCFuzz, the macro fuzzer's sampled command lines.
func replayOptions(macro bool, rng *rand.Rand) compilersim.Options {
	if !macro {
		return compilersim.DefaultOptions()
	}
	opts := compilersim.Options{OptLevel: rng.Intn(4)}
	for _, fl := range []string{"loopvec", "strbuiltin", "cse", "simplify", "dce"} {
		if rng.Float64() < 0.15 {
			opts.DisabledPasses = append(opts.DisabledPasses, fl)
		}
	}
	return opts
}

// replay measures the unwrappable layers over the captured inputs.
func replay(spec campaignSpec, caps []capture, seed int64) replayed {
	var r replayed
	if len(caps) > maxReplays {
		step := float64(len(caps)) / maxReplays
		picked := make([]capture, maxReplays)
		for i := range picked {
			picked[i] = caps[int(float64(i)*step)]
		}
		caps = picked
	}
	n := len(caps)
	rng := rand.New(rand.NewSource(seed))

	// Manager builds: a memoized build wraps the cached parse, any
	// other parses and checks the source first.
	tus := make([]*cast.TranslationUnit, n)
	var buildNS time.Duration
	for i, c := range caps {
		if c.hit {
			// Memoize the parse first, as the fuzzer's earlier build did.
			if _, err := muast.NewManager(c.src, rng); err != nil {
				continue
			}
			t0 := time.Now()
			mgr, err := muast.NewManager(c.src, rng)
			buildNS += time.Since(t0)
			if err == nil {
				tus[i] = mgr.TU
			}
			continue
		}
		t0 := time.Now()
		tu, err := cast.ParseAndCheck(c.src)
		if err == nil {
			tus[i] = muast.NewManagerFromTU(tu, rng).TU
		}
		buildNS += time.Since(t0)
	}
	r.managerBuild = ratio(float64(buildNS.Nanoseconds()), float64(n))
	r.parents = timeEach(n, func(i int) {
		if tus[i] != nil {
			muast.NewManagerFromTU(tus[i], rng).Parents()
		}
	})

	// The splice draws at the fuzzers' unchecked rate; what comes out
	// is what the static filter and the compiler see.
	arena := cast.NewArena()
	inputs := make([]string, n)
	var spliceNS time.Duration
	splices := 0
	for i, c := range caps {
		inputs[i] = c.mutant
		if rng.Float64() >= fuzz.DefaultUncheckedRate {
			continue
		}
		t0 := time.Now()
		out, ok := spliceReplay(c.mutant, rng, arena)
		spliceNS += time.Since(t0)
		splices++
		if ok {
			inputs[i] = out
		}
	}
	r.splice = ratio(float64(spliceNS.Nanoseconds()), float64(splices))

	var accepted []string
	r.reject = timeEach(n, func(i int) {
		if _, rej := mutcheck.Reject(inputs[i]); !rej {
			accepted = append(accepted, inputs[i])
		}
	})
	r.rejectAllocs, _ = allocsEach(n, func(i int) { mutcheck.Reject(inputs[i]) })

	comp := compilersim.New(spec.compiler, spec.version)
	cx := comp.NewContext()
	m := len(accepted)
	opts := make([]compilersim.Options, m)
	for i := range opts {
		opts[i] = replayOptions(spec.macro, rng)
	}
	for i, src := range accepted { // warm the context's buffers
		cx.Compile(src, opts[i])
	}
	covMap := cover.NewMap()
	crashes, news := 0, 0
	var compileNS, mergeNS time.Duration
	for i, src := range accepted {
		t0 := time.Now()
		res := cx.Compile(src, opts[i])
		t1 := time.Now()
		if covMap.HasNew(res.Coverage) {
			news++
		}
		covMap.Merge(res.Coverage)
		mergeNS += time.Since(t1)
		compileNS += t1.Sub(t0)
		if res.Crash != nil {
			crashes++
		}
	}
	r.compile = ratio(float64(compileNS.Nanoseconds()), float64(m))
	r.merge = ratio(float64(mergeNS.Nanoseconds()), float64(m))
	r.mergeNewRatio = ratio(float64(news), float64(m))
	r.crashRatio = ratio(float64(crashes), float64(m))
	r.compileAllocs, r.compileBytes = allocsEach(m, func(i int) { cx.Compile(accepted[i], opts[i]) })
	for lvl := range r.compileAt {
		r.compileAt[lvl] = timeEach(m, func(i int) {
			cx.Compile(accepted[i], compilersim.Options{OptLevel: lvl})
		})
	}

	// The front end on its own: lex, parse the tokens into an arena,
	// check.
	var lexNS, parseNS, checkNS time.Duration
	tokens, nodes := 0, 0
	for _, src := range accepted {
		t0 := time.Now()
		toks, err := cast.Lex(src)
		t1 := time.Now()
		lexNS += t1.Sub(t0)
		if err != nil {
			continue
		}
		tokens += len(toks)
		arena.Reset()
		tu, err := cast.ParseTokens(src, toks, arena)
		t2 := time.Now()
		parseNS += t2.Sub(t1)
		if err != nil {
			continue
		}
		cast.Check(tu)
		checkNS += time.Since(t2)
		cast.Walk(tu, func(cast.Node) bool { nodes++; return true })
	}
	r.frontend = ratio(float64((lexNS + parseNS + checkNS).Nanoseconds()), float64(m))
	r.check = ratio(float64(checkNS.Nanoseconds()), float64(m))
	r.tokensPerS = ratio(float64(tokens), lexNS.Seconds())
	r.nodesPerS = ratio(float64(nodes), parseNS.Seconds())
	r.parseAllocs, r.parseBytes = allocsEach(m, func(i int) { cast.Parse(accepted[i]) })
	return r
}

// schedReplay times the scheduler method a workload never calls
// (Pick under μCFuzz, Order under the macro fuzzer) on a fresh
// scheduler of the workload's kind, so both numbers are measured.
func schedReplay(macro bool, arms int, seed int64) (order, pick float64) {
	rng := rand.New(rand.NewSource(seed))
	var s sched.Scheduler = sched.NewUniform(arms)
	if macro {
		s = sched.NewAdaptive(arms, sched.DefaultConfig())
	}
	const n = 2000
	order = timeEach(n, func(int) { s.Order(rng, nil) })
	pick = timeEach(n, func(int) { s.Pick(rng, nil) })
	return order, pick
}

// stepCost is one step's cost by layer: the self time of the wrapped
// layers, plus each replayed layer's calls per step times its cost per
// call. Every compile also merges its coverage into the stream's map.
type stepCost struct {
	wrappedNS           float64
	builds, buildNS     float64
	rewrites, rewriteNS float64
	splices, spliceNS   float64
	filtered, rejectNS  float64
	ticks, compileNS    float64
	mergeNS             float64
}

// reconcile returns the layers' summed cost over the measured step: 1
// when the ledger accounts for the whole step.
func (c stepCost) reconcile(stepNS float64) float64 {
	sum := c.wrappedNS + c.builds*c.buildNS + c.rewrites*c.rewriteNS +
		c.splices*c.spliceNS + c.filtered*c.rejectNS + c.ticks*(c.compileNS+c.mergeNS)
	return ratio(sum, stepNS)
}

// campaignLayers assembles the campaign-layer metrics.
func campaignLayers(spec campaignSpec, tr *tracer, lt map[string]*layerTime,
	traced, plain []sample, seed int64) map[string]metric {
	var out outcome
	var wall, plainWall time.Duration
	for i := range traced {
		out.add(traced[i].out)
		wall += traced[i].wall
		plainWall += plain[i].wall
	}
	var caps []capture
	var rewrites []float64
	applies, ok, faults, sinkCalls, sinkNew, schedCalls := 0, 0, 0, 0, 0, 0
	for _, st := range tr.streams {
		caps = append(caps, st.captures...)
		applies += st.applies
		ok += st.ok
		faults += st.faults
		sinkCalls += st.sinkCalls
		sinkNew += st.sinkNew
		schedCalls += st.schedCalls
		for _, d := range st.rewrites {
			rewrites = append(rewrites, float64(d.Nanoseconds()))
		}
	}
	rp := replay(spec, caps, seed)

	step := lt[spStep]
	steps := float64(step.calls)
	ticks := float64(out.Ticks)
	filtered := ticks + float64(out.StaticRejects)
	stepNS := step.mean()
	order, pick := lt[spOrder].mean(), lt[spPick].mean()
	if lt[spOrder] == nil || lt[spPick] == nil {
		replayOrder, replayPick := schedReplay(spec.macro, len(mutatorSet(spec.set)), seed)
		if lt[spOrder] == nil {
			order = replayOrder
		}
		if lt[spPick] == nil {
			pick = replayPick
		}
	}
	sinkNS, sinkRatio := lt[spSink].mean(), ratio(float64(sinkNew), float64(sinkCalls))
	if sinkCalls == 0 {
		sinkNS, sinkRatio = rp.merge, rp.mergeNewRatio
	}
	buildsPerStep := float64(tr.builds) / steps
	splicesPerStep := fuzz.DefaultUncheckedRate * filtered / steps

	wrapped := 0.0
	for _, name := range []string{spOrder, spPick, spObserve, spApply, spSink} {
		if l := lt[name]; l != nil {
			wrapped += float64(l.selfNS) / steps
		}
	}
	cost := stepCost{
		wrappedNS: wrapped,
		builds:    buildsPerStep, buildNS: rp.managerBuild,
		rewrites: float64(ok) / steps, rewriteNS: median(rewrites),
		splices: splicesPerStep, spliceNS: rp.splice,
		filtered: filtered / steps, rejectNS: rp.reject,
		ticks: ticks / steps, compileNS: rp.compile, mergeNS: rp.merge,
	}
	busy := float64(step.totalNS + step.captureNS)
	var epochMS []float64
	for _, d := range tr.epochs {
		epochMS = append(epochMS, float64(d.Nanoseconds())/1e6)
	}
	tracedTPS, plainTPS := ticks/wall.Seconds(), ticks/plainWall.Seconds()
	m := map[string]metric{
		"fuzz.step_ns":              {stepNS, "ns"},
		"fuzz.step_self_ns":         {float64(step.selfNS) / steps, "ns"},
		"fuzz.ticks_per_step":       {ticks / steps, "count"},
		"fuzz.static_reject_ratio":  {ratio(float64(out.StaticRejects), filtered), "ratio"},
		"fuzz.admissions_per_ktick": {1000 * float64(tr.poolGrowth) / ticks, "count"},
		"fuzz.splice_ns":            {rp.splice, "ns"},

		"mutators.apply_ns":             {lt[spApply].mean(), "ns"},
		"mutators.applies_per_tick":     {float64(applies) / ticks, "count"},
		"mutators.applicable_ratio":     {ratio(float64(ok), float64(applies)), "ratio"},
		"mutators.fault_ratio":          {ratio(float64(faults), float64(applies)), "ratio"},
		"muast.manager_build_ns":        {rp.managerBuild, "ns"},
		"muast.manager_builds_per_tick": {float64(tr.builds) / ticks, "count"},
		"muast.parents_ns":              {rp.parents, "ns"},
		"muast.rewrite_ns":              {median(rewrites), "ns"},

		"cast.tokens_per_s":      {rp.tokensPerS, "1/s"},
		"cast.parse_nodes_per_s": {rp.nodesPerS, "1/s"},
		"cast.check_ns":          {rp.check, "ns"},
		"cast.allocs_per_parse":  {rp.parseAllocs, "count"},
		"cast.bytes_per_parse":   {rp.parseBytes, "B"},

		"mutcheck.reject_ns":       {rp.reject, "ns"},
		"mutcheck.allocs_per_call": {rp.rejectAllocs, "count"},
		"mutcheck.calls_per_tick":  {filtered / ticks, "count"},

		"compilersim.compile_ns":         {rp.compile, "ns"},
		"compilersim.compile_ns.O0":      {rp.compileAt[0], "ns"},
		"compilersim.compile_ns.O1":      {rp.compileAt[1], "ns"},
		"compilersim.compile_ns.O2":      {rp.compileAt[2], "ns"},
		"compilersim.compile_ns.O3":      {rp.compileAt[3], "ns"},
		"compilersim.frontend_ns":        {rp.frontend, "ns"},
		"compilersim.allocs_per_compile": {rp.compileAllocs, "count"},
		"compilersim.bytes_per_compile":  {rp.compileBytes, "B"},
		"compilersim.valid_ratio":        {ratio(float64(compilable(traced)), ticks), "ratio"},
		"compilersim.crash_ratio":        {rp.crashRatio, "ratio"},

		"cover.sink_merge_ns":  {sinkNS, "ns"},
		"cover.sink_new_ratio": {sinkRatio, "ratio"},

		"sched.order_ns":       {order, "ns"},
		"sched.pick_ns":        {pick, "ns"},
		"sched.observe_ns":     {lt[spObserve].mean(), "ns"},
		"sched.calls_per_tick": {float64(schedCalls) / ticks, "count"},

		"engine.epoch_ms":            {median(epochMS), "ms"},
		"engine.parallel_efficiency": {busy / (float64(tr.workers) * float64(wall.Nanoseconds())), "ratio"},

		"trace.overhead_ticks_per_s": {plainTPS - tracedTPS, "1/s"},
		// The shares of a step the workload design predicts: the static
		// filter plus compile dominate μCFuzz, manager builds plus
		// applies dominate the macro fuzzer.
		"trace.share_mutcheck_compile": {(filtered*rp.reject + ticks*rp.compile) / steps / stepNS, "ratio"},
		"trace.share_build_apply":      {(buildsPerStep*rp.managerBuild + float64(lt[spApply].totalNS)/steps) / stepNS, "ratio"},
		"trace.reconciliation_ratio":   {cost.reconcile(stepNS), "ratio"},
	}
	return m
}

// serviceTrace records the daemon's chaos hooks with identity
// transforms: slice starts, checkpoint bytes and ledger bytes. A slice
// runs on the coordinator goroutine, from SliceStart to its barrier's
// checkpoint write, and its span goes to the coordinator's buffer.
// Ledger saves also run in the HTTP handlers, so every hook takes the
// lock.
type serviceTrace struct {
	mu         sync.Mutex
	coord      *spanBuf
	slice      int32 // open slice span, -1 when none
	firstSlice map[int]time.Time
	ckptBytes  []float64
	ledger     []float64
}

func (s *serviceTrace) hooks() *serve.ChaosHooks {
	return &serve.ChaosHooks{
		SliceStart: func(jobSeq, attempt int) {
			s.mu.Lock()
			defer s.mu.Unlock()
			if _, ok := s.firstSlice[jobSeq]; !ok {
				s.firstSlice[jobSeq] = time.Now()
			}
			if s.slice >= 0 {
				s.coord.end(s.slice)
			}
			s.slice = s.coord.begin(spSlice)
		},
		CheckpointTransform: func(b []byte) ([]byte, error) {
			s.mu.Lock()
			defer s.mu.Unlock()
			if s.slice >= 0 {
				s.coord.end(s.slice)
				s.slice = -1
			}
			s.ckptBytes = append(s.ckptBytes, float64(len(b)))
			return b, nil
		},
		LedgerTransform: func(b []byte) ([]byte, error) {
			s.mu.Lock()
			defer s.mu.Unlock()
			s.ledger = append(s.ledger, float64(len(b)))
			return b, nil
		},
	}
}

// serviceResult is the service half of the traced run.
type serviceResult struct {
	metrics           map[string]metric
	attempted, failed int
}

// traceService serves jobs on a traced daemon, recording its spans in
// tr, and assembles the service-layer metrics.
func traceService(o options, root string, tr *tracer, job func(int) serve.JobSpec,
	seconds float64, minJobs int) (serviceResult, error) {
	var out serviceResult
	st := &serviceTrace{coord: tr.newBuf(), slice: -1, firstSlice: map[int]time.Time{}}
	client := tr.newBuf()
	sc := &serveClient{job: job, spans: client}
	so := o
	so.seconds = seconds
	run, err := runService(so, root, st.hooks(), sc, minJobs)
	if err != nil {
		return out, err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	lt := selfTimes(append(append([]span(nil), client.spans...), st.coord.spans...))
	jobs := float64(len(run.jobs))
	steps := 0
	var wait []float64
	for _, j := range run.jobs {
		steps += j.rec.Done
		if j.rec.State != serve.Done {
			out.failed++
		}
		if t, ok := st.firstSlice[j.rec.Seq]; ok {
			wait = append(wait, float64(t.Sub(j.submitted).Nanoseconds())/1e6)
		}
	}
	out.attempted = len(run.jobs) + run.requests
	out.failed += run.errs
	out.metrics = map[string]metric{
		"engine.checkpoint_bytes":       {median(st.ckptBytes), "B"},
		"engine.checkpoints_per_job":    {float64(len(st.ckptBytes)) / jobs, "count"},
		"flight.journal_bytes_per_step": {float64(run.journalBytes) / float64(steps), "B"},
		"serve.submit_ms":               {lt[spSubmit].mean() / 1e6, "ms"},
		"serve.poll_ms":                 {lt[spPoll].mean() / 1e6, "ms"},
		"serve.queue_wait_ms":           {median(wait), "ms"},
		"serve.slice_ms":                {lt[spSlice].mean() / 1e6, "ms"},
		"serve.slices_per_job":          {float64(len(st.coord.spans)) / jobs, "count"},
		"serve.ledger_bytes":            {median(st.ledger), "B"},
		"serve.ledger_saves_per_job":    {float64(len(st.ledger)) / jobs, "count"},
	}
	return out, nil
}

// compilable sums the compilable mutants of the traced campaigns.
func compilable(samples []sample) int {
	n := 0
	for _, s := range samples {
		n += s.compilable
	}
	return n
}
