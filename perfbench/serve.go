package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"github.com/icsnju/metamut-go/internal/engine"
	"github.com/icsnju/metamut-go/internal/serve"
)

// serve-4t shape: a closed loop of 4 tenants, each with one job
// outstanding, submitting its next job only when the previous one is
// terminal. It was chosen because per-job setup, DRR slicing,
// per-barrier checkpoints, flight journals, ledger saves and the HTTP
// API cost close to nothing in the campaign workloads and about a tenth
// of the CPU here: a change that speeds fuzzing but slows checkpoint or
// restore shows only on this workload.
const (
	serveTenants = 4
	// serveCounted is how many jobs, the first of every run by spec
	// index, the exact counts sum over.
	serveCounted = 64
	// servePoll is the client's poll interval over its outstanding jobs.
	servePoll = 2 * time.Millisecond
	// serveSetups is how many times a run times the set-up.
	serveSetups = 41
)

// serveJob is the short default JobSpec every tenant submits: gcc,
// M_s, adaptive scheduling, 16 streams, 512 steps.
func serveJob(seed int64, idx int) serve.JobSpec {
	spec := serve.JobSpec{
		Tenant:     fmt.Sprintf("t%d", idx%serveTenants),
		Name:       fmt.Sprintf("job-%d", idx),
		Compiler:   "gcc",
		MutatorSet: "s",
		Sched:      "adaptive",
		Streams:    16,
		Steps:      512,
		Seed:       campaignSeed(seed, idx),
	}
	spec.Normalize()
	return spec
}

// serveShape is a service workload: the jobs its tenants submit, the
// campaign each job runs (as a campaign spec), and how many jobs, the
// first of every run by spec index, the exact counts sum over.
type serveShape struct {
	job      func(seed int64, idx int) serve.JobSpec
	campaign campaignSpec
	counted  int
}

// serve4t runs the short default jobs; each is the daemon's macro
// fuzzer on gcc over M_s with adaptive scheduling.
var serve4t = serveShape{
	job: serveJob,
	campaign: campaignSpec{
		compiler: "gcc", version: 14, macro: true, set: "s",
		streams: 16, steps: 512,
	},
	counted: serveCounted,
}

// daemon is one in-process service behind its HTTP handler on loopback.
type daemon struct {
	d      *serve.Daemon
	srv    *http.Server
	ln     net.Listener
	client *serve.Client
	tr     *http.Transport
	dir    string
	served chan error
	ran    chan struct{}
}

// startDaemon brings up a daemon over a fresh state directory, serving
// its API and running its coordinator.
func startDaemon(root string, fleet int, chaos *serve.ChaosHooks) (*daemon, error) {
	dir, err := os.MkdirTemp(root, "state-")
	if err != nil {
		return nil, err
	}
	d, err := serve.New(serve.Config{StateDir: dir, Fleet: fleet, Chaos: chaos})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.Stop()
		return nil, err
	}
	// One connection: the client is a single goroutine, and keeping the
	// connection alive keeps the API cost what a real client pays.
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	dm := &daemon{
		d: d, srv: &http.Server{Handler: d.Handler()}, ln: ln, dir: dir, tr: tr,
		client: &serve.Client{Addr: ln.Addr().String(), HTTP: &http.Client{Transport: tr}},
		served: make(chan error, 1), ran: make(chan struct{}),
	}
	go func() { dm.served <- dm.srv.Serve(ln) }()
	go func() { defer close(dm.ran); d.Run() }()
	return dm, nil
}

// stop shuts the HTTP server and the daemon down, waits for both
// goroutines, and removes the state directory.
func (dm *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := dm.srv.Shutdown(ctx)
	if serr := <-dm.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	dm.tr.CloseIdleConnections()
	dm.d.Stop()
	<-dm.ran
	return errors.Join(err, os.RemoveAll(dm.dir))
}

// jobResult is one finished job as its tenant saw it.
type jobResult struct {
	idx       int
	id        string
	submitted time.Time
	done      time.Time
	rec       serve.JobRecord
}

// serveClient is the closed-loop client: tenant t submits jobs t,
// t+4, t+8, ... one at a time. It counts every request it makes and
// every one that failed. A traced run gives it a span buffer.
type serveClient struct {
	c        *serve.Client
	job      func(idx int) serve.JobSpec
	spans    *spanBuf
	requests int
	errs     int
}

// call makes one request, inside a span when the run is traced.
func (sc *serveClient) call(name string, f func() error) {
	if sc.spans != nil {
		i := sc.spans.begin(name)
		defer sc.spans.end(i)
	}
	sc.requests++
	if f() != nil {
		sc.errs++
	}
}

func (sc *serveClient) submit(idx int) (jobResult, error) {
	r := jobResult{idx: idx, submitted: time.Now()}
	var err error
	sc.call(spSubmit, func() error { r.id, err = sc.c.Submit(sc.job(idx)); return err })
	return r, err
}

func (sc *serveClient) poll(id string) (serve.JobRecord, error) {
	var rec serve.JobRecord
	var err error
	sc.call(spPoll, func() error { rec, err = sc.c.Job(id); return err })
	return rec, err
}

// closedLoop drives the tenants until the deadline has passed and at
// least the first minJobs jobs are terminal, then lets the outstanding
// jobs finish. It returns every job in spec-index order.
func (sc *serveClient) closedLoop(deadline time.Time, minJobs int) ([]jobResult, error) {
	var outstanding [serveTenants]*jobResult
	var done []jobResult
	next := 0
	submit := func(t int) error {
		r, err := sc.submit(next)
		if err != nil {
			return fmt.Errorf("submit job %d: %w", next, err)
		}
		next++
		outstanding[t] = &r
		return nil
	}
	for t := range outstanding {
		if err := submit(t); err != nil {
			return nil, err
		}
	}
	for live := serveTenants; live > 0; {
		time.Sleep(servePoll)
		for t, r := range outstanding {
			if r == nil {
				continue
			}
			rec, err := sc.poll(r.id)
			if err != nil {
				return nil, fmt.Errorf("poll %s: %w", r.id, err)
			}
			if !rec.State.Terminal() {
				continue
			}
			r.done, r.rec = time.Now(), rec
			done = append(done, *r)
			outstanding[t] = nil
			live--
			if next < minJobs || time.Now().Before(deadline) {
				if err := submit(t); err != nil {
					return nil, err
				}
				live++
			}
		}
	}
	sort.Slice(done, func(i, j int) bool { return done[i].idx < done[j].idx })
	return done, nil
}

// jobTicks reads a finished job's compile count from its final
// checkpoint (the daemon keeps it in the job's state directory).
func jobTicks(stateDir, id string) (int, error) {
	snap, err := engine.Load(filepath.Join(serve.JobDir(stateDir, id), serve.CheckpointFile))
	if err != nil {
		return 0, err
	}
	n := 0
	for _, st := range snap.StreamStates {
		n += st.Stats.Ticks
	}
	return n, nil
}

// benchRoot is the directory a run keeps its files in, inside the
// checkout; it is removed when the run ends.
func benchRoot() (string, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(".bench_build", "perfbench-")
}

// serveRun is the timed part of a serve-4t run.
type serveRun struct {
	jobs  []jobResult
	ticks int // over every job
	// journalBytes is the size of every job's flight journal.
	journalBytes int64
	wall         time.Duration
	cpu          time.Duration
	allocs       uint64
	requests     int
	errs         int
}

// runService serves the closed loop on a fresh daemon and stops it.
// Hooks observe the traced run.
func runService(o options, root string, chaos *serve.ChaosHooks, sc *serveClient, minJobs int) (serveRun, error) {
	var run serveRun
	dm, err := startDaemon(root, o.workers, chaos)
	if err != nil {
		return run, err
	}
	sc.c = dm.client

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	cpu0 := cpuTime()
	t0 := time.Now()
	deadline := t0.Add(time.Duration(o.seconds * float64(time.Second)))
	jobs, err := sc.closedLoop(deadline, minJobs)
	run.wall = time.Since(t0)
	run.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&ms)
	run.allocs = ms.TotalAlloc - alloc0
	run.jobs, run.requests, run.errs = jobs, sc.requests, sc.errs
	if err == nil {
		for _, j := range jobs {
			n, terr := jobTicks(dm.dir, j.id)
			if terr != nil {
				err = fmt.Errorf("job %s: %w", j.id, terr)
				break
			}
			run.ticks += n
			fi, serr := os.Stat(filepath.Join(serve.JobDir(dm.dir, j.id), serve.JournalFile))
			if serr != nil {
				err = serr
				break
			}
			run.journalBytes += fi.Size()
		}
	}
	return run, errors.Join(err, dm.stop())
}

// runServeWorkload measures a service workload end to end, or hands a
// traced run to the per-layer ledger.
func runServeWorkload(shape serveShape, o options) (result, error) {
	if o.trace {
		return traceServeWorkload(shape, o)
	}
	root, err := benchRoot()
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(root)
	sc := &serveClient{job: func(idx int) serve.JobSpec { return shape.job(o.seed, idx) }}
	run, err := runService(o, root, nil, sc, shape.counted)
	if err != nil {
		return result{}, err
	}
	// Set-up is building the campaign a job runs: the program's share of
	// admitting one. The daemon's own share is file-system work whose
	// latency drifts several-fold between runs on a shared host; the
	// traced run measures it as serve.submit_ms.
	var setups []float64
	for i := 0; i < serveSetups; i++ {
		runtime.GC() // no collection left over from the loop lands in a build
		t0 := time.Now()
		newCampaign(shape.campaign, shape.job(o.seed, i).Seed, o.workers, nil)
		setups = append(setups, time.Since(t0).Seconds())
	}

	res := result{Correct: true}
	res.Attempted = len(run.jobs) + run.requests
	res.Failed = run.errs
	var counted outcome
	var lat []float64
	edges, crashes := 0, 0
	for _, j := range run.jobs {
		if j.rec.State != serve.Done || j.rec.Done != j.rec.Spec.Steps {
			fmt.Fprintf(os.Stderr, "perfbench: job %s ended %s at %d/%d steps\n",
				j.id, j.rec.State, j.rec.Done, j.rec.Spec.Steps)
			res.Failed++
			res.Correct = false
		}
		if j.idx < shape.counted {
			counted.add(outcome{Edges: j.rec.Edges, Crashes: j.rec.Crashes})
		}
		edges += j.rec.Edges
		crashes += j.rec.Crashes
		lat = append(lat, j.done.Sub(j.submitted).Seconds())
	}
	if err := checkServeReference(o, shape.campaign, run.jobs[0]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		res.Correct = false
	}
	if err := checkExpected(o.workload, o.seed, counted); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		res.Correct = false
	}
	report("setup_s", setups)
	report("ticks_per_s", []float64{float64(run.ticks) / run.wall.Seconds()})
	report("job_latency_s", lat)
	c := run.cpu.Seconds()
	res.Metrics = map[string]metric{
		"setup_s":              {median(setups), "s"},
		"ticks_per_cpu_s":      {float64(run.ticks) / c, "1/s"},
		"edges":                {float64(counted.Edges), "count"},
		"crashes":              {float64(counted.Crashes), "count"},
		"edges_per_cpu_s":      {float64(edges) / c, "1/s"},
		"crashes_per_cpu_s":    {float64(crashes) / c, "1/s"},
		"alloc_bytes_per_tick": {float64(run.allocs) / float64(run.ticks), "B"},
		"peak_rss_mb":          {peakRSSMB(), "MB"},
	}
	return res, nil
}

// checkServeReference reruns a job's campaign outside the daemon, on
// the engine directly, and checks the daemon computed the same steps,
// edges and crashes: a job's results are a pure function of its spec.
func checkServeReference(o options, spec campaignSpec, j jobResult) error {
	s, err := runOne(spec, j.rec.Spec.Seed, o.workers, nil)
	if err != nil {
		return err
	}
	if j.rec.Done != spec.steps || j.rec.Edges != s.out.Edges || j.rec.Crashes != s.out.Crashes {
		return fmt.Errorf("job %s computed %d steps, %d edges, %d crashes; the engine alone computes %d, %d, %d",
			j.id, j.rec.Done, j.rec.Edges, j.rec.Crashes, spec.steps, s.out.Edges, s.out.Crashes)
	}
	return nil
}
