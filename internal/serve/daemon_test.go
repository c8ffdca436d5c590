package serve

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/icsnju/metamut-go/internal/compilersim"
	"github.com/icsnju/metamut-go/internal/engine"
	"github.com/icsnju/metamut-go/internal/fuzz"
	"github.com/icsnju/metamut-go/internal/muast"
	"github.com/icsnju/metamut-go/internal/sched"
	"github.com/icsnju/metamut-go/internal/seeds"
)

// testSpec is a small but real campaign: 2 streams × 8 steps/epoch, so
// a job spans several epochs and several preemption slices.
func testSpec(tenant string, seed int64, steps int) JobSpec {
	return JobSpec{
		SpecVersion: JobSpecVersion, Tenant: tenant,
		Compiler: "gcc", MutatorSet: "s", Sched: "adaptive",
		Seed: seed, SeedCount: 24, Steps: steps,
		Streams: 2, StepsPerEpoch: 8,
	}
}

func newTestDaemon(t *testing.T, dir string, fleet int) *Daemon {
	t.Helper()
	d, err := New(Config{StateDir: dir, Fleet: fleet, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// waitJobs polls until every id is terminal (the daemon loop must be
// running) and returns the final records.
func waitJobs(t *testing.T, d *Daemon, ids []string) map[string]JobRecord {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	out := map[string]JobRecord{}
	for len(out) < len(ids) {
		if time.Now().After(deadline) {
			t.Fatalf("jobs %v did not finish; have %v", ids, out)
		}
		for _, id := range ids {
			if _, done := out[id]; done {
				continue
			}
			rec, ok := d.Job(id)
			if !ok {
				t.Fatalf("job %s vanished", id)
			}
			if rec.State.Terminal() {
				out[id] = rec
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return out
}

// jobArtifacts is everything a tenant can observe about a finished job:
// the durable record's results, the flight journal bytes, the triage
// report bytes.
type jobArtifacts struct {
	Done, Epochs, Edges, Crashes int
	Journal                      string
	Triage                       string
}

func artifactsFor(t *testing.T, stateDir string, rec JobRecord) jobArtifacts {
	t.Helper()
	dir := JobDir(stateDir, rec.ID)
	journal, err := os.ReadFile(filepath.Join(dir, JournalFile))
	if err != nil {
		t.Fatalf("job %s journal: %v", rec.ID, err)
	}
	triage, err := os.ReadFile(filepath.Join(dir, TriageFile))
	if err != nil {
		t.Fatalf("job %s triage: %v", rec.ID, err)
	}
	return jobArtifacts{
		Done: rec.Done, Epochs: rec.Epochs, Edges: rec.Edges, Crashes: rec.Crashes,
		Journal: string(journal), Triage: string(triage),
	}
}

// submitAll submits the canonical 4-jobs-over-3-tenants workload.
func submitAll(t *testing.T, d *Daemon) []string {
	t.Helper()
	specs := []JobSpec{
		testSpec("alpha", 11, 96),
		testSpec("beta", 22, 128),
		testSpec("alpha", 33, 64),
		testSpec("gamma", 44, 96),
	}
	var ids []string
	for _, spec := range specs {
		id, err := d.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	return ids
}

// runUninterrupted completes the workload on one daemon and returns
// each job's artifacts.
func runUninterrupted(t *testing.T, fleet int) map[string]jobArtifacts {
	t.Helper()
	dir := t.TempDir()
	d := newTestDaemon(t, dir, fleet)
	ids := submitAll(t, d)
	go d.Run()
	recs := waitJobs(t, d, ids)
	d.Stop()
	out := map[string]jobArtifacts{}
	for id, rec := range recs {
		if rec.State != Done {
			t.Fatalf("job %s ended %s (%s), want DONE", id, rec.State, rec.Error)
		}
		out[id] = artifactsFor(t, dir, rec)
	}
	return out
}

// TestDaemonKillRestartByteIdentical is the service-level extension of
// TestCheckpointResumeEqualsUninterrupted: submit N jobs across 3
// tenants, kill the daemon mid-campaign (no graceful bookkeeping),
// restart it over the same state dir, and require every job's results
// — counters, flight journal bytes, triage bytes — to equal an
// uninterrupted daemon's, at a different fleet size for good measure.
func TestDaemonKillRestartByteIdentical(t *testing.T) {
	want := runUninterrupted(t, 1)

	dir := t.TempDir()
	d1 := newTestDaemon(t, dir, 2)
	ids := submitAll(t, d1)
	go d1.Run()
	// Let the fleet make real progress before the kill so resumed state
	// is non-trivial.
	deadline := time.Now().Add(time.Minute)
	for {
		rec, _ := d1.Job(ids[0])
		if rec.Done > 0 && rec.Done < rec.Spec.Steps {
			break
		}
		if rec.State.Terminal() || time.Now().After(deadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	d1.Kill()

	d2 := newTestDaemon(t, dir, 4)
	go d2.Run()
	recs := waitJobs(t, d2, ids)
	d2.Stop()

	for id, rec := range recs {
		if rec.State != Done {
			t.Fatalf("restarted job %s ended %s (%s), want DONE", id, rec.State, rec.Error)
		}
		got := artifactsFor(t, dir, rec)
		ref := want[id]
		if got.Done != ref.Done || got.Epochs != ref.Epochs ||
			got.Edges != ref.Edges || got.Crashes != ref.Crashes {
			t.Errorf("job %s counters diverged after kill+restart:\ngot  %+v\nwant %+v",
				id, got, ref)
		}
		if got.Journal != ref.Journal {
			t.Errorf("job %s flight journal not byte-identical after kill+restart (%d vs %d bytes)",
				id, len(got.Journal), len(ref.Journal))
		}
		if got.Triage != ref.Triage {
			t.Errorf("job %s triage report diverged after kill+restart", id)
		}
	}
}

// TestDaemonFleetSizeInvariant runs the same workload uninterrupted at
// two fleet sizes: scheduling is throughput-only, never results.
func TestDaemonFleetSizeInvariant(t *testing.T) {
	a := runUninterrupted(t, 1)
	b := runUninterrupted(t, 4)
	for id, ra := range a {
		rb := b[id]
		if ra.Journal != rb.Journal || ra.Triage != rb.Triage ||
			ra.Done != rb.Done || ra.Edges != rb.Edges || ra.Crashes != rb.Crashes {
			t.Errorf("job %s results depend on fleet size", id)
		}
	}
}

// TestDaemonJobMatchesEngine pins the daemon's campaign to the engine:
// one job run by the daemon (with its telemetry, flight journal,
// checkpoints and preemption slices) must report the steps, edges and
// crashes that the same macro-fuzzer campaign computes when built
// directly on engine.New.
func TestDaemonJobMatchesEngine(t *testing.T) {
	spec := testSpec("alpha", 11, 96)
	dir := t.TempDir()
	d := newTestDaemon(t, dir, 2)
	id, err := d.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	go d.Run()
	rec := waitJobs(t, d, []string{id})[id]
	d.Stop()
	if rec.State != Done {
		t.Fatalf("job %s ended %s (%s), want DONE", id, rec.State, rec.Error)
	}

	comp := compilersim.New("gcc", 14)
	mutators := muast.BySet(muast.Supervised)
	pool := seeds.Generate(spec.SeedCount, spec.Seed)
	mcfg := fuzz.DefaultMacroConfig()
	mcfg.StaticFilter = !spec.NoStatic
	c := engine.New(engine.Config{
		Streams: spec.Streams, StepsPerEpoch: spec.StepsPerEpoch,
		TotalSteps: spec.Steps, Seed: spec.Seed,
	}, func(stream int, rng *rand.Rand, cov fuzz.CoverageSink) engine.Worker {
		w := fuzz.NewMacroFuzzer("ref", comp, mutators, pool, rng, cov, mcfg)
		s, err := sched.New(spec.Sched, len(mutators))
		if err != nil {
			t.Fatal(err)
		}
		w.Sched = s
		return w
	})
	if err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := c.MergedStats()
	if rec.Done != c.Done() || rec.Edges != st.Coverage.Count() || rec.Crashes != len(st.Crashes) {
		t.Errorf("daemon job: %d steps, %d edges, %d crashes; engine.New: %d, %d, %d",
			rec.Done, rec.Edges, rec.Crashes, c.Done(), st.Coverage.Count(), len(st.Crashes))
	}
	if rec.Edges == 0 {
		t.Error("daemon job covered no edges")
	}
}

// TestDaemonQuotaRejections exercises both quota axes and checks the
// structured error codes a client dispatches on.
func TestDaemonQuotaRejections(t *testing.T) {
	dir := t.TempDir()
	d, err := New(Config{
		StateDir: dir, Fleet: 1,
		Quotas: Quotas{MaxActiveJobs: 1, MaxTotalSteps: 300},
		Logf:   t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Kill()

	if _, err := d.Submit(testSpec("alpha", 1, 96)); err != nil {
		t.Fatal(err)
	}
	_, err = d.Submit(testSpec("alpha", 2, 96))
	var se *Error
	if !errors.As(err, &se) || se.Code != CodeQuotaConcurrency || se.Status != 429 {
		t.Fatalf("second concurrent job: err = %v, want %s/429", err, CodeQuotaConcurrency)
	}
	// Another tenant is unaffected by alpha's quotas but has its own
	// lifetime step budget.
	_, err = d.Submit(testSpec("beta", 3, 301))
	if !errors.As(err, &se) || se.Code != CodeQuotaSteps || se.Status != 429 {
		t.Fatalf("over-budget job: err = %v, want %s/429", err, CodeQuotaSteps)
	}
	if _, err := d.Submit(testSpec("beta", 3, 296)); err != nil {
		t.Fatal(err)
	}
	// Invalid specs are a 400, not a quota error.
	bad := testSpec("gamma", 5, 16)
	bad.Compiler = "tcc"
	_, err = d.Submit(bad)
	if !errors.As(err, &se) || se.Code != CodeBadSpec || se.Status != 400 {
		t.Fatalf("bad spec: err = %v, want %s/400", err, CodeBadSpec)
	}
}

// TestDaemonCancelMidCampaign cancels a running job and requires a
// CANCELLED terminal state, partial progress, and a triage report.
func TestDaemonCancelMidCampaign(t *testing.T) {
	dir := t.TempDir()
	d := newTestDaemon(t, dir, 1)
	id, err := d.Submit(testSpec("alpha", 7, 1<<20))
	if err != nil {
		t.Fatal(err)
	}
	go d.Run()
	deadline := time.Now().Add(time.Minute)
	for {
		rec, _ := d.Job(id)
		if rec.Done > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never progressed")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := d.Cancel(id); err != nil {
		t.Fatal(err)
	}
	rec := waitJobs(t, d, []string{id})[id]
	d.Stop()
	if rec.State != Cancelled {
		t.Fatalf("state = %s, want CANCELLED", rec.State)
	}
	if rec.Done <= 0 || rec.Done >= rec.Spec.Steps {
		t.Errorf("cancelled with done = %d of %d, want partial progress", rec.Done, rec.Spec.Steps)
	}
	if _, err := os.Stat(filepath.Join(JobDir(dir, id), TriageFile)); err != nil {
		t.Errorf("cancelled job has no triage report: %v", err)
	}
	// Cancelling a terminal job is a conflict.
	var se *Error
	if err := d.Cancel(id); !errors.As(err, &se) || se.Code != CodeConflict {
		t.Errorf("cancel of terminal job: err = %v, want %s", err, CodeConflict)
	}
}

// TestDaemonStateDirSingleWriter: a second daemon over the same state
// dir must fail fast with ErrLocked, not corrupt the first one's jobs.
func TestDaemonStateDirSingleWriter(t *testing.T) {
	dir := t.TempDir()
	d1 := newTestDaemon(t, dir, 1)
	defer d1.Kill()
	_, err := New(Config{StateDir: dir, Fleet: 1, Logf: t.Logf})
	if !errors.Is(err, engine.ErrLocked) {
		t.Fatalf("second daemon: err = %v, want ErrLocked", err)
	}
}

// TestDaemonGracefulStopParksAndResumes: Stop releases locks and saves
// the ledger; a new daemon resumes the parked jobs to completion with
// results identical to an uninterrupted run.
func TestDaemonGracefulStopParksAndResumes(t *testing.T) {
	want := runUninterrupted(t, 2)

	dir := t.TempDir()
	d1 := newTestDaemon(t, dir, 2)
	ids := submitAll(t, d1)
	go d1.Run()
	deadline := time.Now().Add(time.Minute)
	for {
		rec, _ := d1.Job(ids[1])
		if rec.Done > 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	d1.Stop()

	d2 := newTestDaemon(t, dir, 1)
	go d2.Run()
	recs := waitJobs(t, d2, ids)
	d2.Stop()
	for id, rec := range recs {
		if rec.State != Done {
			t.Fatalf("job %s ended %s, want DONE", id, rec.State)
		}
		if got := artifactsFor(t, dir, rec); got != want[id] {
			t.Errorf("job %s diverged across graceful stop+resume", id)
		}
	}
}
