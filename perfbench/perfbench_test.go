package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"

	"github.com/icsnju/metamut-go/internal/serve"
)

// The benchmark reads and writes paths relative to the repository root,
// where it runs.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); !near(got, c.want) {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}

// TestQuartilesMatchPython pins the quartiles to the values Python's
// statistics.quantiles(xs, n=4) gives, which is how a reader checks a
// run's spread.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{5, 1.5, 7.25, 3, 9.5, 2}, 1.875, 7.8125},
	} {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	for p, want := range map[float64]float64{50: 5, 90: 9, 100: 10, 1: 1} {
		if got := percentile(xs, p); got != want {
			t.Errorf("p%v = %v, want %v", p, got, want)
		}
	}
	if n := beyond(xs, 90); n != 1 {
		t.Errorf("beyond p90 = %d, want 1", n)
	}
}

func TestSpanBufNestsAndClosesAfterPanic(t *testing.T) {
	b := &spanBuf{}
	step := b.begin(spStep)
	apply := b.begin(spApply)
	if b.spans[apply].Parent != step {
		t.Fatalf("apply's parent = %d, want %d", b.spans[apply].Parent, step)
	}
	inner := b.begin(spObserve)
	// A panic unwinds past inner and apply: ending the step closes both.
	b.end(step)
	if len(b.open) != 0 {
		t.Fatalf("%d spans left open", len(b.open))
	}
	for _, i := range []int32{step, apply, inner} {
		if b.spans[i].End < b.spans[i].Start {
			t.Errorf("span %d not closed", i)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: spStep, Start: 0, End: 100, Parent: -1},
		{Name: spApply, Start: 10, End: 40, Parent: 0},
		{Name: spCapture, Start: 40, End: 50, Parent: 0},
		{Name: spObserve, Start: 60, End: 70, Parent: 0},
		{Name: spStep, Start: 200, End: 220, Parent: -1},
	}
	lt := selfTimes(spans)
	step := lt[spStep]
	// The capture is the tracer's own time: out of both total and self.
	if step.calls != 2 || step.totalNS != 110 || step.selfNS != 70 || step.captureNS != 10 {
		t.Errorf("step = %+v, want 2 calls, 110 total, 70 self, 10 capture", *step)
	}
	if a := lt[spApply]; a.selfNS != 30 || a.mean() != 30 {
		t.Errorf("apply = %+v, want 30 self", *a)
	}
	if _, ok := lt[spCapture]; ok {
		t.Error("capture spans must not be a layer")
	}
}

func TestTracerRebasesParents(t *testing.T) {
	tr := newTracer(1, 1)
	a, b := tr.newStream(), tr.newStream()
	a.buf.end(a.buf.begin(spStep))
	i := b.buf.begin(spStep)
	b.buf.end(b.buf.begin(spApply))
	b.buf.end(i)
	spans := tr.spans()
	if len(spans) != 3 || spans[2].Parent != 1 {
		t.Fatalf("spans = %+v, want the apply's parent rebased to 1", spans)
	}
}

func TestReconcile(t *testing.T) {
	c := stepCost{
		wrappedNS: 100,
		builds:    2, buildNS: 50,
		rewrites: 1, rewriteNS: 10,
		splices: 0.5, spliceNS: 40,
		filtered: 1.5, rejectNS: 20,
		ticks: 1, compileNS: 200, mergeNS: 10,
	}
	// 100 + 100 + 10 + 20 + 30 + 210 = 470
	if got := c.reconcile(470); !near(got, 1) {
		t.Errorf("reconcile(470) = %v, want 1", got)
	}
	if got := c.reconcile(940); !near(got, 0.5) {
		t.Errorf("reconcile(940) = %v, want 0.5", got)
	}
	if got := c.reconcile(0); got != 0 {
		t.Errorf("reconcile(0) = %v, want 0", got)
	}
}

// benchmarkNames returns the metric names BENCHMARK.json declares.
func benchmarkNames(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, m := range b.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range b.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

// checkMetrics fails unless res reports exactly the named metrics, each
// a finite number.
func checkMetrics(t *testing.T, res result, names []string) {
	t.Helper()
	var got []string
	for k, m := range res.Metrics {
		got = append(got, k)
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s = %v", k, m.Value)
		}
	}
	sort.Strings(got)
	want := append([]string(nil), names...)
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("metrics %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("metrics %v, want %v", got, want)
		}
	}
}

// tiny shapes keep the smoke runs to a few hundred steps.
var (
	tinyMuCFuzz = campaignSpec{compiler: "gcc", version: 14, set: "all", streams: 2, steps: 64, counted: 2}
	tinyMacro   = campaignSpec{compiler: "clang", version: 18, macro: true, set: "s", streams: 4, steps: 64, counted: 2}
	tinyServe   = serveShape{
		job: func(seed int64, idx int) serve.JobSpec {
			s := serveJob(seed, idx)
			s.Streams, s.Steps = 4, 64
			return s
		},
		campaign: campaignSpec{compiler: "gcc", version: 14, macro: true, set: "s", streams: 4, steps: 64},
		counted:  4,
	}
)

func smokeOptions(workload string) options {
	return options{workload: workload, seed: 7, seconds: 0, workers: 2}
}

func TestCampaignWorkloadsSmoke(t *testing.T) {
	endToEnd, _ := benchmarkNames(t)
	for name, spec := range map[string]campaignSpec{"tiny-mucfuzz": tinyMuCFuzz, "tiny-macro": tinyMacro} {
		res, err := runCampaignWorkload(spec, smokeOptions(name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < spec.counted*spec.steps {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", name, res.Correct, res.Attempted, res.Failed)
		}
		checkMetrics(t, res, endToEnd)
	}
}

func TestServeWorkloadSmoke(t *testing.T) {
	endToEnd, _ := benchmarkNames(t)
	res, err := runServeWorkload(tinyServe, smokeOptions("tiny-serve"))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Errorf("correct=%v failed=%d", res.Correct, res.Failed)
	}
	checkMetrics(t, res, endToEnd)
}

func TestTracedSmoke(t *testing.T) {
	_, perLayer := benchmarkNames(t)
	o := smokeOptions("tiny-traced")
	o.trace = true
	for _, res := range []func() (result, error){
		func() (result, error) { return runCampaignWorkload(tinyMuCFuzz, o) },
		func() (result, error) { return runServeWorkload(tinyServe, o) },
	} {
		r, err := res()
		if err != nil {
			t.Fatal(err)
		}
		if !r.Correct || r.Failed != 0 {
			t.Errorf("correct=%v failed=%d", r.Correct, r.Failed)
		}
		checkMetrics(t, r, perLayer)
	}
}

func TestCheckExpected(t *testing.T) {
	data, err := os.ReadFile(expectedFile)
	if err != nil {
		t.Fatal(err)
	}
	var recs struct {
		Expected []expectation `json:"expected"`
	}
	if err := json.Unmarshal(data, &recs); err != nil {
		t.Fatal(err)
	}
	for _, e := range recs.Expected {
		want := outcome{Ticks: e.Ticks, Edges: e.Edges, Crashes: e.Crashes, StaticRejects: e.StaticRejects}
		if err := checkExpected(e.Workload, e.Seed, want); err != nil {
			t.Errorf("recorded counts rejected: %v", err)
		}
		want.Crashes++
		if err := checkExpected(e.Workload, e.Seed, want); err == nil {
			t.Errorf("%s seed %d: a changed count passed", e.Workload, e.Seed)
		}
	}
	if err := checkExpected("no-such-workload", 1, outcome{}); err != nil {
		t.Errorf("an unrecorded seed must pass: %v", err)
	}
}
