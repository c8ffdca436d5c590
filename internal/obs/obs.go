// Package obs is the campaign-wide observability layer: a dependency-
// free, concurrency-safe metrics registry (counters, gauges, fixed-
// bucket histograms, each organized into labeled families), lightweight
// span tracing with an optional JSONL journal, and snapshot/export
// plumbing (JSON, expvar, and a pprof debug server).
//
// The paper's evaluation is built entirely on measurement — per-stage
// LLM cost (Tables 1-3), compilable ratio (Table 5), coverage growth
// (Figure 7), crash timelines (Figures 8-9) — and this package turns
// those one-shot post-hoc numbers into live telemetry a long campaign
// can stream. The conventional families are:
//
//	compile_ticks                       compiler invocations (the virtual clock)
//	mutants_total{mutator,outcome}      per-mutator compile outcomes
//	coverage_edges{fuzzer}              cumulative edge count per fuzzer
//	crashes_unique_total{fuzzer}        unique crash discoveries
//	compile_results_total{compiler,outcome}
//	compiler_crashes_total{compiler,component}
//	llm_tokens{stage}                   token spend per pipeline stage
//	llm_calls_total{method,result}      simulated API calls and throttling
//	llm_faults_total{class}             injected implementation defects
//	invocations_total{outcome}          MetaMut invocation outcomes
//	refinement_fixes_total{goal}        refinement-loop repairs (Table 1)
//	span_seconds{span}                  stage durations from span tracing
//
// The parallel campaign engine (internal/engine) adds its own
// families: engine_epoch_seconds and engine_sync_seconds (epoch and
// barrier-merge cost histograms), engine_queue_depth and
// engine_steps_done (live progress gauges), engine_epochs_total,
// engine_checkpoints_total and engine_checkpoint_bytes (snapshot
// accounting), engine_checkpoint_failures_total and
// engine_checkpoint_fallbacks_total (write faults and .prev recoveries),
// engine_task_retries_total and engine_streams_poisoned_total (stream
// supervision), and triage_reduced_total (witnesses minimized during
// crash triage).
//
// The resilience layer (internal/resil) adds the fault-tolerance
// families: resil_retries_total{stage} (bounded backoff retries),
// resil_breaker_state, resil_breaker_trips_total and
// resil_deferred_total (circuit breaker over the LLM client),
// resil_quarantines_total{id} and resil_paroles_total{id} (mutator
// quarantine), plus mutator_panics_total{mutator},
// mutator_fuel_exhausted_total{mutator} and mutdsl_fuel_exhausted_total
// (supervised mutator execution and interpreter fuel watchdogs).
//
// The adaptive scheduler (internal/sched) adds
// sched_picks_total{mutator} (arm selections) and
// sched_weight{mutator} (posterior mean reward in milli-units).
//
// The complete catalogue, with units and emitting packages, lives in
// docs/METRICS.md; a test diffs that file against a fully-exercised
// live registry so it cannot drift.
//
// Everything is nil-tolerant: methods on a nil *Registry (and on the
// nil handles it returns) are no-ops, so instrumented code pays almost
// nothing when observability is off. Handles (*Counter, *Gauge,
// *Histogram) should be resolved once and reused on hot paths.
package obs

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// labelSep joins label values into a family-map key; it cannot occur in
// reasonable label values (ASCII unit separator).
const labelSep = "\x1f"

// Counter is a monotonically increasing metric. All methods are safe
// for concurrent use and safe on a nil receiver.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down (e.g. coverage edges, pool
// size). Safe for concurrent use and on a nil receiver.
type Gauge struct {
	v atomic.Int64
}

// Set stores the gauge value.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add adjusts the gauge by n (negative allowed).
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// vec is the shared machinery of a labeled family: label names plus a
// lock-guarded map from joined label values to the metric handle.
type vec[T any] struct {
	name   string
	labels []string
	mu     sync.RWMutex
	m      map[string]*T
}

// with returns the handle for the given label values, creating it on
// first use. The read-lock fast path keeps resolved-series lookups
// cheap under the macro fuzzer's parallel workers.
func (v *vec[T]) with(values []string) *T {
	key := strings.Join(values, labelSep)
	v.mu.RLock()
	h, ok := v.m[key]
	v.mu.RUnlock()
	if ok {
		return h
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if h, ok = v.m[key]; ok {
		return h
	}
	h = new(T)
	v.m[key] = h
	return h
}

// series returns a deterministic (sorted by key) view of the family.
func (v *vec[T]) series() ([]string, []*T) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	keys := make([]string, 0, len(v.m))
	for k := range v.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	handles := make([]*T, len(keys))
	for i, k := range keys {
		handles[i] = v.m[k]
	}
	return keys, handles
}

// CounterVec is a labeled family of counters, e.g.
// mutants_total{mutator,outcome}.
type CounterVec struct {
	vec[Counter]
}

// With returns the counter for the given label values (nil on a nil
// family, which is itself a no-op handle).
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	return v.with(values)
}

// GaugeVec is a labeled family of gauges.
type GaugeVec struct {
	vec[Gauge]
}

// With returns the gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	if v == nil {
		return nil
	}
	return v.with(values)
}

// Registry holds the metric families of one campaign plus the optional
// trace journal. The zero value is not usable; use NewRegistry. A nil
// *Registry is a valid "observability off" instance: every method
// no-ops.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*CounterVec
	gauges   map[string]*GaugeVec
	hists    map[string]*HistogramVec
	journal  atomic.Pointer[Journal]
	start    time.Time
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*CounterVec{},
		gauges:   map[string]*GaugeVec{},
		hists:    map[string]*HistogramVec{},
		start:    time.Now(),
	}
}

// Counter returns (creating if needed) the counter family with the
// given name and label names. The first registration fixes the label
// set; later calls return the existing family regardless of labels.
func (r *Registry) Counter(name string, labels ...string) *CounterVec {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	f, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return f
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok = r.counters[name]; ok {
		return f
	}
	f = &CounterVec{vec[Counter]{name: name, labels: labels, m: map[string]*Counter{}}}
	r.counters[name] = f
	return f
}

// Gauge returns (creating if needed) the gauge family.
func (r *Registry) Gauge(name string, labels ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	f, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return f
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok = r.gauges[name]; ok {
		return f
	}
	f = &GaugeVec{vec[Gauge]{name: name, labels: labels, m: map[string]*Gauge{}}}
	r.gauges[name] = f
	return f
}

// Histogram returns (creating if needed) the histogram family. The
// bucket upper bounds are fixed at first registration; pass nil to use
// DefaultDurationBuckets.
func (r *Registry) Histogram(name string, buckets []float64, labels ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	f, ok := r.hists[name]
	r.mu.RUnlock()
	if ok {
		return f
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok = r.hists[name]; ok {
		return f
	}
	if buckets == nil {
		buckets = DefaultDurationBuckets
	}
	f = &HistogramVec{
		vec:     vec[Histogram]{name: name, labels: labels, m: map[string]*Histogram{}},
		buckets: append([]float64(nil), buckets...),
	}
	r.hists[name] = f
	return f
}

// SetJournal attaches (or, with nil, detaches) the structured-event
// journal spans and instrumented code append to.
func (r *Registry) SetJournal(j *Journal) {
	if r != nil {
		r.journal.Store(j)
	}
}

// Journal returns the attached journal, or nil.
func (r *Registry) Journal() *Journal {
	if r == nil {
		return nil
	}
	return r.journal.Load()
}

// Uptime returns the time since the registry was created.
func (r *Registry) Uptime() time.Duration {
	if r == nil {
		return 0
	}
	return time.Since(r.start)
}
