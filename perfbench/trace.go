package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"

	"github.com/icsnju/metamut-go/internal/cast"
	"github.com/icsnju/metamut-go/internal/compilersim/cover"
	"github.com/icsnju/metamut-go/internal/engine"
	"github.com/icsnju/metamut-go/internal/fuzz"
	"github.com/icsnju/metamut-go/internal/muast"
	"github.com/icsnju/metamut-go/internal/sched"
)

// Span names: the layer boundaries the traced run wraps.
const (
	spStep    = "fuzz.step"
	spOrder   = "sched.order"
	spPick    = "sched.pick"
	spObserve = "sched.observe"
	spApply   = "mutators.apply"
	spSink    = "cover.sink_merge"
	spSubmit  = "serve.submit"
	spPoll    = "serve.poll"
	spSlice   = "serve.slice"
	// spCapture is the tracer's own work inside a step (copying replay
	// inputs, the rewrite probe); it is subtracted from the step.
	spCapture = "trace.capture"
)

// span is one timed call at a layer boundary: name, start and end in
// nanoseconds since the trace began, and the index of the enclosing
// span in the same buffer (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Buf    int32  `json:"buf"`
}

// spanBuf holds one stream's spans. A stream runs on one goroutine at a
// time and the engine's barriers order its hand-offs, so a buffer needs
// no lock.
type spanBuf struct {
	id    int32
	t0    time.Time
	spans []span
	open  []int32
}

func (b *spanBuf) begin(name string) int32 {
	parent := int32(-1)
	if n := len(b.open); n > 0 {
		parent = b.open[n-1]
	}
	i := int32(len(b.spans))
	b.spans = append(b.spans, span{Name: name, Start: int64(time.Since(b.t0)), End: -1, Parent: parent, Buf: b.id})
	b.open = append(b.open, i)
	return i
}

// end closes span i and any span a panic left open inside it.
func (b *spanBuf) end(i int32) {
	now := int64(time.Since(b.t0))
	for n := len(b.open); n > 0; n = len(b.open) {
		top := b.open[n-1]
		b.open = b.open[:n-1]
		b.spans[top].End = now
		if top == i {
			return
		}
	}
}

// layerTime is the aggregate of one span name: calls, total duration
// and self time (duration minus the part its children cover).
type layerTime struct {
	calls     int
	totalNS   int64
	selfNS    int64
	captureNS int64 // time of spCapture children, excluded from self and total
}

// selfTimes folds spans into per-name totals. A span's children are
// calls it made on its goroutine, so their intervals lie inside its own.
func selfTimes(spans []span) map[string]*layerTime {
	child := make([]int64, len(spans))
	capture := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent < 0 {
			continue
		}
		d := s.End - s.Start
		if s.Name == spCapture {
			capture[s.Parent] += d
		} else {
			child[s.Parent] += d
		}
	}
	out := map[string]*layerTime{}
	for i, s := range spans {
		if s.Name == spCapture {
			continue
		}
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{}
			out[s.Name] = lt
		}
		lt.calls++
		lt.totalNS += s.End - s.Start - capture[i]
		lt.selfNS += s.End - s.Start - capture[i] - child[i]
		lt.captureNS += capture[i]
	}
	return out
}

// mean returns lt's mean duration per call in nanoseconds.
func (lt *layerTime) mean() float64 {
	if lt == nil || lt.calls == 0 {
		return 0
	}
	return float64(lt.totalNS) / float64(lt.calls)
}

// capture is one mutator application kept for the replays: the source
// the manager was built over, whether that build found its parse
// already made, and the mutant the application produced.
type capture struct {
	src    string
	hit    bool
	mutant string
}

// tracer records the traced campaigns: spans per stream, counts at the
// boundaries, and a sample of inputs for the layers it replays.
type tracer struct {
	t0 time.Time
	// every is the capture sampling period in applications.
	every int

	mu      sync.Mutex
	bufs    []*spanBuf
	streams []*streamTrace
	// seenTU remembers recently built translation units: a manager
	// whose TU pointer was seen before found its parse memoized.
	seenTU   map[*cast.TranslationUnit]bool
	seenRing []*cast.TranslationUnit
	builds   int

	epochs     []time.Duration
	lastEpoch  time.Time
	workers    int
	poolGrowth int
}

// seenCap bounds the remembered TUs; it is twice the parse memo's
// capacity, so any TU the memo still holds is remembered.
const seenCap = 2048

func newTracer(every, workers int) *tracer {
	return &tracer{t0: time.Now(), every: every, workers: workers, seenTU: map[*cast.TranslationUnit]bool{}}
}

// streamTrace is one stream's tracing state.
type streamTrace struct {
	tr         *tracer
	buf        *spanBuf
	applies    int
	ok         int
	faults     int
	mgrs       []*muast.Manager // managers seen this step, kept alive so no address is reused
	captures   []capture
	rewrites   []time.Duration
	schedCalls int
	sinkCalls  int
	sinkNew    int
	inner      engine.Worker
}

// newBuf registers a span buffer for one goroutine's calls.
func (tr *tracer) newBuf() *spanBuf {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	b := &spanBuf{id: int32(len(tr.bufs)), t0: tr.t0}
	tr.bufs = append(tr.bufs, b)
	return b
}

func (tr *tracer) newStream() *streamTrace {
	st := &streamTrace{tr: tr, buf: tr.newBuf()}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.streams = append(tr.streams, st)
	return st
}

// noteBuild classifies a manager build as memoized or parsed.
func (tr *tracer) noteBuild(tu *cast.TranslationUnit) bool {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.builds++
	if tr.seenTU[tu] {
		return true
	}
	tr.seenTU[tu] = true
	tr.seenRing = append(tr.seenRing, tu)
	if len(tr.seenRing) > seenCap {
		delete(tr.seenTU, tr.seenRing[0])
		tr.seenRing = tr.seenRing[1:]
	}
	return false
}

// hooks returns the wrappers for one traced campaign.
func (tr *tracer) hooks() *hooks {
	tr.lastEpoch = time.Now()
	streams := map[int]*streamTrace{}
	get := func(stream int) *streamTrace {
		if st := streams[stream]; st != nil {
			return st
		}
		st := tr.newStream()
		streams[stream] = st
		return st
	}
	return &hooks{
		mutators: func(stream int, ms []*muast.Mutator) []*muast.Mutator {
			return get(stream).wrapMutators(ms)
		},
		sched: func(stream int, s sched.Scheduler) sched.Scheduler {
			return &tracedSched{Scheduler: s, st: get(stream)}
		},
		sink: func(stream int, s fuzz.CoverageSink) fuzz.CoverageSink {
			return &tracedSink{inner: s, st: get(stream)}
		},
		worker: func(stream int, w engine.Worker) engine.Worker {
			st := get(stream)
			st.inner = w
			return &tracedWorker{Worker: w, st: st}
		},
		onEpoch: func(done, total int) {
			now := time.Now()
			tr.epochs = append(tr.epochs, now.Sub(tr.lastEpoch))
			tr.lastEpoch = now
		},
	}
}

// tracedWorker times engine.Worker.Step. It hides the optional worker
// interfaces (scheduler state, pool size) from the engine, which asks
// for them only to checkpoint or journal — neither of which a traced
// campaign does.
type tracedWorker struct {
	engine.Worker
	st *streamTrace
}

func (w *tracedWorker) Step() {
	i := w.st.buf.begin(spStep)
	defer func() {
		w.st.buf.end(i)
		clear(w.st.mgrs)
		w.st.mgrs = w.st.mgrs[:0]
	}()
	w.Worker.Step()
}

// tracedSched times the scheduler calls. Embedding keeps every other
// method of the wrapped scheduler.
type tracedSched struct {
	sched.Scheduler
	st *streamTrace
}

func (s *tracedSched) Order(rng *rand.Rand, allowed func(int) bool) []int {
	i := s.st.buf.begin(spOrder)
	defer s.st.buf.end(i)
	s.st.schedCalls++
	return s.Scheduler.Order(rng, allowed)
}

func (s *tracedSched) Pick(rng *rand.Rand, allowed func(int) bool) int {
	i := s.st.buf.begin(spPick)
	defer s.st.buf.end(i)
	s.st.schedCalls++
	return s.Scheduler.Pick(rng, allowed)
}

func (s *tracedSched) Observe(arm int, r sched.Reward) {
	i := s.st.buf.begin(spObserve)
	defer s.st.buf.end(i)
	s.st.schedCalls++
	s.Scheduler.Observe(arm, r)
}

// tracedSink times the engine-supplied coverage sink.
type tracedSink struct {
	inner fuzz.CoverageSink
	st    *streamTrace
}

func (s *tracedSink) MergeIfNew(m *cover.Map) bool {
	i := s.st.buf.begin(spSink)
	isNew := s.inner.MergeIfNew(m)
	s.st.buf.end(i)
	s.st.sinkCalls++
	if isNew {
		s.st.sinkNew++
	}
	return isNew
}

// wrapMutators returns copies of ms whose Fn is timed and sampled.
func (st *streamTrace) wrapMutators(ms []*muast.Mutator) []*muast.Mutator {
	out := make([]*muast.Mutator, len(ms))
	for i, mu := range ms {
		info := mu.Info
		fn := info.Fn
		info.Fn = func(m *muast.Manager) bool { return st.apply(fn, m) }
		out[i] = &muast.Mutator{Info: info}
	}
	return out
}

// apply runs one mutator application inside its span, then notes the
// manager it ran on and, every tr.every applications, captures its
// input and output for the replays.
func (st *streamTrace) apply(fn muast.MutateFunc, m *muast.Manager) bool {
	st.applies++
	newMgr := true
	for _, seen := range st.mgrs {
		if seen == m {
			newMgr = false
			break
		}
	}
	i := st.buf.begin(spApply)
	returned := false
	defer func() {
		// A panicking mutator unwinds to the fuzzer's supervisor; its
		// span still closes and the fault is counted.
		if !returned {
			st.buf.end(i)
			st.faults++
		}
	}()
	ok := fn(m)
	returned = true
	st.buf.end(i)

	c := st.buf.begin(spCapture)
	hit := false
	if newMgr {
		st.mgrs = append(st.mgrs, m)
		hit = st.tr.noteBuild(m.TU)
	}
	if ok && m.Changed() {
		st.ok++
		t0 := time.Now()
		mutant := m.Apply()
		st.rewrites = append(st.rewrites, time.Since(t0))
		if st.ok%st.tr.every == 0 {
			st.captures = append(st.captures, capture{src: m.TU.Source, hit: hit, mutant: mutant})
		}
	}
	st.buf.end(c)
	return ok
}

// spans gathers every stream's spans into one slice, rebasing each
// parent index onto it.
func (tr *tracer) spans() []span {
	var all []span
	for _, b := range tr.bufs {
		base := int32(len(all))
		for _, s := range b.spans {
			if s.Parent >= 0 {
				s.Parent += base
			}
			all = append(all, s)
		}
	}
	return all
}

// writeSpans writes every span as one JSON line; a span's parent is
// its line index (from 0) in the file.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
