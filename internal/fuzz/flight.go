package fuzz

import (
	"github.com/icsnju/metamut-go/internal/compilersim"
	"github.com/icsnju/metamut-go/internal/muast"
	"github.com/icsnju/metamut-go/internal/obs"
	"github.com/icsnju/metamut-go/internal/sched"
)

// FlightEmitter receives a fuzzer's structured campaign events. It is
// the narrow seam between the fuzzers and the flight recorder
// (internal/flight provides the implementation); defining it here keeps
// fuzz free of a flight dependency. Every emission is a pure function
// of stream state — tick counts and outcomes, never wall clock — so a
// recorded stream replays identically at any worker count.
type FlightEmitter interface {
	// Emit books one event at the stream's current logical tick.
	Emit(tick int, kind string, data map[string]any)
}

// AttachFlight connects a fuzzer to a flight recorder stream:
// quarantine admissions/paroles, scheduler rewards that earned coverage
// or a crash, new unique crashes, and pool admissions all become
// journal events. Call before the first Step; a nil emitter is ignored.
func (s *stream) AttachFlight(em FlightEmitter) {
	if em == nil {
		return
	}
	s.flight = em
	s.Quarantine.OnEvent = func(kind, id string) {
		em.Emit(s.stats.Ticks, kind, map[string]any{"id": id})
	}
	s.Sched.SetObserver(rewardObserver(em, s.stats, s.mutators))
}

// rewardObserver journals scheduler rewards worth replaying: only
// picks that earned new coverage or a crash (zero-reward and fault
// observations would swamp the journal without adding signal).
func rewardObserver(em FlightEmitter, st *Stats, mutators []*muast.Mutator) sched.Observer {
	return func(arm int, r sched.Reward) {
		if (!r.NewCoverage && !r.Crash) || arm < 0 || arm >= len(mutators) {
			return
		}
		data := map[string]any{"m": mutators[arm].Name}
		if r.NewCoverage {
			data["cov"] = true
		}
		if r.Crash {
			data["crash"] = true
		}
		em.Emit(st.Ticks, "reward", data)
	}
}

// emitCrash journals one first-discovery of a unique crash signature.
func emitCrash(em FlightEmitter, st *Stats, cr *compilersim.CrashReport, via string) {
	em.Emit(st.Ticks, "crash", map[string]any{
		"sig":       cr.Signature(),
		"component": cr.Component.String(),
		"class":     cr.Kind.String(),
		"via":       primaryMutator(via),
	})
}

// emitAdmission journals one pool admission (new coverage kept).
func emitAdmission(em FlightEmitter, st *Stats, via string, pool int) {
	em.Emit(st.Ticks, "cov", map[string]any{
		"via":   primaryMutator(via),
		"pool":  pool,
		"edges": st.Coverage.Count(),
	})
}

// RegisterMetrics pre-registers every metric family the fuzzers emit,
// so /metrics and snapshots show the full schema from campaign start
// rather than families popping into existence at first increment.
func RegisterMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.Counter("compile_ticks")
	reg.Counter("mutants_total", "mutator", "outcome")
	reg.Counter("crashes_unique_total", "fuzzer")
	reg.Gauge("coverage_edges", "fuzzer")
	reg.Counter("static_rejects_total", "check")
	reg.Counter("mutator_panics_total", "mutator")
	reg.Counter("mutator_fuel_exhausted_total", "mutator")
}
