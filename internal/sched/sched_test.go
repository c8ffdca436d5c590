package sched

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"

	"github.com/icsnju/metamut-go/internal/obs"
)

// drive runs n ticks of a synthetic campaign against s: each tick ranks
// the arms, "tries" the front arm, and feeds back a deterministic
// reward profile (arm 0 yields coverage, arm 1 crashes rarely, the rest
// mostly reject). Returns the pick sequence.
func drive(s Scheduler, rng *rand.Rand, n int) []int {
	seq := make([]int, 0, n)
	for t := 0; t < n; t++ {
		order := s.Order(rng, nil)
		arm := order[0]
		seq = append(seq, arm)
		r := Reward{}
		switch {
		case arm == 0:
			r.NewCoverage = t%3 == 0
		case arm == 1:
			r.Crash = t%17 == 0
		default:
			r.CompileError = t%2 == 0
		}
		s.Observe(arm, r)
	}
	return seq
}

func TestUniformMatchesLegacyDraws(t *testing.T) {
	// The uniform policy must consume the stream RNG exactly like the
	// pre-scheduler loop: one Perm per Order, one Intn per Pick.
	u := NewUniform(7)
	r1 := rand.New(rand.NewSource(42))
	r2 := rand.New(rand.NewSource(42))
	for i := 0; i < 50; i++ {
		got := u.Order(r1, nil)
		want := r2.Perm(7)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Order draw %d: got %v want %v", i, got, want)
		}
	}
	for i := 0; i < 50; i++ {
		if got, want := u.Pick(r1, nil), r2.Intn(7); got != want {
			t.Fatalf("Pick draw %d: got %d want %d", i, got, want)
		}
	}
}

func TestAdaptiveDeterministic(t *testing.T) {
	run := func() []int {
		a := NewAdaptive(6, DefaultConfig())
		return drive(a, rand.New(rand.NewSource(7)), 2000)
	}
	if !reflect.DeepEqual(run(), run()) {
		t.Fatal("same seed produced different adaptive schedules")
	}
}

func TestAdaptivePrefersYieldingArm(t *testing.T) {
	a := NewAdaptive(6, DefaultConfig())
	seq := drive(a, rand.New(rand.NewSource(3)), 4000)
	counts := make([]int, 6)
	for _, arm := range seq {
		counts[arm]++
	}
	// Arm 0 (steady coverage) must dominate the rejecting arms 2..5.
	for i := 2; i < 6; i++ {
		if counts[0] <= counts[i] {
			t.Fatalf("coverage arm picked %d times, rejecting arm %d picked %d",
				counts[0], i, counts[i])
		}
	}
}

func TestEpsilonFloorPreventsStarvation(t *testing.T) {
	// Even with one overwhelmingly rewarding arm, the epsilon floor must
	// bring every allowed arm to the front of the ranking within a
	// bounded number of ticks.
	const arms, ticks = 8, 4000
	a := NewAdaptive(arms, DefaultConfig())
	rng := rand.New(rand.NewSource(11))
	fronted := map[int]int{} // arm -> first tick at order[0]
	for tick := 0; tick < ticks; tick++ {
		order := a.Order(rng, nil)
		if _, seen := fronted[order[0]]; !seen {
			fronted[order[0]] = tick
		}
		// Arm 0 always wins big; everything else always loses.
		r := Reward{CompileError: true}
		if order[0] == 0 {
			r = Reward{NewCoverage: true, Crash: true}
		}
		a.Observe(order[0], r)
	}
	for arm := 0; arm < arms; arm++ {
		if _, ok := fronted[arm]; !ok {
			t.Fatalf("arm %d never reached the front in %d ticks (epsilon floor broken)", arm, ticks)
		}
	}
}

func TestAdaptiveHonorsAllowed(t *testing.T) {
	a := NewAdaptive(5, DefaultConfig())
	rng := rand.New(rand.NewSource(1))
	banned := map[int]bool{1: true, 3: true}
	allowed := func(i int) bool { return !banned[i] }
	for tick := 0; tick < 500; tick++ {
		for _, arm := range a.Order(rng, allowed) {
			if banned[arm] {
				t.Fatalf("Order ranked quarantined arm %d", arm)
			}
		}
		if arm := a.Pick(rng, allowed); banned[arm] {
			t.Fatalf("Pick chose quarantined arm %d", arm)
		}
	}
	if got := a.Pick(rng, func(int) bool { return false }); got != -1 {
		t.Fatalf("Pick with nothing allowed = %d, want -1", got)
	}
}

func TestStateRoundTripsThroughJSON(t *testing.T) {
	a := NewAdaptive(6, DefaultConfig())
	rng := rand.New(rand.NewSource(99))
	drive(a, rng, 1500)
	st := a.State()
	data, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var back State
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	b := NewAdaptive(6, DefaultConfig())
	if err := b.Restore(&back); err != nil {
		t.Fatal(err)
	}
	// The restored posterior must continue bit-identically: clone the
	// RNG state by reseeding and replaying the same suffix.
	r1 := rand.New(rand.NewSource(5))
	r2 := rand.New(rand.NewSource(5))
	s1 := drive(a, r1, 800)
	s2 := drive(b, r2, 800)
	if !reflect.DeepEqual(s1, s2) {
		t.Fatal("restored scheduler diverged from original")
	}
}

func TestRestoreRejectsContradictions(t *testing.T) {
	a := NewAdaptive(4, DefaultConfig())
	if err := a.Restore(&State{Kind: "uniform", Arms: 4}); err == nil {
		t.Fatal("adaptive restored a uniform state")
	}
	if err := a.Restore(&State{Kind: "adaptive", Arms: 9}); err == nil {
		t.Fatal("restored a state with the wrong arm count")
	}
	u := NewUniform(4)
	if err := u.Restore(&State{Kind: "adaptive", Arms: 4}); err == nil {
		t.Fatal("uniform restored an adaptive state")
	}
	if err := u.Restore(&State{Kind: "uniform", Arms: 4}); err != nil {
		t.Fatalf("uniform rejected its own state: %v", err)
	}
}

func TestNewByKind(t *testing.T) {
	for kind, want := range map[string]string{"": "uniform", "uniform": "uniform", "adaptive": "adaptive"} {
		s, err := New(kind, 3)
		if err != nil {
			t.Fatal(err)
		}
		if s.Kind() != want || s.Arms() != 3 {
			t.Fatalf("New(%q) = %s/%d", kind, s.Kind(), s.Arms())
		}
	}
	if _, err := New("thompson", 3); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestInstrumentCountsPicksAndWeights(t *testing.T) {
	reg := obs.NewRegistry()
	a := NewAdaptive(2, DefaultConfig())
	a.Instrument(reg, []string{"m0", "m1"})
	a.Observe(0, Reward{NewCoverage: true})
	a.Observe(0, Reward{NewCoverage: true})
	a.Observe(1, Reward{CompileError: true})
	snap := reg.Snapshot()
	if got := snap.Counter("sched_picks_total", "m0"); got != 2 {
		t.Fatalf("sched_picks_total{m0} = %d, want 2", got)
	}
	if got := snap.Counter("sched_picks_total", "m1"); got != 1 {
		t.Fatalf("sched_picks_total{m1} = %d, want 1", got)
	}
	// Mean reward of m0 is 1.0 -> 1000 milli-units on the gauge.
	found := false
	for _, f := range snap.Gauges {
		if f.Name != "sched_weight" {
			continue
		}
		for _, s := range f.Series {
			if len(s.LabelValues) == 1 && s.LabelValues[0] == "m0" {
				found = true
				if s.Value != 1000 {
					t.Fatalf("sched_weight{m0} = %d, want 1000", s.Value)
				}
			}
		}
	}
	if !found {
		t.Fatal("sched_weight{m0} not exported")
	}
}
