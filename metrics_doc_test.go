package metamut

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"github.com/icsnju/metamut-go/internal/compilersim"
	"github.com/icsnju/metamut-go/internal/core"
	"github.com/icsnju/metamut-go/internal/engine"
	"github.com/icsnju/metamut-go/internal/flight"
	"github.com/icsnju/metamut-go/internal/fuzz"
	"github.com/icsnju/metamut-go/internal/llm"
	"github.com/icsnju/metamut-go/internal/muast"
	"github.com/icsnju/metamut-go/internal/obs"
	"github.com/icsnju/metamut-go/internal/resil"
	"github.com/icsnju/metamut-go/internal/sched"
	"github.com/icsnju/metamut-go/internal/seeds"
	"github.com/icsnju/metamut-go/internal/serve"
)

// metricsDocRow matches the first two columns of a catalogue row:
// | `name{label,label}` | kind | ...
var metricsDocRow = regexp.MustCompile(
	"^\\| `([a-z_]+)(?:\\{([a-z_,]+)\\})?` \\| (counter|gauge|histogram) \\|")

// docFamilies parses docs/METRICS.md into "name kind {labels}" keys.
func docFamilies(t *testing.T) map[string]bool {
	t.Helper()
	data, err := os.ReadFile("docs/METRICS.md")
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]bool{}
	for _, line := range strings.Split(string(data), "\n") {
		m := metricsDocRow.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		out[fmt.Sprintf("%s %s {%s}", m[1], m[3], m[2])] = true
	}
	return out
}

// liveFamilies builds a registry and exercises every instrumentation
// entry point the repo has, then renders Families() the same way.
func liveFamilies(t *testing.T) map[string]bool {
	t.Helper()
	reg := obs.NewRegistry()

	// Event-gated families are pre-registered by their packages'
	// helpers — the same calls the CLIs make.
	core.RegisterMetrics(reg)
	llm.RegisterMetrics(reg)
	resil.RegisterMetrics(reg)
	sched.RegisterMetrics(reg)
	flight.RegisterMetrics(reg)
	serve.RegisterMetrics(reg)

	comp := compilersim.New("gcc", 14)
	comp.Instrument(reg)

	// A miniature adaptive campaign registers the fuzz and engine
	// families exactly as cmd/mucfuzz does.
	pool := seeds.Generate(6, 1)
	factory := func(stream int, rng *rand.Rand, _ fuzz.CoverageSink) engine.Worker {
		w := fuzz.NewMuCFuzz(fmt.Sprintf("doc-%d", stream), comp, muast.All(), pool, rng)
		w.Sched = sched.NewAdaptive(len(muast.All()), sched.DefaultConfig())
		w.Stats().Instrument(reg)
		w.InstrumentSched(reg)
		return w
	}
	c := engine.New(engine.Config{Streams: 2, Workers: 1, StepsPerEpoch: 4,
		TotalSteps: 16, Seed: 1, Registry: reg}, factory)
	if err := c.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	c.Triage(comp, engine.TriageConfig{Registry: reg})

	reg.Span("doc-test").End() // span_seconds

	out := map[string]bool{}
	for _, f := range reg.Families() {
		out[fmt.Sprintf("%s %s {%s}", f.Name, f.Kind, strings.Join(f.Labels, ","))] = true
	}
	return out
}

// TestCampaignSchemaPreRegistered enforces satellite #1 of the flight
// recorder work: every campaign-side family (engine_*, sched_*,
// resil_*, fuzz's virtual clock, flight_*) must appear in a registry
// snapshot after only the RegisterMetrics calls a CLI makes at startup
// — before any campaign event has fired. A dashboard attached to a
// quiet campaign sees the full schema, not a trickle of families
// appearing as events happen to occur.
func TestCampaignSchemaPreRegistered(t *testing.T) {
	reg := obs.NewRegistry()
	fuzz.RegisterMetrics(reg)
	engine.RegisterMetrics(reg)
	sched.RegisterMetrics(reg)
	resil.RegisterMetrics(reg)
	flight.RegisterMetrics(reg)
	serve.RegisterMetrics(reg)

	have := map[string]bool{}
	for _, f := range reg.Families() {
		have[f.Name] = true
	}
	for name := range docFamilies(t) {
		fam := strings.SplitN(name, " ", 2)[0]
		switch {
		case strings.HasPrefix(fam, "engine_"),
			strings.HasPrefix(fam, "sched_"),
			strings.HasPrefix(fam, "resil_"),
			strings.HasPrefix(fam, "flight_"),
			strings.HasPrefix(fam, "serve_"),
			fam == "triage_reduced_total":
			if !have[fam] {
				t.Errorf("campaign family %s not pre-registered at startup", fam)
			}
		}
	}
	if !have["compile_ticks"] || !have["crashes_unique_total"] {
		t.Error("fuzz.RegisterMetrics missing core fuzzer families")
	}
}

// TestMetricsDocMatchesRegistry enforces docs/METRICS.md: the catalogue
// and the live registry must agree family-for-family, including kind
// and label names, in both directions.
func TestMetricsDocMatchesRegistry(t *testing.T) {
	doc := docFamilies(t)
	if len(doc) == 0 {
		t.Fatal("parsed no rows from docs/METRICS.md — row format drifted?")
	}
	live := liveFamilies(t)

	var missing, stale []string
	for k := range live {
		if !doc[k] {
			missing = append(missing, k)
		}
	}
	for k := range doc {
		if !live[k] {
			stale = append(stale, k)
		}
	}
	sort.Strings(missing)
	sort.Strings(stale)
	for _, k := range missing {
		t.Errorf("registered but undocumented in docs/METRICS.md: %s", k)
	}
	for _, k := range stale {
		t.Errorf("documented in docs/METRICS.md but never registered: %s", k)
	}
}
