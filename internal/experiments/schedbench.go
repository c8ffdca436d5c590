package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"time"

	"github.com/icsnju/metamut-go/internal/compilersim"
	"github.com/icsnju/metamut-go/internal/engine"
	"github.com/icsnju/metamut-go/internal/fuzz"
	"github.com/icsnju/metamut-go/internal/muast"
	"github.com/icsnju/metamut-go/internal/sched"
	"github.com/icsnju/metamut-go/internal/seeds"
)

// schedBenchPool is the seed-corpus size of the committed
// BENCH_sched.json; every count in that record depends on it.
const schedBenchPool = 12

// SchedBenchVariant is one cell of the scheduling ablation.
type SchedBenchVariant struct {
	Name  string `json:"name"`
	Sched string `json:"sched"`

	Ticks           int     `json:"ticks"`
	Edges           int     `json:"edges"`
	Crashes         int     `json:"crashes"`
	EdgesPer1kTicks float64 `json:"edges_per_1k_ticks"`
	Seconds         float64 `json:"seconds"`
	EdgesPerSec     float64 `json:"edges_per_sec"`
}

// SchedBenchResult is the full ablation: the BENCH_sched.json payload.
type SchedBenchResult struct {
	Seed     int64               `json:"seed"`
	Steps    int                 `json:"steps"`
	Streams  int                 `json:"streams"`
	Pool     int                 `json:"pool"`
	Variants []SchedBenchVariant `json:"variants"`
}

// RunSchedBench measures the adaptive scheduler against the uniform
// baseline: two μCFuzz campaigns on the engine, identical seed and
// budget, varying only the policy. Scheduling changes what gets
// compiled, so it shows as edges per tick.
func RunSchedBench(cfg Config) *SchedBenchResult {
	pool := seeds.Generate(schedBenchPool, cfg.Seed)
	res := &SchedBenchResult{
		Seed:    cfg.Seed,
		Steps:   cfg.SchedBenchSteps,
		Streams: 4,
		Pool:    schedBenchPool,
	}
	for _, kind := range []string{"uniform", "adaptive"} {
		comp := compilersim.New("gcc", 14)
		// Self-guided μCFuzz streams: the paper's core fuzzer.
		factory := func(stream int, rng *rand.Rand, _ fuzz.CoverageSink) engine.Worker {
			mf := fuzz.NewMuCFuzz(fmt.Sprintf("bench-%s-%d", kind, stream),
				comp, muast.All(), pool, rng)
			s, err := sched.New(kind, len(muast.All()))
			if err != nil {
				panic(err)
			}
			mf.Sched = s
			return mf
		}
		ecfg := engine.Config{
			Streams:    res.Streams,
			Workers:    cfg.EngineWorkers,
			TotalSteps: cfg.SchedBenchSteps,
			Seed:       cfg.Seed,
			Registry:   cfg.Obs,
		}
		start := time.Now()
		c := engine.New(ecfg, factory)
		if err := c.Run(context.Background()); err != nil {
			panic(err) // no checkpointing or cancellation in the bench
		}
		secs := time.Since(start).Seconds()

		st := c.MergedStats()
		row := SchedBenchVariant{
			Name:    kind,
			Sched:   kind,
			Ticks:   st.Ticks,
			Edges:   st.Coverage.Count(),
			Crashes: st.UniqueCrashes(),
			Seconds: secs,
		}
		if st.Ticks > 0 {
			row.EdgesPer1kTicks = 1000 * float64(row.Edges) / float64(st.Ticks)
		}
		if secs > 0 {
			row.EdgesPerSec = float64(row.Edges) / secs
		}
		res.Variants = append(res.Variants, row)
	}
	return res
}

// Render prints the ablation as a table.
func (r *SchedBenchResult) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Scheduling ablation: %d steps x %d streams, seed %d, %d-program pool\n",
		r.Steps, r.Streams, r.Seed, r.Pool)
	fmt.Fprintf(&sb, "  %-16s %8s %8s %8s %12s %8s\n",
		"variant", "ticks", "edges", "crashes", "edges/1kT", "secs")
	for _, v := range r.Variants {
		fmt.Fprintf(&sb, "  %-16s %8d %8d %8d %12.1f %8.2f\n",
			v.Name, v.Ticks, v.Edges, v.Crashes, v.EdgesPer1kTicks, v.Seconds)
	}
	return sb.String()
}

// WriteJSON writes the ablation result (the BENCH_sched.json artifact).
func (r *SchedBenchResult) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
