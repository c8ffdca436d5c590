// Command perfbench is the repository's benchmark: it runs one workload
// for a fixed number of seconds, checks the program's outputs, and
// prints the end-to-end metrics (-trace 0) or the per-layer ledger
// (-trace 1) as the last line of standard output.
//
//	go run ./perfbench -workload mucfuzz-gcc -seed 1 -seconds 30 -trace 0
//
// Workloads (see BENCHMARK.json for the one-line reasons):
//
//   - mucfuzz-gcc: μCFuzz (Algorithm 1) on the engine, gcc -O2, all 118
//     mutators, uniform scheduling, static filter on. Compile, the
//     static filter's re-parse and the splice re-parse dominate.
//   - macro-clang: the macro fuzzer like `mucfuzz -macro` on clang with
//     flag sampling and adaptive scheduling. Manager rebuilds per havoc
//     round, mutator apply and Parents dominate.
//   - serve-4t: an in-process daemon behind its HTTP handler, driven by
//     a closed loop of 4 tenants with one job outstanding each. The
//     only workload that pays per-job setup, DRR slicing, checkpoints,
//     journals, ledger saves and the HTTP API.
//
// MetaMut generation (core/llm/mutdsl) is not a workload: a whole
// unsupervised campaign costs a fraction of a CPU-second, so no change
// there moves a number a user sees.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"syscall"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workers  int
}

// workloads maps a workload name to its runner.
var workloads = map[string]func(options) (result, error){
	"mucfuzz-gcc": func(o options) (result, error) { return runCampaignWorkload(mucfuzzGCC, o) },
	"macro-clang": func(o options) (result, error) { return runCampaignWorkload(macroClang, o) },
	"serve-4t":    func(o options) (result, error) { return runServeWorkload(serve4t, o) },
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "mucfuzz-gcc", "workload: mucfuzz-gcc, macro-clang or serve-4t")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: derives every seed corpus and job spec")
	flag.Float64Var(&o.seconds, "seconds", 30, "how long the run measures")
	flag.IntVar(&trace, "trace", 0, "1 = traced run printing the per-layer metrics")
	flag.Parse()
	o.trace = trace == 1
	o.workers = runtime.NumCPU()

	run, ok := workloads[o.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", o.workload)
		os.Exit(2)
	}
	if err := checkTree(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	host := hostStamp(o)
	if line, err := json.Marshal(map[string]any{"host": host}); err == nil {
		fmt.Println(string(line))
	}
	cpu0, t0 := cpuTime(), time.Now()
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	// The share of the run's CPUs the process got: well below the
	// workload's parallel efficiency, other load on the host slowed the
	// run, and its wall-clock rates are not comparable with a quiet run's.
	share := ratio((cpuTime() - cpu0).Seconds(), time.Since(t0).Seconds()*float64(runtime.GOMAXPROCS(0)))
	if line, err := json.Marshal(map[string]any{"cpu_share": share}); err == nil {
		fmt.Println(string(line))
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// checkTree refuses to run outside a checkout of the repository: the
// benchmark measures the program, so without its sources there is
// nothing to measure.
func checkTree() error {
	for _, p := range []string{"go.mod", "internal/engine", "internal/fuzz", "internal/serve"} {
		if _, err := os.Stat(p); err != nil {
			return fmt.Errorf("not at the root of a checkout (%s missing)", p)
		}
	}
	return nil
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// report prints one timing's distribution — sample count, median,
// quartiles and p90 with the samples beyond it — as an informational
// line ahead of the result. Wall-clock throughput and job latency are
// reported only this way: on a shared host they move with other load
// (see cpu_share) far beyond any bound a gate could hold, so the gated
// metrics are their CPU-normalised twins.
func report(name string, xs []float64) {
	q1, q3 := quartiles(xs)
	line, err := json.Marshal(map[string]any{
		"timing": name, "n": len(xs), "median": median(xs), "q1": q1, "q3": q3,
		"p90": percentile(xs, 90), "beyond_p90": beyond(xs, 90),
	})
	if err == nil {
		fmt.Println(string(line))
	}
}
