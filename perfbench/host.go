package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// hostStamp describes the host and the build a result was measured on:
// results from different host shapes are not comparable.
func hostStamp(o options) map[string]any {
	commit, dirty := "unknown", "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				dirty = s.Value
			}
		}
	}
	digest, err := sourceDigest(".")
	if err != nil {
		digest = "unknown: " + err.Error()
	}
	return map[string]any{
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"nproc":         runtime.NumCPU(),
		"workers":       o.workers,
		"cpu_model":     cpuModel(),
		"go_version":    runtime.Version(),
		"commit":        commit,
		"dirty":         dirty,
		"source_digest": digest,
		"workload":      o.workload,
		"seed":          o.seed,
		"seconds":       o.seconds,
		"trace":         o.trace,
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes go.mod and every .go file under root (skipping
// dot-directories such as the build directory), so a result names the
// exact source it measured even in a checkout that is not a git
// repository.
func sourceDigest(root string) (string, error) {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || path == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s\x00", p)
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// expectedFile records, for the default seed and a held-out seed, the
// exact counts each workload computes at this budget.
const expectedFile = "perfbench/expected.json"

// expectation is one recorded (workload, seed) count.
type expectation struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Edges    int    `json:"edges"`
	Crashes  int    `json:"crashes"`
	// Ticks and StaticRejects are recorded for the campaign workloads.
	Ticks         int `json:"ticks,omitempty"`
	StaticRejects int `json:"static_rejects,omitempty"`
}

// checkExpected prints a run's exact counts and compares them with the
// recorded ones when its seed was recorded. Any seed not recorded
// passes.
func checkExpected(workload string, seed int64, got outcome) error {
	if line, err := json.Marshal(map[string]any{"counted": got, "workload": workload, "seed": seed}); err == nil {
		fmt.Println(string(line))
	}
	data, err := os.ReadFile(expectedFile)
	if err != nil {
		return fmt.Errorf("read %s: %w", expectedFile, err)
	}
	var recs struct {
		Expected []expectation `json:"expected"`
	}
	if err := json.Unmarshal(data, &recs); err != nil {
		return fmt.Errorf("parse %s: %w", expectedFile, err)
	}
	for _, e := range recs.Expected {
		if e.Workload != workload || e.Seed != seed {
			continue
		}
		want := outcome{Ticks: e.Ticks, Edges: e.Edges, Crashes: e.Crashes, StaticRejects: e.StaticRejects}
		if got != want {
			return fmt.Errorf("%s seed %d computed %+v; %s records %+v", workload, seed, got, expectedFile, want)
		}
	}
	return nil
}
