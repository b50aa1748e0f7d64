// Package bench measures the repository's hot-path performance and
// records it in a stable JSON schema (`odf-bench/v1`), giving the repo
// the benchmark trajectory ROADMAP item 3 asks for: curated
// BENCH_<date>.json baselines are committed, `make bench-json`
// reproduces them, and CI compares fresh numbers against the newest
// baseline with a regression threshold.
//
// Raw nanosecond latencies are not comparable across machines, so each
// result embeds a calibration constant: the time of a fixed pure-CPU
// integer loop on the measuring machine. The comparator normalizes
// latency-like metrics by the ratio of calibration constants before
// applying the threshold, which keeps the CI gate meaningful on
// runners faster or slower than the machine that produced the
// baseline. Alloc counts are machine-independent and compared raw.
package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// SchemaV1 identifies the current result schema.
const SchemaV1 = "odf-bench/v1"

// Result is one benchmark run: the full hot-path surface measured on
// one machine at one commit.
type Result struct {
	Schema     string `json:"schema"`
	Date       string `json:"date"` // YYYY-MM-DD of the run
	GoMaxProcs int    `json:"gomaxprocs"`
	Iters      int    `json:"iters"`
	// CalibNS is the duration of calibLoop in nanoseconds on the
	// measuring machine — the machine-speed yardstick used to
	// normalize latencies across machines.
	CalibNS float64 `json:"calib_ns"`

	Fork  []ForkResult `json:"fork"`
	Fault FaultResult  `json:"fault"`
}

// ForkResult is the fork-latency distribution for one engine at one
// mapping size.
type ForkResult struct {
	Mode        string  `json:"mode"` // "classic" | "ondemand"
	SizeMB      int     `json:"size_mb"`
	P50NS       float64 `json:"p50_ns"`
	P99NS       float64 `json:"p99_ns"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// FaultResult captures the fault-side hot paths: the post-split write
// fast path and the COW fault throughput of a freshly forked space.
type FaultResult struct {
	FastPathNS       float64 `json:"fastpath_ns"`
	COWFaultsPerSec  float64 `json:"cow_faults_per_sec"`
	FaultAllocsPerOp float64 `json:"fault_allocs_per_op"`
}

// forkKey indexes fork results for comparison.
func (f ForkResult) forkKey() string { return fmt.Sprintf("%s/%dMB", f.Mode, f.SizeMB) }

// Save writes r as indented JSON to path, with fork entries sorted for
// a stable diff.
func (r *Result) Save(path string) error {
	sort.Slice(r.Fork, func(i, j int) bool {
		if r.Fork[i].Mode != r.Fork[j].Mode {
			return r.Fork[i].Mode < r.Fork[j].Mode
		}
		return r.Fork[i].SizeMB < r.Fork[j].SizeMB
	})
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Load reads a Result from path and validates its schema tag.
func Load(path string) (*Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Result
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("bench: parse %s: %w", path, err)
	}
	if r.Schema != SchemaV1 {
		return nil, fmt.Errorf("bench: %s has schema %q, want %q", path, r.Schema, SchemaV1)
	}
	return &r, nil
}
