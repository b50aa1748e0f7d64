package bench

import (
	"path/filepath"
	"strings"
	"testing"
)

func baseline() *Result {
	return &Result{
		Schema:     SchemaV1,
		Date:       "2026-01-01",
		GoMaxProcs: 8,
		Iters:      40,
		CalibNS:    4_000_000,
		Fork: []ForkResult{
			{Mode: "classic", SizeMB: 64, P50NS: 800_000, P99NS: 1_200_000, AllocsPerOp: 40},
			{Mode: "ondemand", SizeMB: 64, P50NS: 60_000, P99NS: 90_000, AllocsPerOp: 10},
		},
		Fault: FaultResult{FastPathNS: 50, COWFaultsPerSec: 2_000_000, FaultAllocsPerOp: 0},
	}
}

func TestCompareCleanRun(t *testing.T) {
	if regs := Compare(baseline(), baseline(), 0.05); len(regs) != 0 {
		t.Fatalf("identical results flagged regressions: %v", regs)
	}
}

// TestCompareSyntheticRegression is the acceptance check for the CI
// gate: a >5% fork-latency slowdown must fail, and each other guarded
// metric must trip when pushed past its threshold in the bad
// direction.
func TestCompareSyntheticRegression(t *testing.T) {
	base := baseline()

	cur := baseline()
	cur.Fork[1].P50NS *= 1.10 // ondemand p50 +10%
	regs := Compare(base, cur, 0.05)
	if len(regs) != 1 || regs[0].Metric != "fork.ondemand/64MB.p50_ns" {
		t.Fatalf("10%% p50 regression not caught: %v", regs)
	}

	cur = baseline()
	cur.Fork[0].P99NS *= 1.06
	if regs := Compare(base, cur, 0.05); len(regs) != 1 || regs[0].Metric != "fork.classic/64MB.p99_ns" {
		t.Fatalf("p99 regression not caught: %v", regs)
	}

	cur = baseline()
	cur.Fault.COWFaultsPerSec *= 0.90
	if regs := Compare(base, cur, 0.05); len(regs) != 1 || regs[0].Metric != "fault.cow_faults_per_sec" {
		t.Fatalf("faults/sec regression not caught: %v", regs)
	}

	cur = baseline()
	cur.Fork[1].AllocsPerOp = 30 // 10 -> 30 allocs/op
	if regs := Compare(base, cur, 0.05); len(regs) != 1 || !strings.HasSuffix(regs[0].Metric, "allocs_per_op") {
		t.Fatalf("allocs/op regression not caught: %v", regs)
	}

	cur = baseline()
	cur.Fork = cur.Fork[:1] // a measured cell vanished
	if regs := Compare(base, cur, 0.05); len(regs) == 0 {
		t.Fatal("missing fork cell not caught")
	}
}

func TestCompareWithinThreshold(t *testing.T) {
	base := baseline()
	cur := baseline()
	cur.Fork[0].P50NS *= 1.04         // +4% < 5%
	cur.Fault.COWFaultsPerSec *= 0.96 // -4% < 5%
	cur.Fault.FaultAllocsPerOp = 1    // within the absolute alloc slack
	if regs := Compare(base, cur, 0.05); len(regs) != 0 {
		t.Fatalf("within-threshold drift flagged: %v", regs)
	}
}

// TestCompareCalibration checks cross-machine normalization: the same
// workload measured on a machine half as fast produces double the
// latencies and half the throughput, and must NOT be flagged when the
// calibration constant doubles with it.
func TestCompareCalibration(t *testing.T) {
	base := baseline()
	cur := baseline()
	cur.CalibNS = base.CalibNS * 2
	for i := range cur.Fork {
		cur.Fork[i].P50NS *= 2
		cur.Fork[i].P99NS *= 2
	}
	cur.Fault.FastPathNS *= 2
	cur.Fault.COWFaultsPerSec /= 2
	if regs := Compare(base, cur, 0.05); len(regs) != 0 {
		t.Fatalf("calibration failed to absorb a 2x machine-speed delta: %v", regs)
	}
	// A genuine 10% regression must still show through the 2x machine
	// slowdown.
	cur.Fork[0].P50NS *= 1.10
	if regs := Compare(base, cur, 0.05); len(regs) != 1 {
		t.Fatalf("real regression hidden by calibration: %v", regs)
	}
}

func TestResultRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	r := baseline()
	if err := r.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if regs := Compare(r, back, 0.0); len(regs) != 0 {
		t.Fatalf("round trip changed values: %v", regs)
	}
	if back.Schema != SchemaV1 || back.Date != r.Date || back.Iters != r.Iters {
		t.Fatalf("round trip lost header fields: %+v", back)
	}
}

func TestLoadRejectsWrongSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	r := baseline()
	r.Schema = "odf-bench/v0"
	if err := r.Save(path); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Fatal("wrong schema accepted")
	}
}
