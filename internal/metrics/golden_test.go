package metrics

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

// log2Hist builds a snapshot holding n[i] observations at the lower
// bound of each log₂ bucket i (2^30 ns for the overflow bucket), then
// pins count, sum and max to the golden's synthetic figures.
func log2Hist(count, sum, max uint64, n map[int]uint64) HistogramSnapshot {
	var h Histogram
	for i, c := range n {
		for ; c > 0; c-- {
			h.Observe(time.Duration(1) << i)
		}
	}
	s := h.Snapshot()
	s.Count, s.SumNS, s.MaxNS = count, sum, max
	return s
}

// goldenSnapshot is a fixed, fully-populated telemetry tree covering
// every rendered section: both engines, histograms with interior and
// overflow buckets, gauges, and all counter groups.
func goldenSnapshot() Snapshot {
	var s Snapshot

	classic := &s.Fork.Engines[EngineClassic]
	classic.Forks = 2
	classic.Latency = log2Hist(2, 3_000_000, 2_000_000, map[int]uint64{20: 2}) // [1.05ms, 2.1ms)

	od := &s.Fork.Engines[EngineOnDemand]
	od.Forks = 3
	od.Latency = log2Hist(3, 150_000, 60_000, map[int]uint64{15: 3}) // [32.8µs, 65.5µs)

	s.Fork.TablesShared = 384
	s.Fork.TablesCopied = 128
	s.Fork.PMDTablesShared = 2
	s.Fork.ParallelForks = 1
	s.Fork.ParallelTasks = 4
	s.Fork.PTEsCopied = 65_536
	s.Fork.UpperWalks = 260

	s.Fault.ReadFaults = 10
	s.Fault.ReadLatency = log2Hist(10, 4_000, 500, map[int]uint64{8: 10}) // [256ns, 512ns)
	s.Fault.WriteFaults = 7
	s.Fault.WriteLatency = log2Hist(7, 21_000, 4_000, map[int]uint64{11: 7}) // [2.05µs, 4.1µs)
	s.Fault.TableCopyLatency = log2Hist(2, 6_000_005_000, 6_000_000_000,
		map[int]uint64{12: 1, HistBuckets: 1}) // interior + overflow
	s.Fault.TableSplits = 5
	s.Fault.PMDSplits = 1
	s.Fault.FastDedups = 2
	s.Fault.PageCopies = 9
	s.Fault.HugeCopies = 1
	s.Fault.ZeroElides = 4
	s.Fault.Segfaults = 1

	s.Alloc.ShardHits = 100
	s.Alloc.ShardRefills = 4
	s.Alloc.ShardDrains = 3
	s.Alloc.HugeAllocs = 2
	s.Alloc.RefIncs = 65_538
	s.Alloc.FramesInUse = 5_000
	s.Alloc.FramesPeak = 9_000
	s.Alloc.ShardCached = 128

	s.Reclaim.PgScanKswapd = 64
	s.Reclaim.PgScanDirect = 16
	s.Reclaim.PgStealKswapd = 48
	s.Reclaim.PgStealDirect = 12
	s.Reclaim.PswpIn = 30
	s.Reclaim.PswpOut = 60
	s.Reclaim.HugeSplits = 1
	s.Reclaim.KswapdWakeups = 5
	s.Reclaim.DirectReclaims = 2
	s.Reclaim.SwapInLatency = log2Hist(30, 90_000, 5_000, map[int]uint64{11: 30})              // [2.05µs, 4.1µs)
	s.Reclaim.SwapOutLatency = log2Hist(60, 300_000, 9_000, map[int]uint64{12: 60})            // [4.1µs, 8.2µs)
	s.Reclaim.DirectStallLatency = log2Hist(2, 400_000, 300_000, map[int]uint64{17: 1, 18: 1}) // [131µs, 524µs)

	s.TLB.Hits = 1_000
	s.TLB.Misses = 50
	s.TLB.Flushes = 6
	s.TLB.Shootdowns = 4

	s.Robust.InjectedFaults = 25
	s.Robust.ForkAborts = 3
	s.Robust.SwapReadRetries = 6
	s.Robust.SwapWriteRetries = 4
	s.Robust.SwapReadErrors = 2
	s.Robust.SwapWriteErrors = 1
	s.Robust.SwapCorruptions = 1
	s.Robust.SwapDegrades = 1
	s.Robust.KswapdErrors = 2
	return s
}

// TestRenderGolden pins the exact /proc/odf/metrics text format. A
// deliberate format change regenerates the file with `go test -update`.
func TestRenderGolden(t *testing.T) {
	got := goldenSnapshot().Render()
	path := filepath.Join("testdata", "render.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		gl := strings.Split(got, "\n")
		wl := strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Errorf("line %d:\n  got  %q\n  want %q", i+1, g, w)
			}
		}
		t.Fatalf("rendered metrics differ from %s (use -update after a deliberate format change)", path)
	}
}
