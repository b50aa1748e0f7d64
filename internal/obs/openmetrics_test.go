package obs

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
)

var update = flag.Bool("update", false, "rewrite golden files")

// log2Hist builds a snapshot holding n[i] observations at the lower
// bound of each log₂ bucket i (2^30 ns for the overflow bucket), then
// pins count and sum to the golden's synthetic figures.
func log2Hist(count, sum uint64, n map[int]uint64) metrics.HistogramSnapshot {
	var h metrics.Histogram
	for i, c := range n {
		for ; c > 0; c-- {
			h.Observe(time.Duration(1) << i)
		}
	}
	s := h.Snapshot()
	s.Count, s.SumNS = count, sum
	return s
}

// goldenSnapshot is a fixed telemetry tree exercising every exposition
// section: both engines, histograms with interior and overflow
// buckets, exemplars, and two tenants (one with an escaping-hostile
// name).
func goldenSnapshot() metrics.Snapshot {
	var s metrics.Snapshot

	classic := &s.Fork.Engines[metrics.EngineClassic]
	classic.Forks = 2
	classic.Latency = log2Hist(2, 3_000_000, map[int]uint64{20: 2})

	od := &s.Fork.Engines[metrics.EngineOnDemand]
	od.Forks = 3
	od.Latency = log2Hist(3, 150_000, map[int]uint64{15: 3})
	od.Latency.Exemplars = []metrics.Exemplar{
		{NS: 60_000, Req: 7},
		{NS: 45_000, Req: 3},
	}

	s.Fault.ReadFaults = 10
	s.Fault.ReadLatency = log2Hist(10, 4_000, map[int]uint64{8: 10})
	s.Fault.WriteFaults = 7
	s.Fault.WriteLatency = log2Hist(7, 21_000, map[int]uint64{11: 6, metrics.HistBuckets: 1}) // + overflow
	s.Fault.WriteLatency.Exemplars = []metrics.Exemplar{{NS: 4_000, Req: 9}}
	s.Fault.TableSplits = 5
	s.Fault.PMDSplits = 1
	s.Fault.FastDedups = 2
	s.Fault.PageCopies = 9
	s.Fault.HugeCopies = 1
	s.Fault.ZeroElides = 4

	s.Tenant.ForksAdmitted = 12
	s.Tenant.ForksQueued = 4
	s.Tenant.ForksRejected = 1
	s.Tenant.QueueWait = log2Hist(4, 8_000_000, map[int]uint64{21: 4})

	s.Reclaim.PgStealKswapd = 100
	s.Reclaim.PgStealDirect = 25
	s.Reclaim.DirectStallLatency = log2Hist(1, 2_000_000, map[int]uint64{20: 1})
	s.Robust.SwapDegrades = 1

	s.Alloc.FramesInUse = 4096
	s.Alloc.FramesPeak = 5000

	t1 := metrics.TenantSlotSnapshot{ID: 1, Name: "alpha"}
	t1.Forks[metrics.EngineOnDemand] = 5
	t1.ForkLatency[metrics.EngineOnDemand] = log2Hist(5, 250_000, map[int]uint64{15: 5})
	t1.ForkLatency[metrics.EngineOnDemand].Exemplars = []metrics.Exemplar{{NS: 61_000, Req: 11}}
	t1.TableSplits = 3
	t1.PageCopies = 8
	t1.QueueWait = log2Hist(2, 4_000_000, map[int]uint64{21: 2})
	t1.ReclaimEvictions = 40
	t1.QuotaRejections = 2

	t2 := metrics.TenantSlotSnapshot{ID: 2, Name: "be\"ta\\v1\nx"}
	t2.Forks[metrics.EngineClassic] = 1
	t2.ForkLatency[metrics.EngineClassic] = log2Hist(1, 1_000_000, map[int]uint64{19: 1})

	s.Tenants = []metrics.TenantSlotSnapshot{t1, t2}
	return s
}

// TestOpenMetricsGolden pins the exposition byte-for-byte. Regenerate
// deliberately with `go test -update`.
func TestOpenMetricsGolden(t *testing.T) {
	got := RenderOpenMetrics(goldenSnapshot())
	path := filepath.Join("testdata", "openmetrics.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("exposition differs from %s:\ngot:\n%s", path, got)
	}
}

// TestOpenMetricsRoundTrip checks render → parse → render is the
// identity, including label ordering, escaping, and exemplars, and
// that parsing validates the document.
func TestOpenMetricsRoundTrip(t *testing.T) {
	text := RenderOpenMetrics(goldenSnapshot())
	exp, err := ParseOpenMetrics(strings.NewReader(text))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if got := exp.Render(); got != text {
		t.Fatalf("round-trip not identity:\noriginal:\n%s\nre-rendered:\n%s", text, got)
	}

	// The escaping-hostile tenant name survived the trip.
	f := exp.Family("odf_tenant_forks")
	if f == nil {
		t.Fatal("odf_tenant_forks family missing")
	}
	found := false
	for _, s := range f.Samples {
		if s.Labels.Get("tenant") == "2" {
			found = true
			if got := s.Labels.Get("tenant_name"); got != "be\"ta\\v1\nx" {
				t.Fatalf("tenant name mangled: %q", got)
			}
		}
	}
	if !found {
		t.Fatal("tenant 2 series missing")
	}

	// Exemplars parsed with resolvable request ids.
	fh := exp.Family("odf_fork_latency_ns")
	var exCount int
	for _, s := range fh.Samples {
		if s.Exemplar != nil {
			exCount++
			if s.Exemplar.Labels.Get("request_id") == "" {
				t.Fatalf("exemplar without request_id on %s%s", s.Name, s.Labels)
			}
		}
	}
	if exCount == 0 {
		t.Fatal("no exemplars survived the round trip")
	}
}

// TestOpenMetricsEmptySnapshot checks a zero snapshot still renders a
// valid, parseable document.
func TestOpenMetricsEmptySnapshot(t *testing.T) {
	text := RenderOpenMetrics(metrics.Snapshot{})
	if _, err := ParseOpenMetrics(strings.NewReader(text)); err != nil {
		t.Fatalf("empty snapshot exposition invalid: %v", err)
	}
	if !strings.HasSuffix(text, "# EOF\n") {
		t.Fatal("missing # EOF terminator")
	}
}

func TestParseRejectsMissingEOF(t *testing.T) {
	doc := "# TYPE odf_forks counter\nodf_forks_total{engine=\"classic\"} 1\n"
	if _, err := ParseOpenMetrics(strings.NewReader(doc)); err == nil {
		t.Fatal("document without # EOF accepted")
	}
}

func TestParseRejectsNonCumulativeBuckets(t *testing.T) {
	doc := `# TYPE odf_x_ns histogram
odf_x_ns_bucket{le="2"} 5
odf_x_ns_bucket{le="4"} 3
odf_x_ns_bucket{le="+Inf"} 5
odf_x_ns_count 5
odf_x_ns_sum 10
# EOF
`
	if _, err := ParseOpenMetrics(strings.NewReader(doc)); err == nil {
		t.Fatal("non-cumulative buckets accepted")
	} else if !strings.Contains(err.Error(), "cumulative") {
		t.Fatalf("wrong error: %v", err)
	}
}

func TestParseRejectsInfCountMismatch(t *testing.T) {
	doc := `# TYPE odf_x_ns histogram
odf_x_ns_bucket{le="2"} 5
odf_x_ns_bucket{le="+Inf"} 5
odf_x_ns_count 6
odf_x_ns_sum 10
# EOF
`
	if _, err := ParseOpenMetrics(strings.NewReader(doc)); err == nil {
		t.Fatal("+Inf/count mismatch accepted")
	}
}

func TestParseRejectsMissingInf(t *testing.T) {
	doc := `# TYPE odf_x_ns histogram
odf_x_ns_bucket{le="2"} 5
odf_x_ns_count 5
odf_x_ns_sum 10
# EOF
`
	if _, err := ParseOpenMetrics(strings.NewReader(doc)); err == nil {
		t.Fatal("histogram without +Inf bucket accepted")
	}
}

func TestParseRejectsOrphanSample(t *testing.T) {
	doc := "odf_mystery_total 1\n# EOF\n"
	if _, err := ParseOpenMetrics(strings.NewReader(doc)); err == nil {
		t.Fatal("sample outside any TYPE family accepted")
	}
}
