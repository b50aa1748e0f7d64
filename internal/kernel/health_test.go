package kernel

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func goldenHealthStats() HealthStats {
	return HealthStats{
		Status: "degraded",
		Checks: []CheckState{
			{Name: "fork_p99_breach", Firing: true, Observed: 61_250_000, Threshold: 50_000_000, Fires: 3},
			{Name: "admit_wait_spike", Firing: false, Observed: 4_100_000, Threshold: 100_000_000, Fires: 0},
			{Name: "swap_degraded", Firing: false, Observed: 0, Threshold: 1, Fires: 1},
			{Name: "oom_stall", Firing: false, Observed: 0, Threshold: 1, Fires: 0},
		},
	}
}

// TestProcHealthGolden pins the /proc/odf/health text format on a
// fixed watchdog verdict. A deliberate format change regenerates the
// file with `go test -update`.
func TestProcHealthGolden(t *testing.T) {
	k := New()
	k.SetHealth(goldenHealthStats())
	got, err := k.Procfs("/proc/odf/health")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "proc_health.golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
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
		t.Fatalf("/proc/odf/health differs from %s:\ngot:\n%s\nwant:\n%s", path, got, want)
	}

	// Published health slots into the listing alphabetically.
	listing, err := k.Procfs("/proc/odf")
	if err != nil {
		t.Fatal(err)
	}
	if want := "checkpoints\nfailpoints\nhealth\nmetrics\nprofile\ntenants\ntrace\nvmstat\n"; listing != want {
		t.Errorf("listing after publish = %q, want %q", listing, want)
	}

	// Re-publication replaces the verdict.
	st := goldenHealthStats()
	st.Status = "ok"
	st.Checks[0].Firing = false
	k.SetHealth(st)
	got, err = k.Procfs("/proc/odf/health")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(got, "status:\tok\n") || strings.Contains(got, "FIRING") {
		t.Errorf("re-published verdict not served:\n%s", got)
	}
}
