package kernel

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func goldenSLOStats() SLOStats {
	return SLOStats{
		App:                 "kv",
		Mode:                "on-demand-fork",
		OfferedRPS:          12000,
		AchievedRPS:         11987.3,
		P50US:               83.4,
		P99US:               412.9,
		P999US:              1203.5,
		MaxUS:               2210.7,
		ForkCoincidentCount: 241,
		ForkCoincidentP99US: 1180.2,
		QuiescentCount:      23759,
		QuiescentP99US:      301.8,
		Snapshots:           12,
		ForkMeanUS:          96.5,
	}
}

// TestProcSLOGolden pins the /proc/odf/slo text format on a fixed
// published summary. A deliberate format change regenerates the file
// with `go test -update`.
func TestProcSLOGolden(t *testing.T) {
	k := New()
	// Unbacked until a summary is published.
	if _, err := k.Procfs("/proc/odf/slo"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("slo before publish = %v, want fs.ErrNotExist", err)
	}
	listing, err := k.Procfs("/proc/odf")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(listing, "slo") {
		t.Errorf("unbacked slo listed:\n%s", listing)
	}

	k.SetSLO(goldenSLOStats())
	got, err := k.Procfs("/proc/odf/slo")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "proc_slo.golden")
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
		t.Fatalf("/proc/odf/slo differs from %s:\ngot:\n%s\nwant:\n%s", path, got, want)
	}

	// Published: listed between metrics and trace (alphabetical order).
	listing, err = k.Procfs("/proc/odf")
	if err != nil {
		t.Fatal(err)
	}
	if want := "checkpoints\nfailpoints\nmetrics\nprofile\nslo\ntenants\ntrace\nvmstat\n"; listing != want {
		t.Errorf("listing after publish = %q, want %q", listing, want)
	}

	// Re-publication replaces the summary.
	st := goldenSLOStats()
	st.Snapshots = 99
	k.SetSLO(st)
	got, err = k.Procfs("/proc/odf/slo")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(got, "snapshots:\t99\n") {
		t.Errorf("re-published summary not served:\n%s", got)
	}
}
