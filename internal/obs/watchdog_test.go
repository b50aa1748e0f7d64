package obs

import (
	"strings"
	"testing"
	"time"

	"repro/internal/kernel"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// TestEvaluatePure exercises the rule set as a pure function of one
// interval's delta.
func TestEvaluatePure(t *testing.T) {
	cfg := WatchdogConfig{}
	cfg.fillDefaults()

	var quiet metrics.Snapshot
	for _, c := range evaluate(quiet, cfg) {
		if c.Firing {
			t.Fatalf("rule %s fires on an all-zero delta", c.Name)
		}
	}

	var hot metrics.Snapshot
	// One 200ms on-demand fork in the window: p99 lands near the max.
	var lat metrics.Histogram
	lat.Observe(200 * time.Millisecond)
	hot.Fork.Engines[metrics.EngineOnDemand].Latency = lat.Snapshot()
	hot.Robust.SwapDegrades = 2
	checks := evaluate(hot, cfg)
	byName := map[string]kernel.CheckState{}
	for _, c := range checks {
		byName[c.Name] = c
	}
	if !byName["fork_p99_breach"].Firing {
		t.Fatalf("fork_p99_breach not firing: %+v", byName["fork_p99_breach"])
	}
	if !byName["swap_degraded"].Firing {
		t.Fatal("swap_degraded not firing on SwapDegrades delta")
	}
	if byName["admit_wait_spike"].Firing || byName["oom_stall"].Firing {
		t.Fatal("unrelated rules fired")
	}
}

// TestWatchdogTick drives a real kernel through an ok → degraded → ok
// cycle: the first breach records one KindAlert instant and flips
// /proc/odf/health to degraded; recovery flips it back without
// re-alerting; a second breach alerts again (edge-triggered).
func TestWatchdogTick(t *testing.T) {
	k := kernel.New()
	k.SetTraceEnabled(true)
	w := NewWatchdog(k, WatchdogConfig{ForkP99NS: 1000})

	breach := func() {
		k.Metrics().Fork.Latency[metrics.EngineOnDemand].Observe(50 * time.Microsecond)
	}

	if st := w.Tick(); st.Status != "ok" {
		t.Fatalf("quiet tick status = %q", st.Status)
	}
	breach()
	st := w.Tick()
	if st.Status != "degraded" {
		t.Fatalf("breach tick status = %q", st.Status)
	}
	if st.Checks[0].Fires != 1 {
		t.Fatalf("fires = %d after first breach", st.Checks[0].Fires)
	}

	// The verdict renders through procfs.
	out, err := k.Procfs("/proc/odf/health")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "status:\tdegraded") || !strings.Contains(out, "check.fork_p99_breach:\tFIRING") {
		t.Fatalf("/proc/odf/health missing verdict:\n%s", out)
	}

	// Recovery: no new observations, the delta is clean.
	if st := w.Tick(); st.Status != "ok" {
		t.Fatalf("recovery tick status = %q", st.Status)
	}
	if st := w.Tick(); st.Checks[0].Fires != 1 {
		t.Fatalf("fires moved without a new breach: %d", st.Checks[0].Fires)
	}
	breach()
	if st := w.Tick(); st.Checks[0].Fires != 2 {
		t.Fatalf("fires = %d after second breach", st.Checks[0].Fires)
	}

	// Exactly two alert instants on the flight recorder.
	alerts := 0
	for _, e := range k.TraceSnapshot().Events {
		if e.Kind == trace.KindAlert {
			alerts++
			if e.Arg1 != trace.AlertForkP99 {
				t.Fatalf("alert code %d, want AlertForkP99", e.Arg1)
			}
		}
	}
	if alerts != 2 {
		t.Fatalf("alert instants = %d, want 2 (edge-triggered)", alerts)
	}
}

// TestProcHealthUnbackedUntilPublished pins the endpoint lifecycle:
// absent before any verdict, listed and readable after.
func TestProcHealthUnbackedUntilPublished(t *testing.T) {
	k := kernel.New()
	if _, err := k.Procfs("/proc/odf/health"); err == nil {
		t.Fatal("/proc/odf/health readable before any verdict")
	}
	root, err := k.Procfs("/proc/odf")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(root, "health") {
		t.Fatal("root listing shows unbacked health endpoint")
	}
	k.SetHealth(kernel.HealthStats{Status: "ok"})
	if _, err := k.Procfs("/proc/odf/health"); err != nil {
		t.Fatalf("published health unreadable: %v", err)
	}
	root, err = k.Procfs("/proc/odf")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(root, "health") {
		t.Fatal("root listing missing published health endpoint")
	}
}
