package kernel

import (
	"fmt"
	"strings"
	"sync"
)

// The kernel-side SLO publication slot: the serving/SLO harness
// (internal/slo) pushes its latest run summary here so it is readable
// through the same procfs namespace as the rest of the system's
// telemetry (/proc/odf/slo), the way the paper reads kernel state. The
// endpoint is unbacked until a snapshot is published.

// SLOStats is the published summary of one SLO harness run: the
// offered versus achieved request rate, the client-observed latency
// percentiles, and the fork-coincident versus quiescent tail split
// that attributes inflation to in-flight snapshot forks.
type SLOStats struct {
	App  string // serving application ("kv", "httpd")
	Mode string // snapshot fork engine ("classic", "on-demand-fork")

	OfferedRPS  float64
	AchievedRPS float64

	P50US  float64
	P99US  float64
	P999US float64
	MaxUS  float64

	ForkCoincidentCount uint64
	ForkCoincidentP99US float64
	QuiescentCount      uint64
	QuiescentP99US      float64

	Snapshots  uint64
	ForkMeanUS float64
}

type sloSlot struct {
	mu  sync.Mutex
	st  SLOStats
	set bool
}

// SetSLO publishes the latest SLO run summary, backing /proc/odf/slo.
func (k *Kernel) SetSLO(st SLOStats) {
	k.slo.mu.Lock()
	k.slo.st, k.slo.set = st, true
	k.slo.mu.Unlock()
}

// SLO returns the published SLO summary and whether one exists.
func (k *Kernel) SLO() (SLOStats, bool) {
	k.slo.mu.Lock()
	defer k.slo.mu.Unlock()
	return k.slo.st, k.slo.set
}

// renderSLO renders the /proc/odf/slo content.
func renderSLO(st SLOStats) string {
	var b strings.Builder
	fmt.Fprintf(&b, "app:\t%s\n", st.App)
	fmt.Fprintf(&b, "mode:\t%s\n", st.Mode)
	fmt.Fprintf(&b, "offered_rps:\t%.1f\n", st.OfferedRPS)
	fmt.Fprintf(&b, "achieved_rps:\t%.1f\n", st.AchievedRPS)
	fmt.Fprintf(&b, "p50_us:\t%.1f\n", st.P50US)
	fmt.Fprintf(&b, "p99_us:\t%.1f\n", st.P99US)
	fmt.Fprintf(&b, "p999_us:\t%.1f\n", st.P999US)
	fmt.Fprintf(&b, "max_us:\t%.1f\n", st.MaxUS)
	fmt.Fprintf(&b, "fork_coincident_count:\t%d\n", st.ForkCoincidentCount)
	fmt.Fprintf(&b, "fork_coincident_p99_us:\t%.1f\n", st.ForkCoincidentP99US)
	fmt.Fprintf(&b, "quiescent_count:\t%d\n", st.QuiescentCount)
	fmt.Fprintf(&b, "quiescent_p99_us:\t%.1f\n", st.QuiescentP99US)
	fmt.Fprintf(&b, "snapshots:\t%d\n", st.Snapshots)
	fmt.Fprintf(&b, "fork_mean_us:\t%.1f\n", st.ForkMeanUS)
	return b.String()
}
