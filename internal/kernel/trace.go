package kernel

import (
	"fmt"
	"io"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// The kernel-level view of the flight recorder (internal/trace): one
// tracer per kernel, created disabled at boot and inherited by every
// subsystem through the allocator. These methods are the substrate of
// the odfork v1 tracing API and of /proc/odf/trace.

// Tracer returns the kernel's flight recorder. It is never nil for a
// kernel built with New.
func (k *Kernel) Tracer() *trace.Tracer { return k.trc }

// SetTraceEnabled switches flight recording on or off. Enabling starts
// from a clean timeline (the ring and timebase reset), so a
// trace covers exactly the window between enable and snapshot;
// disabling freezes the recorded events for inspection.
func (k *Kernel) SetTraceEnabled(on bool) {
	if on && !k.trc.Enabled() {
		k.trc.Reset()
	}
	k.trc.SetEnabled(on)
}

// TraceEnabled reports whether the flight recorder is recording.
func (k *Kernel) TraceEnabled() bool { return k.trc.Enabled() }

// TraceSnapshot captures the recorded timeline: events sorted by time
// plus the count dropped to ring overwrite.
func (k *Kernel) TraceSnapshot() trace.Snapshot { return k.trc.Snapshot() }

// WriteTrace renders the current timeline to w in the given format
// (trace.FormatChrome loads in Perfetto; trace.FormatText matches
// /proc/odf/trace). Chrome exports carry the latency-histogram
// exemplars in the document metadata, so a p99 bucket's worst
// observations link back to their request flows in the same file.
func (k *Kernel) WriteTrace(w io.Writer, f trace.Format) error {
	if f == trace.FormatChrome {
		extra := k.traceExtra()
		return trace.WriteChromeExtra(w, k.trc.Snapshot(), &extra)
	}
	return trace.WriteTo(w, k.trc.Snapshot(), f)
}

// traceExtra gathers the exemplar references a Chrome export embeds:
// every worst-N observation the global and per-tenant latency
// histograms currently hold, named by the metric series it came from.
func (k *Kernel) traceExtra() trace.ChromeExtra {
	var extra trace.ChromeExtra
	add := func(series string, hs metrics.HistogramSnapshot) {
		for _, e := range hs.Exemplars {
			extra.Exemplars = append(extra.Exemplars,
				trace.ExemplarRef{Series: series, NS: e.NS, Req: e.Req})
		}
	}
	s := k.met.Snapshot()
	for e := metrics.ForkEngine(0); e < metrics.NumEngines; e++ {
		add(fmt.Sprintf("fork.%s.latency", e), s.Fork.Engines[e].Latency)
	}
	add("fault.read.latency", s.Fault.ReadLatency)
	add("fault.write.latency", s.Fault.WriteLatency)
	add("fault.table_copy.latency", s.Fault.TableCopyLatency)
	add("reclaim.swap_in.latency", s.Reclaim.SwapInLatency)
	for _, t := range s.Tenants {
		p := fmt.Sprintf("tenant.%d.", t.ID)
		for e := metrics.ForkEngine(0); e < metrics.NumEngines; e++ {
			add(fmt.Sprintf("%sfork.%s.latency", p, e), t.ForkLatency[e])
		}
		add(p+"queue_wait", t.QueueWait)
	}
	return extra
}

// procEndpoint is one file under /proc/odf. read returns the content,
// or ok=false when the endpoint is not backed right now (the health or
// slo endpoint before anything is published).
type procEndpoint struct {
	name string
	read func() (string, bool)
}

// buildProcEndpoints returns the /proc/odf registry in its fixed
// (alphabetical) order — the order the root listing shows and tests
// pin down.
func (k *Kernel) buildProcEndpoints() []procEndpoint {
	return []procEndpoint{
		{"checkpoints", func() (string, bool) { return k.renderCheckpoints(), true }},
		{"failpoints", func() (string, bool) { return k.fail.Status(), true }},
		{"health", func() (string, bool) {
			st, ok := k.Health()
			if !ok {
				return "", false
			}
			return RenderHealth(st), true
		}},
		{"metrics", func() (string, bool) { return k.MetricsSnapshot().Render(), true }},
		{"profile", func() (string, bool) {
			return metrics.RenderAttribution(metrics.Attribution(k.MetricsSnapshot())), true
		}},
		{"slo", func() (string, bool) {
			st, ok := k.SLO()
			if !ok {
				return "", false
			}
			return renderSLO(st), true
		}},
		{"tenants", func() (string, bool) { return k.tenants.Render(), true }},
		{"trace", func() (string, bool) { return trace.RenderText(k.trc.Snapshot()), true }},
		{"vmstat", func() (string, bool) { return k.Vmstat(), true }},
	}
}
