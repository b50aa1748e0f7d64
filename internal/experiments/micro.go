// Package experiments regenerates every table and figure in the
// paper's evaluation (§5) from the simulated kernel: the fork-latency
// sweeps (Figures 2, 4, 7), the profile attribution (Figure 3), the
// fault-cost comparison (Table 1), the fork-plus-access sweeps
// (Figure 8), and the application studies (Figure 9, Tables 2–5,
// Figure 10, Tables 6–7). Each Run* function returns a rendered
// plain-text artifact plus the underlying data, and is wired to both
// the odf-bench CLI and the repository's benchmark suite.
package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/mem/vm"
	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/workload"
)

// MiB and GiB express experiment sizes.
const (
	MiB = uint64(1) << 20
	GiB = uint64(1) << 30
)

// SizeLabel renders a byte count the way the paper's axes do.
func SizeLabel(b uint64) string {
	switch {
	case b >= GiB:
		return fmt.Sprintf("%gGB", float64(b)/float64(GiB))
	default:
		return fmt.Sprintf("%gMB", float64(b)/float64(MiB))
	}
}

// SweepSizes returns the memory sizes for latency sweeps: powers of two
// from 128 MiB up to maxBytes (the paper sweeps 0.5–50 GB; the default
// simulation cap keeps host cost bounded — see DESIGN.md §6).
func SweepSizes(maxBytes uint64) []uint64 {
	var out []uint64
	for s := 128 * MiB; s <= maxBytes; s *= 2 {
		out = append(out, s)
	}
	return out
}

// Fig2Row is one point of Figure 2.
type Fig2Row struct {
	Size              uint64
	SeqMS, SeqMinMS   float64
	ConcMS, ConcMinMS float64
}

// RunFig2 measures classic fork latency over the size sweep, once
// sequentially and once with three concurrent benchmark instances.
func RunFig2(maxBytes uint64, reps int) ([]Fig2Row, string, error) {
	k := kernel.New()
	base := k.MetricsSnapshot()
	var rows []Fig2Row
	cfg := workload.Config{Mode: core.ForkClassic}
	for _, size := range SweepSizes(maxBytes) {
		seq, err := workload.MeasureForkLatency(k, cfg, size, reps)
		if err != nil {
			return nil, "", err
		}
		conc, err := workload.MeasureForkLatencyConcurrent(k, cfg, size, reps, 3)
		if err != nil {
			return nil, "", err
		}
		rows = append(rows, Fig2Row{
			Size:      size,
			SeqMS:     seq.Lat.Mean,
			SeqMinMS:  seq.Lat.Min,
			ConcMS:    conc.Lat.Mean,
			ConcMinMS: conc.Lat.Min,
		})
	}
	tb := stats.NewTable("size", "sequential (ms)", "seq min", "concurrent 3x (ms)", "conc min")
	for _, r := range rows {
		tb.AddRow(SizeLabel(r.Size), r.SeqMS, r.SeqMinMS, r.ConcMS, r.ConcMinMS)
	}
	return rows, header("Figure 2: fork execution time vs allocated memory") + tb.String() +
		metricsFooter(k, base), nil
}

// RunFig3 reproduces the Figure 3 profile: repeated classic forks of a
// fixed-size process, with the cost attribution of the simulated kernel
// functions computed from the metrics counters (see DESIGN.md for the
// perf substitution). Only the forks are measured — each contributes
// the metrics delta around its Fork call — so child teardown stays out
// of the profile, like perf's fork focus.
func RunFig3(size uint64, reps int) ([]metrics.CostRow, string, error) {
	k := kernel.New()
	p := k.NewProcess()
	defer p.Exit()
	if _, err := p.Mmap(size, vm.ProtRead|vm.ProtWrite, vm.MapPrivate|vm.MapPopulate); err != nil {
		return nil, "", err
	}
	deltas := make([]metrics.Snapshot, 0, reps)
	for i := 0; i < reps; i++ {
		before := k.MetricsSnapshot()
		c, err := p.Fork(kernel.WithMode(core.ForkClassic))
		if err != nil {
			return nil, "", err
		}
		deltas = append(deltas, k.MetricsSnapshot().Sub(before))
		c.Exit()
	}
	rows := metrics.Attribution(deltas...)
	out := header(fmt.Sprintf("Figure 3: classic fork profile (%s, %d forks)", SizeLabel(size), reps)) +
		metrics.RenderAttribution(rows)
	return rows, out, nil
}

// Fig7Row is one point of Figures 4 and 7. Min values are reported
// alongside means because they are robust to host-side noise (GC
// pauses land in individual samples).
type Fig7Row struct {
	Size                                uint64
	ForkMS, HugeMS, OnDemandMS          float64
	ForkMinMS, HugeMinMS, OnDemandMinMS float64
}

// RunFig7 measures invocation latency for all three engines over the
// sweep (Figure 7; the huge-page column alone is Figure 4).
func RunFig7(maxBytes uint64, reps int) ([]Fig7Row, string, error) {
	k := kernel.New()
	base := k.MetricsSnapshot()
	var rows []Fig7Row
	for _, size := range SweepSizes(maxBytes) {
		row := Fig7Row{Size: size}
		for _, cfg := range []struct {
			c        workload.Config
			dst, min *float64
		}{
			{workload.Config{Mode: core.ForkClassic}, &row.ForkMS, &row.ForkMinMS},
			{workload.Config{Mode: core.ForkClassic, Huge: true}, &row.HugeMS, &row.HugeMinMS},
			{workload.Config{Mode: core.ForkOnDemand}, &row.OnDemandMS, &row.OnDemandMinMS},
		} {
			res, err := workload.MeasureForkLatency(k, cfg.c, size, reps)
			if err != nil {
				return nil, "", err
			}
			*cfg.dst = res.Lat.Mean
			*cfg.min = res.Lat.Min
		}
		rows = append(rows, row)
	}
	tb := stats.NewTable("size", "fork (ms)", "fork w/ huge pages (ms)", "on-demand-fork (ms)", "speedup")
	for _, r := range rows {
		tb.AddRow(SizeLabel(r.Size), r.ForkMS, r.HugeMS, r.OnDemandMS,
			fmt.Sprintf("%.1fx", r.ForkMS/r.OnDemandMS))
	}
	return rows, header("Figures 4+7: fork invocation latency by engine") + tb.String() +
		metricsFooter(k, base), nil
}

// Tab1Row is one row of Table 1.
type Tab1Row struct {
	Name   string
	MeanMS float64
}

// RunTab1 measures the worst-case page-fault cost for each engine.
func RunTab1(size uint64, reps int) ([]Tab1Row, string, error) {
	k := kernel.New()
	base := k.MetricsSnapshot()
	var rows []Tab1Row
	for _, cfg := range []workload.Config{
		{Mode: core.ForkClassic},
		{Mode: core.ForkClassic, Huge: true},
		{Mode: core.ForkOnDemand},
	} {
		sum, err := workload.MeasureFaultCost(k, cfg, size, reps)
		if err != nil {
			return nil, "", err
		}
		rows = append(rows, Tab1Row{Name: cfg.Name(), MeanMS: sum.Mean})
	}
	tb := stats.NewTable("type", "avg. time (ms)")
	for _, r := range rows {
		tb.AddRow(r.Name, r.MeanMS)
	}
	return rows, header(fmt.Sprintf("Table 1: worst-case page fault cost (%s region)", SizeLabel(size))) +
		tb.String() + metricsFooter(k, base), nil
}

// RunFig8 sweeps the fraction of memory accessed after fork for the
// paper's five read/write mixes, reporting the time reduction of
// on-demand-fork over classic fork.
func RunFig8(size uint64, reps int) ([]workload.AccessMixResult, string, error) {
	k := kernel.New()
	base := k.MetricsSnapshot()
	accessed := []int{0, 20, 40, 60, 80, 100}
	readMixes := []int{0, 25, 50, 75, 100}
	var rows []workload.AccessMixResult
	tb := stats.NewTable("accessed %", "read %", "fork (ms)", "odf (ms)", "reduction %")
	for _, rm := range readMixes {
		for _, ac := range accessed {
			res, err := workload.MeasureAccessMix(k, size, ac, rm, reps)
			if err != nil {
				return nil, "", err
			}
			rows = append(rows, res)
			tb.AddRow(res.AccessedPct, res.ReadPct, res.ClassicMS, res.ODFMS, res.ReductionPC)
		}
	}
	return rows, header(fmt.Sprintf("Figure 8: total cost vs memory accessed (%s region)", SizeLabel(size))) +
		tb.String() + metricsFooter(k, base), nil
}

func header(title string) string {
	return title + "\n" + strings.Repeat("=", len(title)) + "\n"
}
