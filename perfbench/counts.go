package main

import (
	"os"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/kernel"
	"repro/internal/mem/phys"
	ometrics "repro/internal/metrics"
)

// counts is a flat set of work counters read from the program's public
// telemetry (Kernel.MetricsSnapshot, Tenants().StatsAll). Deltas of two
// readings are what one phase charged.
type counts map[string]float64

// kernelCounts reads k's counters.
func kernelCounts(k *kernel.Kernel) counts {
	s := k.MetricsSnapshot()
	c := countsOf(s)
	for _, t := range k.Tenants().StatsAll() {
		c["tenant.admitted"] += float64(t.ForksAdmitted)
		c["tenant.queued"] += float64(t.ForksQueued)
		c["tenant.rejected"] += float64(t.ForksRejected)
		c["tenant.timed_out"] += float64(t.ForksTimedOut)
		c["tenant.wait_count"] += float64(t.QueueWait.Count)
		c["tenant.wait_ns"] += float64(t.QueueWait.SumNS)
	}
	return c
}

func countsOf(s ometrics.Snapshot) counts {
	return counts{
		"fork.count":          float64(s.Fork.Classic().Forks + s.Fork.OnDemand().Forks),
		"fork.tables_shared":  float64(s.Fork.TablesShared + s.Fork.PMDTablesShared),
		"fault.read":          float64(s.Fault.ReadFaults),
		"fault.write":         float64(s.Fault.WriteFaults),
		"fault.table_copies":  float64(s.Fault.TableSplits + s.Fault.PMDSplits),
		"fault.page_copies":   float64(s.Fault.PageCopies + s.Fault.HugeCopies),
		"fault.zero_elides":   float64(s.Fault.ZeroElides),
		"alloc.shard_hits":    float64(s.Alloc.ShardHits),
		"alloc.refills":       float64(s.Alloc.ShardRefills),
		"alloc.drains":        float64(s.Alloc.ShardDrains),
		"tlb.hits":            float64(s.TLB.Hits),
		"tlb.misses":          float64(s.TLB.Misses),
		"tlb.flushes":         float64(s.TLB.Flushes),
		"tlb.shootdowns":      float64(s.TLB.Shootdowns),
		"reclaim.swapins":     float64(s.Reclaim.PswpIn),
		"reclaim.swapouts":    float64(s.Reclaim.PswpOut),
		"reclaim.direct":      float64(s.Reclaim.DirectReclaims),
		"reclaim.kswapd":      float64(s.Reclaim.KswapdWakeups),
		"reclaim.scanned":     float64(s.Reclaim.PgScanKswapd + s.Reclaim.PgScanDirect),
		"reclaim.stolen":      float64(s.Reclaim.PgStealKswapd + s.Reclaim.PgStealDirect),
		"ckpt.writes":         float64(s.Ckpt.Checkpoints),
		"ckpt.bytes":          float64(s.Ckpt.BytesWritten),
		"ckpt.pages_skipped":  float64(s.Ckpt.PagesSkipped),
		"ckpt.pageins":        float64(s.Ckpt.PageIns),
		"ckpt.chunk_loads":    float64(s.Ckpt.ChunkLoads),
		"ckpt.read_retries":   float64(s.Ckpt.ReadRetries),
		"robust.fork_aborts":  float64(s.Robust.ForkAborts),
		"robust.swap_errors":  float64(s.Robust.SwapReadErrors + s.Robust.SwapWriteErrors),
		"robust.ckpt_errors":  float64(s.Ckpt.ReadErrors + s.Ckpt.Corruptions),
		"robust.kswapd_error": float64(s.Robust.KswapdErrors),
	}
}

// sub returns c − prev.
func (c counts) sub(prev counts) counts {
	d := counts{}
	for k, v := range c {
		d[k] = v - prev[k]
	}
	return d
}

// add adds o into c.
func (c counts) add(o counts) {
	for k, v := range o {
		c[k] += v
	}
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// hostReading is the process and runtime state a phase is measured
// against.
type hostReading struct {
	numGC      int64
	allocBytes uint64
	cpu        time.Duration // user+system CPU of the process
	steal      stealTicks
}

var gcSamples = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

func readHost() hostReading {
	var st debug.GCStats
	debug.ReadGCStats(&st)
	s := append([]metrics.Sample(nil), gcSamples...)
	metrics.Read(s)
	return hostReading{numGC: st.NumGC, allocBytes: s[0].Value.Uint64(), cpu: processCPU(), steal: readSteal()}
}

// hostDelta is what the process and the Go runtime did during a phase.
type hostDelta struct {
	cycles     int64
	pauseP99US float64
	allocBytes uint64
	cpu        time.Duration
	stealFrac  float64 // share of the host's CPU time the hypervisor took
}

func hostSince(prev hostReading) hostDelta {
	var st debug.GCStats
	st.Pause = make([]time.Duration, 0, 256)
	debug.ReadGCStats(&st)
	now := readHost()
	d := hostDelta{
		cycles:     st.NumGC - prev.numGC,
		allocBytes: now.allocBytes - prev.allocBytes,
		cpu:        now.cpu - prev.cpu,
		stealFrac:  ratio(float64(now.steal.steal-prev.steal.steal), float64(now.steal.total-prev.steal.total)),
	}
	// Pause holds the most recent pauses first (at most 256 kept).
	n := int(d.cycles)
	if n > len(st.Pause) {
		n = len(st.Pause)
	}
	ps := make([]float64, 0, n)
	for _, p := range st.Pause[:n] {
		ps = append(ps, float64(p)/1e3)
	}
	sort.Float64s(ps)
	d.pauseP99US = percentile(ps, 99)
	return d
}

// processCPU returns the user+system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stealTicks is the host-wide CPU time split read from /proc/stat.
type stealTicks struct{ steal, total uint64 }

// readSteal reads how much CPU time a hypervisor has taken from this
// machine (zero where /proc/stat is absent).
func readSteal() stealTicks {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return stealTicks{}
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	var t stealTicks
	for i := 1; i < len(f) && i <= 8; i++ {
		v, _ := strconv.ParseUint(f[i], 10, 64)
		t.total += v
		if i == 8 {
			t.steal = v
		}
	}
	return t
}

// phaseSampler samples, every 10 ms while a phase runs, the live Go
// heap (as marked by the latest GC) and the frames a kernel's allocator
// holds. The heap's median is the host memory the served system and the
// benchmark hold; unlike a peak, it does not depend on which transient
// allocation a collection happened to catch. The frames' maximum is the
// phase's own high-water mark, which the allocator's all-time peak
// cannot give once set-up has passed it.
type phaseSampler struct {
	stop      chan struct{}
	done      chan struct{}
	heap      []float64 // MiB
	framesMax int64
}

func startPhaseSampler(a *phys.Allocator) *phaseSampler {
	h := &phaseSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			h.heap = append(h.heap, float64(s[0].Value.Uint64())/(1<<20))
			h.framesMax = max(h.framesMax, a.Allocated())
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// finish stops sampling and returns the median live heap in MiB and the
// most frames any sample saw.
func (h *phaseSampler) finish() (heapMiB float64, framesMax int64) {
	close(h.stop)
	<-h.done
	return percentile(sortedCopy(h.heap), 50), h.framesMax
}
