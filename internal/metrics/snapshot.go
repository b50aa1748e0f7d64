package metrics

import (
	"fmt"
	"strings"
)

// Exemplar is one worst-case observation with the request id that
// produced it — the link from a histogram's tail to a trace flow.
type Exemplar struct {
	NS  uint64
	Req uint64
}

// HistogramSnapshot is a point-in-time copy of a Histogram.
type HistogramSnapshot struct {
	Count uint64
	SumNS uint64
	MaxNS uint64
	// Counts holds the observation count of each slot (see slotOf),
	// trimmed after the last non-zero slot: nil when empty, and only
	// as long as the largest observation needs.
	Counts []uint64 `json:",omitempty"`
	// Exemplars are the worst tagged observations, largest first
	// (empty unless ObserveTagged ran with nonzero request ids).
	Exemplars []Exemplar
}

// trimCounts drops the zero slots after the last non-zero one.
func trimCounts(c []uint64) []uint64 {
	n := len(c)
	for n > 0 && c[n-1] == 0 {
		n--
	}
	return c[:n]
}

// Mean returns the mean observation in nanoseconds (0 when empty).
func (h HistogramSnapshot) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.SumNS) / float64(h.Count)
}

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) in nanoseconds by the
// nearest-rank rule: the rank-th smallest observation, rank = ⌊q·Count⌋
// clamped to [1, Count], reported as the upper edge of the slot holding
// it and clamped to MaxNS. The result is never below that observation
// and at most 2^-5 above it (exact below 32 ns); a rank in the overflow
// slot reports MaxNS, and an empty histogram reports 0.
func (h HistogramSnapshot) Quantile(q float64) uint64 {
	if h.Count == 0 {
		return 0
	}
	rank := uint64(min(max(q, 0), 1) * float64(h.Count))
	rank = max(rank, 1)
	var seen uint64
	for i, n := range h.Counts {
		seen += n
		if seen >= rank {
			if i == overflowSlot {
				return h.MaxNS
			}
			return min(slotLow(i+1)-1, h.MaxNS)
		}
	}
	return h.MaxNS
}

// Log2Buckets rolls the slots up into the HistBuckets+1 log₂ buckets the
// exposition formats show. Each slot lies inside one log₂ bucket, so the
// rollup is exact.
func (h HistogramSnapshot) Log2Buckets() [HistBuckets + 1]uint64 {
	var b [HistBuckets + 1]uint64
	for i, n := range h.Counts {
		b[Log2Bucket(slotLow(i))] += n
	}
	return b
}

// Sub returns the histogram delta h − prev. Count, sum, and slots
// subtract; MaxNS and the exemplars keep the current values, since a
// maximum cannot be un-observed (exact for deltas taken against a
// fresh registry).
func (h HistogramSnapshot) Sub(prev HistogramSnapshot) HistogramSnapshot {
	d := HistogramSnapshot{
		Count:     h.Count - prev.Count,
		SumNS:     h.SumNS - prev.SumNS,
		MaxNS:     h.MaxNS,
		Exemplars: h.Exemplars,
	}
	c := append([]uint64(nil), h.Counts...)
	for i := range min(len(c), len(prev.Counts)) {
		c[i] -= prev.Counts[i]
	}
	if c = trimCounts(c); len(c) > 0 {
		d.Counts = c
	}
	return d
}

// EngineSnapshot is one fork engine's view.
type EngineSnapshot struct {
	Forks   uint64
	Latency HistogramSnapshot
}

// ForkSnapshot covers both fork engines and the fan-out machinery.
type ForkSnapshot struct {
	Engines         [NumEngines]EngineSnapshot
	TablesShared    uint64
	TablesCopied    uint64
	PMDTablesShared uint64
	ParallelForks   uint64
	ParallelTasks   uint64
	PTEsCopied      uint64
	UpperWalks      uint64
}

// Classic returns the eager-copy engine's view.
func (f ForkSnapshot) Classic() EngineSnapshot { return f.Engines[EngineClassic] }

// OnDemand returns the on-demand-fork engine's view.
func (f ForkSnapshot) OnDemand() EngineSnapshot { return f.Engines[EngineOnDemand] }

// FaultSnapshot covers the software fault handler.
type FaultSnapshot struct {
	ReadFaults       uint64
	WriteFaults      uint64
	ReadLatency      HistogramSnapshot
	WriteLatency     HistogramSnapshot
	TableCopyLatency HistogramSnapshot
	TableSplits      uint64
	PMDSplits        uint64
	FastDedups       uint64
	PageCopies       uint64
	HugeCopies       uint64
	ZeroElides       uint64
	Segfaults        uint64
}

// AllocSnapshot covers the physical frame allocator. The three gauges
// at the bottom describe allocator state at snapshot time rather than
// cumulative events.
type AllocSnapshot struct {
	ShardHits    uint64
	ShardRefills uint64
	ShardDrains  uint64
	HugeAllocs   uint64
	RefIncs      uint64
	FramesInUse  int64 // gauge: frames currently allocated
	FramesPeak   int64 // gauge: high-water mark of FramesInUse
	ShardCached  int64 // gauge: free frames parked in shard caches
}

// ReclaimSnapshot covers the memory reclaim subsystem.
type ReclaimSnapshot struct {
	PgScanKswapd       uint64
	PgScanDirect       uint64
	PgStealKswapd      uint64
	PgStealDirect      uint64
	PswpIn             uint64
	PswpOut            uint64
	HugeSplits         uint64
	KswapdWakeups      uint64
	DirectReclaims     uint64
	SwapInLatency      HistogramSnapshot
	SwapOutLatency     HistogramSnapshot
	DirectStallLatency HistogramSnapshot
}

// TLBSnapshot aggregates every process's software TLB.
type TLBSnapshot struct {
	Hits       uint64
	Misses     uint64
	Flushes    uint64
	Shootdowns uint64
}

// RobustSnapshot covers the error-path machinery: faults injected by
// the failpoint registry (InjectedFaults is registry state overlaid by
// the kernel at snapshot time, like the allocator gauges) and the
// recoveries, retries, and degradations the system actually performed.
type RobustSnapshot struct {
	InjectedFaults   uint64 // overlay: failpoint registry fire total
	ForkAborts       uint64
	SwapReadRetries  uint64
	SwapWriteRetries uint64
	SwapReadErrors   uint64
	SwapWriteErrors  uint64
	SwapCorruptions  uint64
	SwapDegrades     uint64
	KswapdErrors     uint64
}

// CkptSnapshot covers the durable-checkpoint subsystem: capture-side
// volume (pages/bytes written, incremental skips), restore-side lazy
// page-ins, and the read-error ladder mirroring RobustSnapshot's swap
// counters.
type CkptSnapshot struct {
	Checkpoints   uint64
	PagesWritten  uint64
	BytesWritten  uint64
	PagesSkipped  uint64
	Restores      uint64
	PageIns       uint64
	ChunkLoads    uint64
	ReadRetries   uint64
	ReadErrors    uint64
	Corruptions   uint64
	Degrades      uint64
	WriteLatency  HistogramSnapshot
	PageInLatency HistogramSnapshot
}

// TenantSnapshot covers the multi-tenant control plane's system-wide
// admission and fair-share reclaim counters. Per-tenant breakdowns are
// served by /proc/odf/tenants.
type TenantSnapshot struct {
	ForksAdmitted uint64
	ForksQueued   uint64
	ForksRejected uint64
	QueueWait     HistogramSnapshot
	FairEvictions uint64
}

// TenantSlotSnapshot is one tenant's partition of the hot metrics.
type TenantSlotSnapshot struct {
	ID   uint64
	Name string

	Forks       [NumEngines]uint64
	ForkLatency [NumEngines]HistogramSnapshot

	TableSplits uint64
	PMDSplits   uint64
	FastDedups  uint64
	PageCopies  uint64
	HugeCopies  uint64
	SwapIns     uint64

	QueueWait        HistogramSnapshot
	ReclaimEvictions uint64
	QuotaRejections  uint64
}

// Sub returns the per-tenant delta t − prev.
func (t TenantSlotSnapshot) Sub(prev TenantSlotSnapshot) TenantSlotSnapshot {
	d := TenantSlotSnapshot{ID: t.ID, Name: t.Name}
	for e := range t.Forks {
		d.Forks[e] = t.Forks[e] - prev.Forks[e]
		d.ForkLatency[e] = t.ForkLatency[e].Sub(prev.ForkLatency[e])
	}
	d.TableSplits = t.TableSplits - prev.TableSplits
	d.PMDSplits = t.PMDSplits - prev.PMDSplits
	d.FastDedups = t.FastDedups - prev.FastDedups
	d.PageCopies = t.PageCopies - prev.PageCopies
	d.HugeCopies = t.HugeCopies - prev.HugeCopies
	d.SwapIns = t.SwapIns - prev.SwapIns
	d.QueueWait = t.QueueWait.Sub(prev.QueueWait)
	d.ReclaimEvictions = t.ReclaimEvictions - prev.ReclaimEvictions
	d.QuotaRejections = t.QuotaRejections - prev.QuotaRejections
	return d
}

// Snapshot is the typed telemetry tree the public API returns.
type Snapshot struct {
	Fork    ForkSnapshot
	Fault   FaultSnapshot
	Alloc   AllocSnapshot
	Reclaim ReclaimSnapshot
	TLB     TLBSnapshot
	Robust  RobustSnapshot
	Ckpt    CkptSnapshot
	Tenant  TenantSnapshot
	// Tenants are the per-tenant metric partitions, sorted by id
	// (empty when no tenants are registered).
	Tenants []TenantSlotSnapshot
}

// Sub returns the delta s − prev: counters and histograms subtract,
// gauges (frames in use/peak, shard-cached) keep the current value.
// Experiments use this to report what one run charged.
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	var d Snapshot
	for i := range s.Fork.Engines {
		d.Fork.Engines[i] = EngineSnapshot{
			Forks:   s.Fork.Engines[i].Forks - prev.Fork.Engines[i].Forks,
			Latency: s.Fork.Engines[i].Latency.Sub(prev.Fork.Engines[i].Latency),
		}
	}
	d.Fork.TablesShared = s.Fork.TablesShared - prev.Fork.TablesShared
	d.Fork.TablesCopied = s.Fork.TablesCopied - prev.Fork.TablesCopied
	d.Fork.PMDTablesShared = s.Fork.PMDTablesShared - prev.Fork.PMDTablesShared
	d.Fork.ParallelForks = s.Fork.ParallelForks - prev.Fork.ParallelForks
	d.Fork.ParallelTasks = s.Fork.ParallelTasks - prev.Fork.ParallelTasks
	d.Fork.PTEsCopied = s.Fork.PTEsCopied - prev.Fork.PTEsCopied
	d.Fork.UpperWalks = s.Fork.UpperWalks - prev.Fork.UpperWalks

	d.Fault.ReadFaults = s.Fault.ReadFaults - prev.Fault.ReadFaults
	d.Fault.WriteFaults = s.Fault.WriteFaults - prev.Fault.WriteFaults
	d.Fault.ReadLatency = s.Fault.ReadLatency.Sub(prev.Fault.ReadLatency)
	d.Fault.WriteLatency = s.Fault.WriteLatency.Sub(prev.Fault.WriteLatency)
	d.Fault.TableCopyLatency = s.Fault.TableCopyLatency.Sub(prev.Fault.TableCopyLatency)
	d.Fault.TableSplits = s.Fault.TableSplits - prev.Fault.TableSplits
	d.Fault.PMDSplits = s.Fault.PMDSplits - prev.Fault.PMDSplits
	d.Fault.FastDedups = s.Fault.FastDedups - prev.Fault.FastDedups
	d.Fault.PageCopies = s.Fault.PageCopies - prev.Fault.PageCopies
	d.Fault.HugeCopies = s.Fault.HugeCopies - prev.Fault.HugeCopies
	d.Fault.ZeroElides = s.Fault.ZeroElides - prev.Fault.ZeroElides
	d.Fault.Segfaults = s.Fault.Segfaults - prev.Fault.Segfaults

	d.Alloc.ShardHits = s.Alloc.ShardHits - prev.Alloc.ShardHits
	d.Alloc.ShardRefills = s.Alloc.ShardRefills - prev.Alloc.ShardRefills
	d.Alloc.ShardDrains = s.Alloc.ShardDrains - prev.Alloc.ShardDrains
	d.Alloc.HugeAllocs = s.Alloc.HugeAllocs - prev.Alloc.HugeAllocs
	d.Alloc.RefIncs = s.Alloc.RefIncs - prev.Alloc.RefIncs
	d.Alloc.FramesInUse = s.Alloc.FramesInUse
	d.Alloc.FramesPeak = s.Alloc.FramesPeak
	d.Alloc.ShardCached = s.Alloc.ShardCached

	d.Reclaim.PgScanKswapd = s.Reclaim.PgScanKswapd - prev.Reclaim.PgScanKswapd
	d.Reclaim.PgScanDirect = s.Reclaim.PgScanDirect - prev.Reclaim.PgScanDirect
	d.Reclaim.PgStealKswapd = s.Reclaim.PgStealKswapd - prev.Reclaim.PgStealKswapd
	d.Reclaim.PgStealDirect = s.Reclaim.PgStealDirect - prev.Reclaim.PgStealDirect
	d.Reclaim.PswpIn = s.Reclaim.PswpIn - prev.Reclaim.PswpIn
	d.Reclaim.PswpOut = s.Reclaim.PswpOut - prev.Reclaim.PswpOut
	d.Reclaim.HugeSplits = s.Reclaim.HugeSplits - prev.Reclaim.HugeSplits
	d.Reclaim.KswapdWakeups = s.Reclaim.KswapdWakeups - prev.Reclaim.KswapdWakeups
	d.Reclaim.DirectReclaims = s.Reclaim.DirectReclaims - prev.Reclaim.DirectReclaims
	d.Reclaim.SwapInLatency = s.Reclaim.SwapInLatency.Sub(prev.Reclaim.SwapInLatency)
	d.Reclaim.SwapOutLatency = s.Reclaim.SwapOutLatency.Sub(prev.Reclaim.SwapOutLatency)
	d.Reclaim.DirectStallLatency = s.Reclaim.DirectStallLatency.Sub(prev.Reclaim.DirectStallLatency)

	d.TLB.Hits = s.TLB.Hits - prev.TLB.Hits
	d.TLB.Misses = s.TLB.Misses - prev.TLB.Misses
	d.TLB.Flushes = s.TLB.Flushes - prev.TLB.Flushes
	d.TLB.Shootdowns = s.TLB.Shootdowns - prev.TLB.Shootdowns

	d.Robust.InjectedFaults = s.Robust.InjectedFaults - prev.Robust.InjectedFaults
	d.Robust.ForkAborts = s.Robust.ForkAborts - prev.Robust.ForkAborts
	d.Robust.SwapReadRetries = s.Robust.SwapReadRetries - prev.Robust.SwapReadRetries
	d.Robust.SwapWriteRetries = s.Robust.SwapWriteRetries - prev.Robust.SwapWriteRetries
	d.Robust.SwapReadErrors = s.Robust.SwapReadErrors - prev.Robust.SwapReadErrors
	d.Robust.SwapWriteErrors = s.Robust.SwapWriteErrors - prev.Robust.SwapWriteErrors
	d.Robust.SwapCorruptions = s.Robust.SwapCorruptions - prev.Robust.SwapCorruptions
	d.Robust.SwapDegrades = s.Robust.SwapDegrades - prev.Robust.SwapDegrades
	d.Robust.KswapdErrors = s.Robust.KswapdErrors - prev.Robust.KswapdErrors

	d.Ckpt.Checkpoints = s.Ckpt.Checkpoints - prev.Ckpt.Checkpoints
	d.Ckpt.PagesWritten = s.Ckpt.PagesWritten - prev.Ckpt.PagesWritten
	d.Ckpt.BytesWritten = s.Ckpt.BytesWritten - prev.Ckpt.BytesWritten
	d.Ckpt.PagesSkipped = s.Ckpt.PagesSkipped - prev.Ckpt.PagesSkipped
	d.Ckpt.Restores = s.Ckpt.Restores - prev.Ckpt.Restores
	d.Ckpt.PageIns = s.Ckpt.PageIns - prev.Ckpt.PageIns
	d.Ckpt.ChunkLoads = s.Ckpt.ChunkLoads - prev.Ckpt.ChunkLoads
	d.Ckpt.ReadRetries = s.Ckpt.ReadRetries - prev.Ckpt.ReadRetries
	d.Ckpt.ReadErrors = s.Ckpt.ReadErrors - prev.Ckpt.ReadErrors
	d.Ckpt.Corruptions = s.Ckpt.Corruptions - prev.Ckpt.Corruptions
	d.Ckpt.Degrades = s.Ckpt.Degrades - prev.Ckpt.Degrades
	d.Ckpt.WriteLatency = s.Ckpt.WriteLatency.Sub(prev.Ckpt.WriteLatency)
	d.Ckpt.PageInLatency = s.Ckpt.PageInLatency.Sub(prev.Ckpt.PageInLatency)

	d.Tenant.ForksAdmitted = s.Tenant.ForksAdmitted - prev.Tenant.ForksAdmitted
	d.Tenant.ForksQueued = s.Tenant.ForksQueued - prev.Tenant.ForksQueued
	d.Tenant.ForksRejected = s.Tenant.ForksRejected - prev.Tenant.ForksRejected
	d.Tenant.QueueWait = s.Tenant.QueueWait.Sub(prev.Tenant.QueueWait)
	d.Tenant.FairEvictions = s.Tenant.FairEvictions - prev.Tenant.FairEvictions

	// Per-tenant deltas match slots by id; a tenant absent from prev
	// (registered mid-window) deltas against zero.
	prevByID := map[uint64]TenantSlotSnapshot{}
	for _, t := range prev.Tenants {
		prevByID[t.ID] = t
	}
	for _, t := range s.Tenants {
		d.Tenants = append(d.Tenants, t.Sub(prevByID[t.ID]))
	}
	return d
}

// Render produces the procfs text form served at /proc/odf/metrics:
// one `name value` pair per line, flat dotted names, fixed order, all
// values integers (nanoseconds for latencies). Histograms render
// count/sum/max plus p50/p99 estimates and their non-zero buckets as
// `name.bucket{le_ns=N}` lines (`le_ns=+inf` for overflow). The layout
// is deterministic for a given Snapshot, so it is golden-testable.
func (s Snapshot) Render() string {
	var b strings.Builder
	line := func(name string, v uint64) {
		fmt.Fprintf(&b, "%s %d\n", name, v)
	}
	gauge := func(name string, v int64) {
		fmt.Fprintf(&b, "%s %d\n", name, v)
	}
	hist := func(name string, h HistogramSnapshot) {
		line(name+".count", h.Count)
		line(name+".sum_ns", h.SumNS)
		line(name+".max_ns", h.MaxNS)
		line(name+".p50_ns", h.Quantile(0.50))
		line(name+".p99_ns", h.Quantile(0.99))
		for i, n := range h.Log2Buckets() {
			if n == 0 {
				continue
			}
			if i == HistBuckets {
				fmt.Fprintf(&b, "%s.bucket{le_ns=+inf} %d\n", name, n)
			} else {
				fmt.Fprintf(&b, "%s.bucket{le_ns=%d} %d\n", name, BucketBound(i), n)
			}
		}
		for _, ex := range h.Exemplars {
			fmt.Fprintf(&b, "%s.exemplar{req=%d} %d\n", name, ex.Req, ex.NS)
		}
	}

	for e := ForkEngine(0); e < NumEngines; e++ {
		line("fork."+e.String()+".forks", s.Fork.Engines[e].Forks)
		hist("fork."+e.String()+".latency", s.Fork.Engines[e].Latency)
	}
	line("fork.tables_shared", s.Fork.TablesShared)
	line("fork.tables_copied", s.Fork.TablesCopied)
	line("fork.pmd_tables_shared", s.Fork.PMDTablesShared)
	line("fork.parallel.forks", s.Fork.ParallelForks)
	line("fork.parallel.tasks", s.Fork.ParallelTasks)
	line("fork.ptes_copied", s.Fork.PTEsCopied)
	line("fork.upper_walks", s.Fork.UpperWalks)

	line("fault.read.count", s.Fault.ReadFaults)
	hist("fault.read.latency", s.Fault.ReadLatency)
	line("fault.write.count", s.Fault.WriteFaults)
	hist("fault.write.latency", s.Fault.WriteLatency)
	hist("fault.table_copy.latency", s.Fault.TableCopyLatency)
	line("fault.table_splits", s.Fault.TableSplits)
	line("fault.pmd_splits", s.Fault.PMDSplits)
	line("fault.fast_dedups", s.Fault.FastDedups)
	line("fault.page_copies", s.Fault.PageCopies)
	line("fault.huge_copies", s.Fault.HugeCopies)
	line("fault.zero_elides", s.Fault.ZeroElides)
	line("fault.segfaults", s.Fault.Segfaults)

	line("alloc.shard_hits", s.Alloc.ShardHits)
	line("alloc.shard_refills", s.Alloc.ShardRefills)
	line("alloc.shard_drains", s.Alloc.ShardDrains)
	line("alloc.huge_allocs", s.Alloc.HugeAllocs)
	line("alloc.ref_incs", s.Alloc.RefIncs)
	gauge("alloc.frames_in_use", s.Alloc.FramesInUse)
	gauge("alloc.frames_peak", s.Alloc.FramesPeak)
	gauge("alloc.shard_cached", s.Alloc.ShardCached)

	line("reclaim.pgscan_kswapd", s.Reclaim.PgScanKswapd)
	line("reclaim.pgscan_direct", s.Reclaim.PgScanDirect)
	line("reclaim.pgsteal_kswapd", s.Reclaim.PgStealKswapd)
	line("reclaim.pgsteal_direct", s.Reclaim.PgStealDirect)
	line("reclaim.pswpin", s.Reclaim.PswpIn)
	line("reclaim.pswpout", s.Reclaim.PswpOut)
	line("reclaim.huge_splits", s.Reclaim.HugeSplits)
	line("reclaim.kswapd_wakeups", s.Reclaim.KswapdWakeups)
	line("reclaim.direct_reclaims", s.Reclaim.DirectReclaims)
	hist("reclaim.swapin.latency", s.Reclaim.SwapInLatency)
	hist("reclaim.swapout.latency", s.Reclaim.SwapOutLatency)
	hist("reclaim.direct_stall.latency", s.Reclaim.DirectStallLatency)

	line("tlb.hits", s.TLB.Hits)
	line("tlb.misses", s.TLB.Misses)
	line("tlb.flushes", s.TLB.Flushes)
	line("tlb.shootdowns", s.TLB.Shootdowns)

	line("robust.injected_faults", s.Robust.InjectedFaults)
	line("robust.fork_aborts", s.Robust.ForkAborts)
	line("robust.swap_read_retries", s.Robust.SwapReadRetries)
	line("robust.swap_write_retries", s.Robust.SwapWriteRetries)
	line("robust.swap_read_errors", s.Robust.SwapReadErrors)
	line("robust.swap_write_errors", s.Robust.SwapWriteErrors)
	line("robust.swap_corruptions", s.Robust.SwapCorruptions)
	line("robust.swap_degrades", s.Robust.SwapDegrades)
	line("robust.kswapd_errors", s.Robust.KswapdErrors)

	line("ckpt.checkpoints", s.Ckpt.Checkpoints)
	line("ckpt.pages_written", s.Ckpt.PagesWritten)
	line("ckpt.bytes_written", s.Ckpt.BytesWritten)
	line("ckpt.pages_skipped", s.Ckpt.PagesSkipped)
	line("ckpt.restores", s.Ckpt.Restores)
	line("ckpt.page_ins", s.Ckpt.PageIns)
	line("ckpt.chunk_loads", s.Ckpt.ChunkLoads)
	line("ckpt.read_retries", s.Ckpt.ReadRetries)
	line("ckpt.read_errors", s.Ckpt.ReadErrors)
	line("ckpt.corruptions", s.Ckpt.Corruptions)
	line("ckpt.degrades", s.Ckpt.Degrades)
	hist("ckpt.write.latency", s.Ckpt.WriteLatency)
	hist("ckpt.page_in.latency", s.Ckpt.PageInLatency)

	line("tenant.forks_admitted", s.Tenant.ForksAdmitted)
	line("tenant.forks_queued", s.Tenant.ForksQueued)
	line("tenant.forks_rejected", s.Tenant.ForksRejected)
	hist("tenant.queue_wait", s.Tenant.QueueWait)
	line("tenant.fair_evictions", s.Tenant.FairEvictions)

	for _, t := range s.Tenants {
		p := fmt.Sprintf("tenant.%d.", t.ID)
		for e := ForkEngine(0); e < NumEngines; e++ {
			line(p+"fork."+e.String()+".forks", t.Forks[e])
			hist(p+"fork."+e.String()+".latency", t.ForkLatency[e])
		}
		line(p+"fault.table_splits", t.TableSplits)
		line(p+"fault.pmd_splits", t.PMDSplits)
		line(p+"fault.fast_dedups", t.FastDedups)
		line(p+"fault.page_copies", t.PageCopies)
		line(p+"fault.huge_copies", t.HugeCopies)
		line(p+"fault.swap_ins", t.SwapIns)
		hist(p+"queue_wait", t.QueueWait)
		line(p+"reclaim_evictions", t.ReclaimEvictions)
		line(p+"quota_rejections", t.QuotaRejections)
	}
	return b.String()
}
