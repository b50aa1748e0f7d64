// Package metrics is the simulated kernel's telemetry subsystem: a
// registry of atomic counters, gauges, and sub-bucketed latency
// histograms covering every layer the paper's evaluation measures —
// fork latency per engine (§5.1, Figure 2), fault-handling cost
// (§5.2, Table 1), page-table sharing versus copying (§3.1), the
// physical allocator's shard caches, and the software TLB.
//
// Design rules:
//
//   - Concurrency-safe: every metric is a plain atomic; readers never
//     block writers. Snapshot() is a racy-but-coherent read of each
//     individual metric, the same contract /proc counters give.
//   - Near-zero cost when disabled: hot paths guard instrumentation
//     with Registry.Enabled() — one atomic load — and skip the
//     time.Now() calls entirely. A nil *Registry reports disabled, so
//     layers built without a registry need no special cases.
//   - Typed, not stringly: metrics are struct fields, so the compiler
//     checks every charge site and Snapshot() returns a typed tree.
//   - One counter per event: the paper's Figure 3 cost attribution is
//     not a second counting channel but a view of these counters
//     weighted by unit costs (Attribution, attribution.go).
//   - One latency histogram: Histogram is sub-bucketed, so every
//     quantile is within 2^-5 of the exact order statistic and never
//     below it. The fork/fault/reclaim series, the watchdog and the SLO
//     harness all use it; the exposition formats show its exact log₂
//     rollup.
package metrics

import (
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing event count.
type Counter struct{ v atomic.Uint64 }

// Inc adds one event.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n events.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current count.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is an instantaneous level that can move both ways.
type Gauge struct{ v atomic.Int64 }

// Set stores the level.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the level by d.
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Load returns the current level.
func (g *Gauge) Load() int64 { return g.v.Load() }

// The histogram uses the hdrhistogram slot layout: a value below
// subCount ns gets an exact slot, and a larger value keeps its subBits
// most significant bits, so a slot's upper edge is at most 2^-subBits
// (≈3.1%) above any value in it. The finite slots cover [0, 2^rangeBits)
// ns (≈69 s); one overflow slot past them holds everything larger.
const (
	subBits   = 5
	subCount  = 1 << subBits
	rangeBits = 36
	// overflowSlot is the index of the overflow slot; the finite slots
	// are 0..overflowSlot-1.
	overflowSlot = (rangeBits - subBits + 1) << subBits
)

// slotOf maps a nanosecond value to its slot index.
func slotOf(ns uint64) int {
	if ns < subCount {
		return int(ns)
	}
	n := bits.Len64(ns)
	if n > rangeBits {
		return overflowSlot
	}
	shift := n - subBits - 1
	return (shift+1)<<subBits | int(ns>>shift&(subCount-1))
}

// slotLow is the smallest value slot i holds: a finite slot holds
// [slotLow(i), slotLow(i+1)). Every power of two starts a slot, so no
// slot straddles one.
func slotLow(i int) uint64 {
	b, sub := i>>subBits, uint64(i&(subCount-1))
	if b == 0 {
		return sub
	}
	return (subCount + sub) << (b - 1)
}

// HistBuckets is the number of finite log₂ buckets the exposition
// formats show (Render, OpenMetrics). Bucket i covers [2^i, 2^(i+1))
// nanoseconds (bucket 0 also absorbs 0 ns), so the finite range spans
// up to 2^30 ns ≈ 1.07 s; index HistBuckets is the overflow bucket.
// Every power of two is a slot boundary, so the log₂ counts are exact
// sums of slots (HistogramSnapshot.Log2Buckets).
const HistBuckets = 30

// Log2Bucket maps a nanosecond value to its log₂ exposition bucket.
func Log2Bucket(ns uint64) int {
	if ns == 0 {
		return 0
	}
	return min(bits.Len64(ns)-1, HistBuckets)
}

// BucketBound returns the exclusive upper bound of log₂ bucket i in
// nanoseconds, or 0 for the overflow bucket.
func BucketBound(i int) uint64 {
	if i >= HistBuckets {
		return 0
	}
	return uint64(1) << (i + 1)
}

// ExemplarSlots is how many worst-case observations a histogram keeps
// request ids for: enough to chase a handful of tail samples from a
// p99 bucket back to their traces without growing the struct much.
const ExemplarSlots = 4

// Histogram is a sub-bucketed latency histogram whose quantiles are
// within 2^-subBits of the exact order statistic (see Quantile). The
// zero value is ready to use.
type Histogram struct {
	count atomic.Uint64
	sum   atomic.Uint64 // total nanoseconds
	max   atomic.Uint64 // largest observation, nanoseconds
	slots [overflowSlot + 1]atomic.Uint64
	// Exemplar slots: the worst ExemplarSlots tagged observations seen
	// so far, each pairing a latency with the request id that produced
	// it. exNS is the admission gate (CAS min-replacement); exReq is
	// stored plainly after winning the CAS, so a racing reader can pair
	// a latency with the slot's previous request id — an acceptable
	// approximation for a debugging aid, never a torn value.
	exNS  [ExemplarSlots]atomic.Uint64
	exReq [ExemplarSlots]atomic.Uint64
}

// Observe records one latency observation.
func (h *Histogram) Observe(d time.Duration) {
	var ns uint64
	if d > 0 {
		ns = uint64(d)
	}
	h.count.Add(1)
	h.sum.Add(ns)
	for {
		m := h.max.Load()
		if ns <= m || h.max.CompareAndSwap(m, ns) {
			break
		}
	}
	h.slots[slotOf(ns)].Add(1)
}

// ObserveTagged records one latency observation carrying the request
// id that produced it. The observation lands in the slots exactly as
// Observe's would; additionally, if it is among the worst ExemplarSlots
// tagged observations so far, it claims an exemplar slot so the tail of
// the distribution stays traceable. req == 0 degrades to plain Observe.
func (h *Histogram) ObserveTagged(d time.Duration, req uint64) {
	h.Observe(d)
	if req == 0 {
		return
	}
	var ns uint64
	if d > 0 {
		ns = uint64(d)
	}
	if ns == 0 {
		return
	}
	// Min-replacement: claim the smallest slot if this observation
	// beats it. Two CAS attempts bound the cost on the hot path; a
	// lost race means a concurrent equal-or-worse observation already
	// took the slot, which serves the same purpose.
	for attempt := 0; attempt < 2; attempt++ {
		minI, minV := 0, uint64(math.MaxUint64)
		for i := range h.exNS {
			if v := h.exNS[i].Load(); v < minV {
				minI, minV = i, v
			}
		}
		if ns <= minV {
			return
		}
		if h.exNS[minI].CompareAndSwap(minV, ns) {
			h.exReq[minI].Store(req)
			return
		}
	}
}

// Snapshot returns a point-in-time copy of the histogram. Concurrent
// Observe calls may be partially included (count, sum, and slots are
// read independently); totals are eventually consistent, never torn.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	s.Count = h.count.Load()
	s.SumNS = h.sum.Load()
	s.MaxNS = h.max.Load()
	var counts [overflowSlot + 1]uint64
	for i := range h.slots {
		counts[i] = h.slots[i].Load()
	}
	if c := trimCounts(counts[:]); len(c) > 0 {
		s.Counts = append([]uint64(nil), c...)
	}
	for i := range h.exNS {
		if ns := h.exNS[i].Load(); ns != 0 {
			s.Exemplars = append(s.Exemplars, Exemplar{NS: ns, Req: h.exReq[i].Load()})
		}
	}
	sort.Slice(s.Exemplars, func(i, j int) bool { return s.Exemplars[i].NS > s.Exemplars[j].NS })
	return s
}

// ForkEngine indexes per-engine fork metrics. The values deliberately
// match core.ForkMode (Classic=0, OnDemand=1) so layers convert by
// integer cast without importing core.
type ForkEngine int

// Fork engines.
const (
	EngineClassic ForkEngine = iota
	EngineOnDemand
	NumEngines // bound for per-engine arrays
)

// String names the engine as the paper does.
func (e ForkEngine) String() string {
	switch e {
	case EngineClassic:
		return "classic"
	case EngineOnDemand:
		return "ondemand"
	default:
		return "unknown"
	}
}

// TenantSlot partitions the hot-path metrics for one tenant: fork
// latency per engine, fault resolution classes, admission queue wait,
// fair-share evictions, and quota rejections. Slots are registered
// once per tenant (Registry.RegisterTenant) and owners keep the
// pointer, so charge sites pay a nil check plus the same atomics as
// the global registry — no map lookups on a fork or fault path.
type TenantSlot struct {
	ID   uint64
	Name string

	Forks       [NumEngines]Counter
	ForkLatency [NumEngines]Histogram

	Fault struct {
		TableSplits Counter
		PMDSplits   Counter
		FastDedups  Counter
		PageCopies  Counter
		HugeCopies  Counter
		SwapIns     Counter
	}

	QueueWait        Histogram
	ReclaimEvictions Counter
	QuotaRejections  Counter
}

// Snapshot captures the slot's current values.
func (t *TenantSlot) Snapshot() TenantSlotSnapshot {
	s := TenantSlotSnapshot{ID: t.ID, Name: t.Name}
	for e := ForkEngine(0); e < NumEngines; e++ {
		s.Forks[e] = t.Forks[e].Load()
		s.ForkLatency[e] = t.ForkLatency[e].Snapshot()
	}
	s.TableSplits = t.Fault.TableSplits.Load()
	s.PMDSplits = t.Fault.PMDSplits.Load()
	s.FastDedups = t.Fault.FastDedups.Load()
	s.PageCopies = t.Fault.PageCopies.Load()
	s.HugeCopies = t.Fault.HugeCopies.Load()
	s.SwapIns = t.Fault.SwapIns.Load()
	s.QueueWait = t.QueueWait.Snapshot()
	s.ReclaimEvictions = t.ReclaimEvictions.Load()
	s.QuotaRejections = t.QuotaRejections.Load()
	return s
}

// Registry is the system-wide metric tree. All fields are charged
// directly by the owning subsystem; hot paths must guard charges with
// Enabled().
type Registry struct {
	enabled atomic.Bool

	// Per-tenant metric slots, append-only under tmu. Hot paths never
	// touch this list — they hold direct *TenantSlot pointers handed
	// out at registration.
	tmu    sync.Mutex
	tslots []*TenantSlot

	// Fork engine metrics (internal/core fork paths).
	Fork struct {
		// Forks and Latency are per engine, indexed by ForkEngine.
		Forks   [NumEngines]Counter
		Latency [NumEngines]Histogram
		// TablesShared counts last-level PTE tables shared with a child
		// at fork time (§3.1); TablesCopied counts leaf tables copied
		// eagerly by the classic engine. Their ratio is the work
		// on-demand-fork defers.
		TablesShared Counter
		TablesCopied Counter
		// PMDTablesShared counts whole PMD tables shared by the §4
		// huge-page extension.
		PMDTablesShared Counter
		// ParallelForks counts forks that fanned out to the worker
		// pool; ParallelTasks counts the PMD-slot-range tasks they
		// produced (tasks/forks ≈ achieved fan-out width).
		ParallelForks Counter
		ParallelTasks Counter
		// PTEsCopied counts last-level entries the classic engine copied
		// (Linux's copy_one_pte); UpperWalks counts the upper-level
		// (PGD/PUD/PMD) entries either engine visited while duplicating
		// the hierarchy. Both are charged once per range, not per entry.
		PTEsCopied Counter
		UpperWalks Counter
	}

	// Fault-path metrics (internal/core fault handler).
	Fault struct {
		ReadFaults   Counter
		WriteFaults  Counter
		ReadLatency  Histogram
		WriteLatency Histogram
		// TableCopyLatency times genuine shared-table splits — the
		// deferred copy of §3.4, the number Table 1 compares.
		TableCopyLatency Histogram
		TableSplits      Counter // shared PTE tables copied on demand
		PMDSplits        Counter // shared huge-page PMD tables copied on demand
		FastDedups       Counter // last-sharer re-dedications (no copy)
		PageCopies       Counter // 4 KiB COW data copies
		HugeCopies       Counter // 2 MiB COW data copies
		ZeroElides       Counter // COW copies skipped: source page all-zero
		Segfaults        Counter // unrepairable faults
	}

	// Physical allocator metrics (internal/mem/phys). Frame-level
	// gauges (frames in use, peak, shard-cached) are filled from
	// allocator state at snapshot time — see Kernel.MetricsSnapshot.
	Alloc struct {
		ShardHits    Counter // order-0 allocations served by a shard cache
		ShardRefills Counter // batched pulls from the buddy core
		ShardDrains  Counter // batched returns to the buddy core
		HugeAllocs   Counter // order-9 compound allocations (buddy direct)
		// RefIncs counts page reference increments, each preceded by a
		// compound-head resolution (Fig. 3's page_ref_inc and
		// compound_head). Batched increments charge once per batch.
		RefIncs Counter
	}

	// Reclaim metrics (internal/mem/reclaim): LRU scanning, eviction,
	// swap I/O, and huge-page splits. Names follow /proc/vmstat.
	Reclaim struct {
		PgScanKswapd       Counter   // LRU pages scanned by the background reclaimer
		PgScanDirect       Counter   // LRU pages scanned by direct reclaim
		PgStealKswapd      Counter   // pages evicted by the background reclaimer
		PgStealDirect      Counter   // pages evicted by direct reclaim
		PswpIn             Counter   // pages read back from the swap store
		PswpOut            Counter   // pages written to the swap store
		HugeSplits         Counter   // 2 MiB mappings split for eviction
		KswapdWakeups      Counter   // kswapd episodes that found pressure
		DirectReclaims     Counter   // allocations that entered direct reclaim
		SwapInLatency      Histogram // fault-path swap-in stall
		SwapOutLatency     Histogram // store write during eviction
		DirectStallLatency Histogram // full direct-reclaim stall
	}

	// TLB metrics. The live TLBs keep their own per-process atomics;
	// the kernel folds exited processes' totals in here and sums live
	// ones at snapshot time, so the hot lookup path pays nothing extra.
	TLB struct {
		Hits       Counter
		Misses     Counter
		Flushes    Counter
		Shootdowns Counter
	}

	// Robustness metrics: what the error paths actually did. Injected
	// fault totals live in the failpoint registry (kernel overlays them
	// at snapshot time, like the allocator gauges); everything here is
	// observed behaviour — rollbacks taken, retries spent, degradations
	// entered — so a chaos run can assert the recovery machinery ran.
	Robust struct {
		ForkAborts       Counter // forks unwound after a mid-copy ErrNoMem
		SwapReadRetries  Counter // swap-store reads retried after an I/O error
		SwapWriteRetries Counter // swap-store writes retried after an I/O error
		SwapReadErrors   Counter // swap-ins abandoned after exhausting retries
		SwapWriteErrors  Counter // evictions abandoned after exhausting retries
		SwapCorruptions  Counter // swap-in checksum mismatches (ErrSwapCorrupt)
		SwapDegrades     Counter // transitions into degraded (auto-disabled) swap
		KswapdErrors     Counter // kswapd passes that panicked and were recovered
	}

	// Durable-checkpoint metrics (internal/ckpt + kernel wiring): what
	// the snapshot writer captured, what lazy restores faulted back in,
	// and the retry/corruption/degrade counts of the store policy
	// (vm.StorePolicy) chunk reads share with swap-in, so a chaos run
	// can assert the checkpoint recovery machinery ran.
	Ckpt struct {
		Checkpoints   Counter   // snapshot files committed (full + incremental)
		PagesWritten  Counter   // page records written (incl. explicit-zero tombstones)
		BytesWritten  Counter   // bytes in committed snapshot files
		PagesSkipped  Counter   // pages elided by incremental frame-identity diff
		Restores      Counter   // processes created by RestoreFrom
		PageIns       Counter   // pages faulted in from a checkpoint on first touch
		ChunkLoads    Counter   // chunk reads+decompressions (CRC verified each)
		ReadRetries   Counter   // chunk reads retried after a transient I/O error
		ReadErrors    Counter   // chunk reads abandoned after exhausting retries
		Corruptions   Counter   // chunk CRC mismatches (ErrCheckpointCorrupt)
		Degrades      Counter   // snapshots latched degraded after read failures
		WriteLatency  Histogram // full CheckpointTo capture+commit wall time
		PageInLatency Histogram // fault-path page-in stall from checkpoint chunks
	}

	// Multi-tenant control-plane metrics (internal/tenant): system-wide
	// fork admission outcomes plus the fair-share reclaim pressure
	// exerted on over-quota tenants. Per-tenant quota/usage counters
	// live on the Tenant objects and are served by /proc/odf/tenants.
	Tenant struct {
		ForksAdmitted Counter   // forks admitted without queueing
		ForksQueued   Counter   // forks that waited in an admission queue
		ForksRejected Counter   // forks refused: queue full or wait timed out
		QueueWait     Histogram // admission queue wait (queued forks only)
		FairEvictions Counter   // pages stolen from over-quota tenant LRU partitions
	}
}

// New returns an enabled registry.
func New() *Registry {
	r := &Registry{}
	r.enabled.Store(true)
	return r
}

// Enabled reports whether instrumentation should run. Nil registries
// report false, so charge sites need no nil checks beyond this guard.
func (r *Registry) Enabled() bool { return r != nil && r.enabled.Load() }

// SetEnabled toggles collection. Disabling keeps accumulated values.
func (r *Registry) SetEnabled(on bool) {
	if r != nil {
		r.enabled.Store(on)
	}
}

// RegisterTenant creates (or returns the existing) metric slot for a
// tenant id. The returned pointer is what fork/fault paths charge; a
// nil registry returns nil, and charge sites treat a nil slot as
// "untenanted" with one pointer check.
func (r *Registry) RegisterTenant(id uint64, name string) *TenantSlot {
	if r == nil {
		return nil
	}
	r.tmu.Lock()
	defer r.tmu.Unlock()
	for _, t := range r.tslots {
		if t.ID == id {
			return t
		}
	}
	t := &TenantSlot{ID: id, Name: name}
	r.tslots = append(r.tslots, t)
	sort.Slice(r.tslots, func(i, j int) bool { return r.tslots[i].ID < r.tslots[j].ID })
	return t
}

// TenantSlots returns the registered per-tenant slots, sorted by id.
func (r *Registry) TenantSlots() []*TenantSlot {
	if r == nil {
		return nil
	}
	r.tmu.Lock()
	defer r.tmu.Unlock()
	return append([]*TenantSlot(nil), r.tslots...)
}

// Snapshot captures the registry's current values as a typed tree.
// Frame-level allocator gauges are zero here; the kernel overlays them
// (Kernel.MetricsSnapshot) because they are allocator state, not
// registry counters.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	for e := ForkEngine(0); e < NumEngines; e++ {
		s.Fork.Engines[e] = EngineSnapshot{
			Forks:   r.Fork.Forks[e].Load(),
			Latency: r.Fork.Latency[e].Snapshot(),
		}
	}
	s.Fork.TablesShared = r.Fork.TablesShared.Load()
	s.Fork.TablesCopied = r.Fork.TablesCopied.Load()
	s.Fork.PMDTablesShared = r.Fork.PMDTablesShared.Load()
	s.Fork.ParallelForks = r.Fork.ParallelForks.Load()
	s.Fork.ParallelTasks = r.Fork.ParallelTasks.Load()
	s.Fork.PTEsCopied = r.Fork.PTEsCopied.Load()
	s.Fork.UpperWalks = r.Fork.UpperWalks.Load()

	s.Fault.ReadFaults = r.Fault.ReadFaults.Load()
	s.Fault.WriteFaults = r.Fault.WriteFaults.Load()
	s.Fault.ReadLatency = r.Fault.ReadLatency.Snapshot()
	s.Fault.WriteLatency = r.Fault.WriteLatency.Snapshot()
	s.Fault.TableCopyLatency = r.Fault.TableCopyLatency.Snapshot()
	s.Fault.TableSplits = r.Fault.TableSplits.Load()
	s.Fault.PMDSplits = r.Fault.PMDSplits.Load()
	s.Fault.FastDedups = r.Fault.FastDedups.Load()
	s.Fault.PageCopies = r.Fault.PageCopies.Load()
	s.Fault.HugeCopies = r.Fault.HugeCopies.Load()
	s.Fault.ZeroElides = r.Fault.ZeroElides.Load()
	s.Fault.Segfaults = r.Fault.Segfaults.Load()

	s.Alloc.ShardHits = r.Alloc.ShardHits.Load()
	s.Alloc.ShardRefills = r.Alloc.ShardRefills.Load()
	s.Alloc.ShardDrains = r.Alloc.ShardDrains.Load()
	s.Alloc.HugeAllocs = r.Alloc.HugeAllocs.Load()
	s.Alloc.RefIncs = r.Alloc.RefIncs.Load()

	s.Reclaim.PgScanKswapd = r.Reclaim.PgScanKswapd.Load()
	s.Reclaim.PgScanDirect = r.Reclaim.PgScanDirect.Load()
	s.Reclaim.PgStealKswapd = r.Reclaim.PgStealKswapd.Load()
	s.Reclaim.PgStealDirect = r.Reclaim.PgStealDirect.Load()
	s.Reclaim.PswpIn = r.Reclaim.PswpIn.Load()
	s.Reclaim.PswpOut = r.Reclaim.PswpOut.Load()
	s.Reclaim.HugeSplits = r.Reclaim.HugeSplits.Load()
	s.Reclaim.KswapdWakeups = r.Reclaim.KswapdWakeups.Load()
	s.Reclaim.DirectReclaims = r.Reclaim.DirectReclaims.Load()
	s.Reclaim.SwapInLatency = r.Reclaim.SwapInLatency.Snapshot()
	s.Reclaim.SwapOutLatency = r.Reclaim.SwapOutLatency.Snapshot()
	s.Reclaim.DirectStallLatency = r.Reclaim.DirectStallLatency.Snapshot()

	s.TLB.Hits = r.TLB.Hits.Load()
	s.TLB.Misses = r.TLB.Misses.Load()
	s.TLB.Flushes = r.TLB.Flushes.Load()
	s.TLB.Shootdowns = r.TLB.Shootdowns.Load()

	s.Robust.ForkAborts = r.Robust.ForkAborts.Load()
	s.Robust.SwapReadRetries = r.Robust.SwapReadRetries.Load()
	s.Robust.SwapWriteRetries = r.Robust.SwapWriteRetries.Load()
	s.Robust.SwapReadErrors = r.Robust.SwapReadErrors.Load()
	s.Robust.SwapWriteErrors = r.Robust.SwapWriteErrors.Load()
	s.Robust.SwapCorruptions = r.Robust.SwapCorruptions.Load()
	s.Robust.SwapDegrades = r.Robust.SwapDegrades.Load()
	s.Robust.KswapdErrors = r.Robust.KswapdErrors.Load()

	s.Ckpt.Checkpoints = r.Ckpt.Checkpoints.Load()
	s.Ckpt.PagesWritten = r.Ckpt.PagesWritten.Load()
	s.Ckpt.BytesWritten = r.Ckpt.BytesWritten.Load()
	s.Ckpt.PagesSkipped = r.Ckpt.PagesSkipped.Load()
	s.Ckpt.Restores = r.Ckpt.Restores.Load()
	s.Ckpt.PageIns = r.Ckpt.PageIns.Load()
	s.Ckpt.ChunkLoads = r.Ckpt.ChunkLoads.Load()
	s.Ckpt.ReadRetries = r.Ckpt.ReadRetries.Load()
	s.Ckpt.ReadErrors = r.Ckpt.ReadErrors.Load()
	s.Ckpt.Corruptions = r.Ckpt.Corruptions.Load()
	s.Ckpt.Degrades = r.Ckpt.Degrades.Load()
	s.Ckpt.WriteLatency = r.Ckpt.WriteLatency.Snapshot()
	s.Ckpt.PageInLatency = r.Ckpt.PageInLatency.Snapshot()

	s.Tenant.ForksAdmitted = r.Tenant.ForksAdmitted.Load()
	s.Tenant.ForksQueued = r.Tenant.ForksQueued.Load()
	s.Tenant.ForksRejected = r.Tenant.ForksRejected.Load()
	s.Tenant.QueueWait = r.Tenant.QueueWait.Snapshot()
	s.Tenant.FairEvictions = r.Tenant.FairEvictions.Load()

	for _, t := range r.TenantSlots() {
		s.Tenants = append(s.Tenants, t.Snapshot())
	}
	return s
}
