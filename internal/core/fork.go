package core

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/failpoint"
	"repro/internal/mem/addr"
	"repro/internal/mem/pagetable"
	"repro/internal/mem/phys"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// ForkMode selects the fork engine, mirroring the paper's evaluation
// matrix: the traditional fork (with regular or huge pages, depending
// on how memory was mapped) versus on-demand-fork.
type ForkMode int

// Fork engines.
const (
	// ForkClassic is the traditional Linux fork: copy the entire paging
	// hierarchy and reference-count every mapped page.
	ForkClassic ForkMode = iota
	// ForkOnDemand is the paper's design: share last-level page tables
	// and defer their copying to the first write fault per 2 MiB region.
	ForkOnDemand
)

// String names the mode as the paper does.
func (m ForkMode) String() string {
	switch m {
	case ForkClassic:
		return "fork"
	case ForkOnDemand:
		return "on-demand-fork"
	default:
		return "unknown"
	}
}

// ForkOptions tune the fork engines, mainly for the ablation studies
// listed in DESIGN.md §5. The zero value is the paper's design.
type ForkOptions struct {
	// EagerPageRefs (ablation): on-demand-fork additionally performs a
	// classic-style compound-page resolution and an atomic operation on
	// every mapped page's reference counter, quantifying how much of the
	// fork cost the table-refcount accounting of §3.6 removes.
	EagerPageRefs bool
	// PerPTEProtect (ablation): instead of write-protecting a whole
	// 2 MiB region via one PMD entry (the hierarchical-attribute trick
	// of §3.2), downgrade every individual PTE, quantifying the saving
	// of the single-entry protect.
	PerPTEProtect bool
	// ShareHugePMD enables the paper's §4 "Huge Page Support"
	// extension: PMD tables whose entries all describe 2 MiB pages are
	// shared between parent and child (write-protected by one PUD
	// entry) instead of having their huge entries copied and
	// reference-counted individually. The paper describes but does not
	// implement this; it is the natural generalization of last-level
	// sharing one level up.
	ShareHugePMD bool
	// Parallelism is the number of workers that copy the paging
	// hierarchy. When greater than one and the parent maps at least
	// parallelThreshold 2 MiB regions, present PMD-slot ranges are
	// fanned out to a bounded, reusable worker pool; each worker writes
	// only its own destination subtree, so no two workers touch the
	// same table. The zero value and 1 run every range on the forking
	// goroutine — the paper's single-threaded copy. Values above the
	// pool size are clamped to GOMAXPROCS; negative values panic (see
	// ForkWithOptions).
	Parallelism int
}

// parallelThreshold is the present-PMD-slot count (2 MiB regions — 64
// slots = 128 MiB of mapped memory) below which a Parallelism > 1 fork
// runs every range on the forking goroutine, so small address spaces
// don't pay goroutine handoff for microseconds of work.
const parallelThreshold = 64

// fanOutMinSlots is the threshold forkOnce applies: parallelThreshold,
// except in this package's tests, which lower it so the small address
// spaces they build fan out.
var fanOutMinSlots = parallelThreshold

// Validate panics when the options are malformed (negative
// Parallelism). Layers that take locks before entering the fork
// engine must validate first, so an API-misuse panic cannot escape
// with a lock still held and poison the process for callers that
// recover.
func (o ForkOptions) Validate() {
	if o.Parallelism < 0 {
		panic(fmt.Sprintf(
			"core: ForkOptions.Parallelism must be non-negative, got %d "+
				"(0 selects the sequential default, 1 forces sequential, "+
				"N>1 fans fork out over up to N workers)", o.Parallelism))
	}
}

// workers validates Parallelism and returns the effective worker
// count. It is the single read point for the knob: negative values
// panic with a descriptive error, oversized values are clamped to the
// pool size (GOMAXPROCS), and 0 means sequential.
func (o ForkOptions) workers() int {
	o.Validate()
	w := o.Parallelism
	if maxw := forkPoolSize() + 1; w > maxw {
		// The caller participates too, so pool size + 1 workers can run.
		w = maxw
	}
	return w
}

// ForkWithOptions creates a child address space from parent using the
// given mode. The child sees a byte-identical copy of the parent's
// memory with full copy-on-write semantics; the parent's writable
// pages are write-protected as required by the engine. opts selects
// the ablation and parallelism options; it panics when
// opts.Parallelism is negative or mode is unknown.
//
// The copy is transactional with respect to allocation failure: if any
// table allocation fails mid-fork (frame limit, or an injected
// failpoint), every reference the partial child took — page refcounts,
// PTE-table share counts, swap-slot references, ownership records — is
// released, its partially built tables are freed, and the parent is
// left passing CheckInvariants with its frame budget intact.
// ErrOutOfMemory is returned in that case. The parent's entries may
// remain COW-downgraded; the first write fault per region re-dedicates
// them through the engine's fast path, so only latent re-promotion
// work survives an abort, never lost memory.
//
// Like an access, a fork that runs out of frames stalls in direct
// reclaim with the parent's lock released, then retries: reclaim run
// from inside the fork cannot evict the parent's own pages, because
// the fork holds the parent's lock.
func ForkWithOptions(parent *AddressSpace, mode ForkMode, opts ForkOptions) (*AddressSpace, error) {
	workers := opts.workers() // validate before taking any lock
	if mode != ForkClassic && mode != ForkOnDemand {
		panic("core: unknown fork mode")
	}
	for tries := 0; ; tries++ {
		child, err := parent.forkOnce(mode, opts, workers)
		if err == nil || tries >= oomRetries || !parent.stallReclaim(tries) {
			return child, err
		}
	}
}

// forkOnce is one attempt of ForkWithOptions.
func (parent *AddressSpace) forkOnce(mode ForkMode, opts ForkOptions, workers int) (*AddressSpace, error) {
	m := parent.met
	tr := parent.trc
	var forkStart time.Time
	var req uint64
	if m.Enabled() || tr.Enabled() {
		forkStart = time.Now()
		req = parent.curReq.Load()
	}

	parent.mu.Lock()
	defer parent.mu.Unlock()

	var child *AddressSpace
	var forkErr error
	func() {
		// The rollback boundary. Every fallible operation inside —
		// NewTable at any level of the walk, the range tasks on any
		// participant — sits at a slot boundary: a slot is either
		// untouched or fully committed (entries set AND references
		// taken) when the allocation panic unwinds, so freeing the
		// child's tree releases exactly what the partial fork acquired.
		defer func() {
			r := recover()
			if r == nil {
				return
			}
			if !isOOM(r) {
				panic(r)
			}
			if child != nil {
				parent.abortFork(child, mode)
				child = nil
			}
			forkErr = ErrOutOfMemory
		}()
		child = getSpace(parent.alloc, parent.sd, parent.rec)
		// The child belongs to the parent's tenant: its bookkeeping
		// tables and every frame it faults in are charged to the same
		// account, and scoped failpoints target its lineage too.
		child.tenantID = parent.tenantID
		child.charger = parent.charger
		child.w.Charger = parent.charger
		child.tslot = parent.tslot
		// The clone keeps serving the request that forked it: its COW
		// fault storm carries the same correlation id until the serving
		// tier re-tags or recycles the space.
		child.curReq.Store(parent.curReq.Load())
		parent.vmas.CloneInto(child.vmas)
		var walkStart time.Time
		if tr.Enabled() {
			walkStart = time.Now()
		}
		// One walk for both engines and every Parallelism: the upper
		// levels are duplicated on this goroutine, then the PMD ranges
		// run as tasks — all on this goroutine, or fanned out over the
		// pool once the parent is large enough to repay the handoff.
		par, chunk := 1, addr.EntriesPerTable
		if workers > 1 && presentPMDSlots(parent.w.Root) >= fanOutMinSlots {
			par, chunk = workers, classicChunkSlots
			if mode == ForkOnDemand {
				chunk = onDemandChunkSlots
			}
		}
		run := getForkRun(parent, child, mode, opts, chunk)
		run.collect(parent.w.Root, child.w.Root)
		nTasks := 0
		if par > 1 {
			nTasks = len(run.tasks)
			noteFanOut(m, nTasks)
		}
		run.execute(par)
		run.release()
		tr.SpanReq(trace.KindForkStage, trace.StageWalk, trace.ActorApp, walkStart, 0, 0, req)
		// The parent's translations were downgraded; every relative that may
		// cache translations through now-shared tables must drop them (the
		// kernel's fork-time TLB flush, broadcast lineage-wide).
		var tlbStart time.Time
		if tr.Enabled() {
			tlbStart = time.Now()
		}
		parent.sd.Broadcast()
		tr.SpanReq(trace.KindForkStage, trace.StageTLB, trace.ActorApp, tlbStart, 0, 0, req)
		if !forkStart.IsZero() && m.Enabled() {
			// metrics.ForkEngine values mirror ForkMode, so the cast is the
			// whole mapping.
			if e := metrics.ForkEngine(mode); e >= 0 && e < metrics.NumEngines {
				d := time.Since(forkStart)
				m.Fork.Forks[e].Inc()
				m.Fork.Latency[e].ObserveTagged(d, req)
				if ts := parent.tslot; ts != nil {
					ts.Forks[e].Inc()
					ts.ForkLatency[e].ObserveTagged(d, req)
				}
			}
		}
		tr.SpanReq(trace.KindFork, trace.StageNone, trace.ActorApp, forkStart, uint64(mode), uint64(nTasks), req)
	}()
	return child, forkErr
}

// abortFork rolls back a partially built child after a mid-fork
// allocation failure, with parent.mu held. The child was never
// published, so freeing its tree — which drops page refcounts, leaf and
// PMD share counts, swap-slot references, and reclaim ownership records
// through the same release paths Teardown uses — restores every counter
// the partial copy bumped. Parent entries already downgraded for COW
// stay downgraded (write-protecting is always safe); the shootdown
// broadcast makes every cached translation notice.
func (parent *AddressSpace) abortFork(child *AddressSpace, mode ForkMode) {
	child.dead = true
	child.vmas.Reset()
	if child.w.Root != nil {
		child.freeTree(child.w.Root)
		child.w.Root = nil
	}
	parent.sd.Broadcast()
	if parent.met.Enabled() {
		parent.met.Robust.ForkAborts.Inc()
	}
	if parent.trc.Enabled() {
		parent.trc.Instant(trace.KindForkAbort, trace.StageNone, trace.ActorApp, uint64(mode), 0)
	}
}

// noteUpperWalk counts one upper-level (PGD/PUD) entry visited while
// duplicating the hierarchy; PMD-level visits are counted per range.
func (as *AddressSpace) noteUpperWalk() {
	if as.met.Enabled() {
		as.met.Fork.UpperWalks.Inc()
	}
}

// noteFanOut records one parallel fork and its task count.
func noteFanOut(m *metrics.Registry, nTasks int) {
	if m.Enabled() {
		m.Fork.ParallelForks.Inc()
		m.Fork.ParallelTasks.Add(uint64(nTasks))
	}
}

// failInject panics with an injected OOM when the named fork-stage
// failpoint fires. Sites sit strictly at slot boundaries — before the
// slot's table allocation, never between taking references and
// committing them — so the rollback invariant (every committed slot is
// fully consistent) holds for injected failures exactly as for real
// ones.
func (as *AddressSpace) failInject(fp *failpoint.Registry, name string) {
	if fp.Enabled() && fp.FireAs(name, as.tenantID) {
		panic(errInjected)
	}
}

// framePool recycles the per-range scratch slice that batches page
// reference increments through GetBatch, so a warm fork range takes no
// allocation for it. Shared-table splits batch their increments the
// same way.
var framePool = sync.Pool{New: func() any {
	s := make([]phys.Frame, 0, addr.EntriesPerTable)
	return &s
}}

// copyPMDRangeClassic copies the PMD slots [lo, hi) from src to dst —
// the unit of work one parallel-fork task performs (actor names the
// worker running it). Per-page refcount traffic is batched per leaf
// table through GetBatch, which preserves per-frame semantics while
// charging the RefIncs metric per batch. The destination table's
// tallies and the tables-copied, PTEs-copied and upper-walk metrics
// are likewise applied once per range instead of once per slot; the
// flush runs deferred so a mid-range allocation panic still leaves
// dst's tallies consistent for the rollback's teardown.
func (as *AddressSpace) copyPMDRangeClassic(src, dst *pagetable.Table, lo, hi int, child *AddressSpace, actor int32) {
	var rangeStart time.Time
	var req uint64
	if as.trc.Enabled() {
		rangeStart = time.Now()
		req = as.curReq.Load()
	}
	defer as.trc.SpanReq(trace.KindForkStage, trace.StageRefcount, actor, rangeStart, uint64(lo), uint64(hi), req)
	fp := as.alloc.Failpoints()
	framesP := framePool.Get().(*[]phys.Frame)
	frames := (*framesP)[:0]
	var d pagetable.TallyDelta
	var copied, ptes, walked uint64
	defer func() {
		dst.FlushTally(d)
		if walked != 0 && as.met.Enabled() {
			as.met.Fork.UpperWalks.Add(walked)
			as.met.Fork.PTEsCopied.Add(ptes)
			as.met.Fork.TablesCopied.Add(copied)
		}
		*framesP = frames[:0]
		framePool.Put(framesP)
	}()
	for i := lo; i < hi; i++ {
		e := src.Entry(i)
		if !e.Present() {
			continue
		}
		walked++
		if e.Huge() {
			as.copyHugeEntry(src, dst, i, e, child)
			continue
		}
		leaf := src.Child(i)
		if leaf == nil {
			continue
		}
		as.failInject(fp, failpoint.ForkRefcount)
		newLeaf := pagetable.NewTableFor(as.alloc, addr.PTE, child.charger)
		frames = frames[:0]
		leaf.Lock()
		for li := 0; li < addr.EntriesPerTable; li++ {
			le := leaf.Entry(li)
			if le.Swapped() {
				// The child's copy of a swap PTE is a new slot reference.
				newLeaf.SetEntry(li, le)
				as.rec.SwapRef(le.SwapSlot())
				continue
			}
			if !le.Present() {
				continue
			}
			if le.Writable() {
				le = le.Without(pagetable.FlagWritable | pagetable.FlagDirty).
					With(pagetable.FlagCOW)
				leaf.SetEntry(li, le)
			}
			newLeaf.SetEntry(li, le)
			frames = append(frames, le.Frame())
			if m := as.trk(); m != nil {
				m.PageMapped(le.Frame(), newLeaf, li, child)
			}
		}
		ptes += uint64(len(frames))
		as.alloc.GetBatch(frames)
		leaf.Unlock()
		// Install the child slot writable at the PMD level in one entry
		// store: under classic fork per-PTE bits govern permissions, so
		// the upper levels must not mask them.
		dst.SetChildDeferTally(i, newLeaf,
			src.Entry(i).With(pagetable.FlagWritable|pagetable.FlagUser), &d)
		copied++
	}
}

// copyHugeEntry applies COW to a 2 MiB PMD mapping in both parent and
// child: the "fork with huge pages" configuration of Figures 4 and 7.
func (as *AddressSpace) copyHugeEntry(src, dst *pagetable.Table, i int, e pagetable.Entry, child *AddressSpace) {
	// Copying a huge PMD entry takes the table lock (Linux's
	// copy_huge_pmd acquires the PMD spinlocks to fence THP
	// conversions) — one of the costs §5.2.2 notes on-demand-fork
	// avoids.
	src.Lock()
	defer src.Unlock()
	e = src.Entry(i)
	if e.Writable() {
		e = e.Without(pagetable.FlagWritable | pagetable.FlagDirty).With(pagetable.FlagCOW)
		src.SetEntry(i, e)
	}
	dst.SetEntry(i, e)
	as.alloc.Get(e.Frame())
	if m := as.trk(); m != nil {
		m.HugeMapped(e.Frame(), dst, i, child)
	}
}

// copyPMDRangeOnDemand shares the last-level tables of PMD slots
// [lo, hi) with the child — the unit of work one parallel-fork task
// performs on the on-demand path (actor names the worker running it).
// Like the classic range, it batches the child table's tallies and the
// tables-shared and upper-walk metrics per range; the deferred flush
// keeps dst consistent across a mid-range abort.
func (as *AddressSpace) copyPMDRangeOnDemand(src, dst *pagetable.Table, lo, hi int, child *AddressSpace, opts ForkOptions, actor int32) {
	var rangeStart time.Time
	var req uint64
	if as.trc.Enabled() {
		rangeStart = time.Now()
		req = as.curReq.Load()
	}
	defer as.trc.SpanReq(trace.KindForkStage, trace.StageShare, actor, rangeStart, uint64(lo), uint64(hi), req)
	fp := as.alloc.Failpoints()
	var d pagetable.TallyDelta
	var nShared, walked uint64
	defer func() {
		dst.FlushTally(d)
		if walked != 0 && as.met.Enabled() {
			as.met.Fork.UpperWalks.Add(walked)
			as.met.Fork.TablesShared.Add(nShared)
		}
	}()
	for i := lo; i < hi; i++ {
		e := src.Entry(i)
		if !e.Present() {
			continue
		}
		walked++
		as.failInject(fp, failpoint.ForkShare)
		if e.Huge() {
			// The implementation supports 4 KiB pages (§4, "Huge Page
			// Support"); huge mappings fall back to the classic COW of
			// the PMD entry, which is already table-free.
			as.copyHugeEntry(src, dst, i, e, child)
			continue
		}
		leaf := src.Child(i)
		if leaf == nil {
			continue
		}
		as.alloc.PTShareGet(leaf.Frame)
		if m := as.trk(); m != nil {
			// One O(1) ownership record per shared table preserves the
			// engine's O(#tables) fork cost.
			m.OwnerAdd(leaf, child)
		}
		if opts.EagerPageRefs || opts.PerPTEProtect {
			as.ablationLeafPass(leaf, opts)
		}
		// Clear the writable bit in the PMD entries of both parent
		// and child: one hierarchical-attribute update write-protects
		// the whole 2 MiB region (§3.2).
		shared := e.Without(pagetable.FlagWritable)
		src.SetEntry(i, shared)
		dst.SetChildDeferTally(i, leaf, shared, &d)
		nShared++
	}
}

// sharePMDTable applies the §4 extension at slot i of a PUD table:
// share the whole PMD table describing 2 MiB pages, write-protecting
// its 1 GiB region via the PUD entry.
func (as *AddressSpace) sharePMDTable(src, dst *pagetable.Table, i int, childTable *pagetable.Table, child *AddressSpace) {
	as.alloc.PTShareGet(childTable.Frame)
	if m := as.trk(); m != nil {
		m.OwnerAdd(childTable, child)
	}
	shared := src.Entry(i).Without(pagetable.FlagWritable)
	src.SetEntry(i, shared)
	dst.SetChild(i, childTable, shared)
	if as.met.Enabled() {
		as.met.Fork.PMDTablesShared.Inc()
	}
}

// hugeOnly reports whether every present entry of a PMD table maps a
// 2 MiB page directly (and at least one does), making the table
// eligible for whole-table sharing. It reads the table's maintained
// present/huge tallies, so it is O(1) instead of a 512-entry rescan.
func hugeOnly(t *pagetable.Table) bool {
	present := t.PresentCount()
	return present > 0 && t.HugeCount() == present
}

// ablationLeafPass performs the extra per-entry work the ablation
// options request, without changing the design's semantics.
func (as *AddressSpace) ablationLeafPass(leaf *pagetable.Table, opts ForkOptions) {
	leaf.Lock()
	for li := 0; li < addr.EntriesPerTable; li++ {
		e := leaf.Entry(li)
		if !e.Present() {
			continue
		}
		if opts.EagerPageRefs {
			as.alloc.TouchRef(e.Frame())
		}
		if opts.PerPTEProtect && e.Writable() {
			// Semantically redundant (the PMD bit already protects the
			// region) but measures the per-entry downgrade cost. Marking
			// COW here is safe: the split path treats COW entries
			// identically.
			leaf.SetEntry(li, e.Without(pagetable.FlagWritable|pagetable.FlagDirty).
				With(pagetable.FlagCOW))
		}
	}
	leaf.Unlock()
}
