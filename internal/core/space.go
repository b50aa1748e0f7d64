// Package core implements the paper's contribution: three fork engines
// over a simulated address space —
//
//   - ForkClassic: the traditional Linux fork, which walks every
//     last-level page table entry, write-protects it, and atomically
//     increments the data page's reference count (copy_page_range);
//   - classic fork over huge-page mappings (2 MiB entries at PMD level);
//   - ForkOnDemand: the paper's on-demand-fork, which copies only the
//     upper levels of the hierarchy, shares last-level (PTE) tables
//     between parent and child via a per-table share counter, and
//     write-protects entire 2 MiB regions by clearing a single PMD
//     entry's writable bit (§3.1);
//
// together with the deferred machinery on-demand-fork needs: the page
// fault handler that copies shared PTE tables on first write (§3.4),
// copy-on-write of tables during munmap/mremap (§3.3), the table
// lifecycle rules (§3.5), and reference-count-based physical page
// accounting (§3.6).
package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/mem/addr"
	"repro/internal/mem/pagetable"
	"repro/internal/mem/phys"
	"repro/internal/mem/reclaim"
	"repro/internal/mem/tlb"
	"repro/internal/mem/vm"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// Mapping area managed for NULL-hint mmaps, mirroring the x86-64 mmap
// region.
const (
	mmapBase  addr.V = 0x7f00_0000_0000
	mmapLimit addr.V = 0x7fff_ffff_f000
)

// AddressSpace is the simulated mm_struct: the paging hierarchy plus
// the VMA set of one process.
type AddressSpace struct {
	mu    sync.Mutex
	w     pagetable.Walker // by value: one less pointer chase and alloc per fork
	vmas  *vm.Set
	alloc *phys.Allocator
	met   *metrics.Registry
	trc   *trace.Tracer

	// Software TLB and its lineage-wide shootdown domain: processes
	// related by fork share page tables, so a write-protect downgrade by
	// one must invalidate the translations every relative may have
	// cached (the SMP shootdown broadcast).
	tlb *tlb.TLB
	sd  *tlb.Shootdown

	// Reclaim integration: id orders lock acquisition across spaces
	// during eviction; rec is the shared reclaim manager (nil when the
	// allocator has none attached).
	id  uint64
	rec *reclaim.Manager

	// Tenant attribution: every frame this space allocates is charged
	// to charger (nil = unowned), and failpoint injection is filtered by
	// tenantID when the registry has a scope set. Children inherit both
	// at fork. tslot is the tenant's metric partition (nil = untenanted
	// or metrics off at registration); fork/fault paths charge it with
	// one pointer check after the usual Enabled() guard.
	tenantID uint64
	charger  phys.FrameCharger
	tslot    *metrics.TenantSlot

	// curReq is the correlation id of the serving-tier request this
	// space is currently working for (0 = none). The serving tier tags
	// it around each handled request; fork stamps the parent's value
	// into the child so the clone's fault storm stays attributed. Read
	// only on already-instrumented paths — the disabled fast paths
	// never touch it.
	curReq atomic.Uint64

	dead bool

	// Statistics, exposed for the benchmarks and experiments.
	Faults      atomic.Uint64 // page faults handled
	TableSplits atomic.Uint64 // shared PTE tables copied on demand
	PMDSplits   atomic.Uint64 // shared huge-page PMD tables copied on demand
	PageCopies  atomic.Uint64 // 4 KiB data pages copied for COW
	HugeCopies  atomic.Uint64 // 2 MiB pages copied for COW
	FastDedups  atomic.Uint64 // faults resolved by re-enabling PMD writable
	SwapIns     atomic.Uint64 // faults resolved by reading a page back from swap
	ZeroElides  atomic.Uint64 // COW copies skipped because the source was all-zero
}

// spacePool recycles AddressSpace shells — the struct, its TLB, and
// its VMA set's backing storage — across fork/teardown cycles, so a
// steady-state fork loop allocates nothing for the child's bookkeeping.
// Spaces enter the pool only through Recycle, an explicit opt-in: the
// kernel's Process objects outlive Exit (Space() stays readable after
// teardown), so they never recycle.
var spacePool = sync.Pool{New: func() any { return new(AddressSpace) }}

// getSpace returns a clean AddressSpace shell for the given kernel
// attachments, reusing a pooled shell when one is available.
func getSpace(alloc *phys.Allocator, sd *tlb.Shootdown, rec *reclaim.Manager) *AddressSpace {
	as := spacePool.Get().(*AddressSpace)
	as.w.Root = pagetable.NewTable(alloc, addr.PGD)
	as.w.Alloc = alloc
	as.w.Charger = nil
	if as.vmas == nil {
		as.vmas = &vm.Set{}
	}
	as.alloc = alloc
	as.met = alloc.Metrics()
	as.trc = alloc.Tracer()
	as.sd = sd
	if as.tlb == nil {
		as.tlb = tlb.New(sd)
	} else {
		as.tlb.Reuse(sd)
	}
	as.id = spaceIDs.Add(1)
	as.rec = rec
	as.tenantID = 0
	as.charger = nil
	as.tslot = nil
	as.curReq.Store(0)
	as.dead = false
	as.Faults.Store(0)
	as.TableSplits.Store(0)
	as.PMDSplits.Store(0)
	as.PageCopies.Store(0)
	as.HugeCopies.Store(0)
	as.FastDedups.Store(0)
	as.SwapIns.Store(0)
	as.ZeroElides.Store(0)
	return as
}

// Recycle tears the space down and returns its shell to the space
// pool. Only callers that own the last reference may use it — after
// Recycle the struct may be reinitialized for an unrelated process at
// any time. Fork-per-request loops (and the zero-alloc benchmarks)
// pair each fork with a Recycle to run allocation-free once warm;
// everything else just calls Teardown and lets GC take the shell.
func (as *AddressSpace) Recycle() {
	as.Teardown()
	spacePool.Put(as)
}

// NewAddressSpace returns an empty address space drawing frames from
// alloc. The metrics registry is inherited from the allocator (see
// phys.Allocator.SetMetrics), so the whole memory stack of one kernel
// instruments into a single tree.
func NewAddressSpace(alloc *phys.Allocator) *AddressSpace {
	var rec *reclaim.Manager
	if m, ok := alloc.ReclaimerHook().(*reclaim.Manager); ok {
		rec = m
	}
	return getSpace(alloc, &tlb.Shootdown{}, rec)
}

// spaceIDs issues process-lifetime-unique address-space IDs for
// reclaim's lock ordering.
var spaceIDs atomic.Uint64

// trk returns the reclaim manager when LRU/rmap tracking is active,
// else nil — the one-load guard every bookkeeping hook sits behind.
func (as *AddressSpace) trk() *reclaim.Manager {
	if as.rec != nil && as.rec.Enabled() {
		return as.rec
	}
	return nil
}

// SetTenant attributes the space to a tenant account: every frame
// allocated from here on — data pages, COW copies, page tables grown
// by Ensure* walks — is charged to c, and failpoint injection sites
// report id for scope filtering. Children inherit the attribution at
// fork. Call before the first mapping; frames allocated earlier stay
// uncharged. A nil c with id 0 detaches the space.
func (as *AddressSpace) SetTenant(id uint64, c phys.FrameCharger) {
	as.mu.Lock()
	defer as.mu.Unlock()
	as.tenantID = id
	as.charger = c
	as.w.Charger = c
	if c == nil && id == 0 {
		as.tslot = nil
	}
}

// SetTenantSlot attaches the tenant's metric partition so fork/fault
// paths can charge per-tenant counters without a lookup. Children
// inherit the slot at fork, like the charger.
func (as *AddressSpace) SetTenantSlot(slot *metrics.TenantSlot) {
	as.mu.Lock()
	defer as.mu.Unlock()
	as.tslot = slot
}

// TenantID returns the tenant the space is attributed to (0 = none).
func (as *AddressSpace) TenantID() uint64 {
	as.mu.Lock()
	defer as.mu.Unlock()
	return as.tenantID
}

// SetRequest tags the space with the correlation id of the request it
// is serving (0 clears the tag). The serving tier brackets each
// handled request with this; forks propagate the tag to the clone.
func (as *AddressSpace) SetRequest(req uint64) { as.curReq.Store(req) }

// Request returns the current request correlation id (0 = none).
func (as *AddressSpace) Request() uint64 { return as.curReq.Load() }

// ReclaimID implements reclaim.Space.
func (as *AddressSpace) ReclaimID() uint64 { return as.id }

// TryLockForReclaim implements reclaim.Space.
func (as *AddressSpace) TryLockForReclaim() bool { return as.mu.TryLock() }

// UnlockForReclaim implements reclaim.Space.
func (as *AddressSpace) UnlockForReclaim() { as.mu.Unlock() }

// ReclaimFlushTLB implements reclaim.Space: evicting a page invalidates
// whole-TLB rather than per-line, because the reverse map is keyed by
// table, not by virtual address.
func (as *AddressSpace) ReclaimFlushTLB() { as.tlb.Flush() }

// Metrics returns the registry this space charges (may be nil).
func (as *AddressSpace) Metrics() *metrics.Registry { return as.met }

// TLB exposes the space's software TLB (statistics, tests).
func (as *AddressSpace) TLB() *tlb.TLB { return as.tlb }

// Allocator returns the backing physical allocator.
func (as *AddressSpace) Allocator() *phys.Allocator { return as.alloc }

// Walker exposes the paging hierarchy for tests and invariant checks.
func (as *AddressSpace) Walker() *pagetable.Walker { return &as.w }

// MappedBytes returns the total size of all VMAs.
func (as *AddressSpace) MappedBytes() uint64 {
	as.mu.Lock()
	defer as.mu.Unlock()
	return as.vmas.TotalBytes()
}

// VMACount returns the number of VMAs.
func (as *AddressSpace) VMACount() int {
	as.mu.Lock()
	defer as.mu.Unlock()
	return as.vmas.Len()
}

// VMAs returns a snapshot of the space's VMAs in address order. The
// returned VMAs must be treated as read-only.
func (as *AddressSpace) VMAs() []*vm.VMA {
	as.mu.Lock()
	defer as.mu.Unlock()
	out := make([]*vm.VMA, len(as.vmas.All()))
	copy(out, as.vmas.All())
	return out
}

// FindVMA returns the VMA containing v, or nil. The returned VMA must
// be treated as read-only.
func (as *AddressSpace) FindVMA(v addr.V) *vm.VMA {
	as.mu.Lock()
	defer as.mu.Unlock()
	return as.vmas.Find(v)
}

// Mmap creates a mapping of size bytes. A zero hint lets the kernel
// pick an address in the mmap area. Huge mappings must be 2 MiB-sized.
// With vm.MapPopulate every page is backed immediately, like the
// paper's benchmarks that write the whole buffer before forking.
func (as *AddressSpace) Mmap(hint addr.V, size uint64, prot vm.Prot, flags vm.MapFlags, backing vm.Backing, fileOff uint64) (_ addr.V, err error) {
	as.mu.Lock()
	defer as.mu.Unlock()
	defer catchOOM(&err)
	if as.dead {
		return 0, fmt.Errorf("core: address space torn down")
	}
	if size == 0 {
		return 0, fmt.Errorf("core: zero-size mmap: %w", ErrBadAddr)
	}
	if flags&vm.MapHuge != 0 {
		if size%addr.HugePageSize != 0 {
			return 0, fmt.Errorf("core: huge mmap size %#x not 2MiB-aligned: %w", size, ErrBadAddr)
		}
		if backing != nil {
			return 0, fmt.Errorf("core: huge file-backed mappings unsupported")
		}
	}
	size = addr.PageRoundUp(size)

	start := hint
	if start == 0 {
		base := mmapBase
		if flags&vm.MapHuge != 0 {
			base = addr.V(addr.HugeRoundUp(uint64(mmapBase)))
		}
		var ok bool
		start, ok = as.findGapLocked(base, size, flags)
		if !ok {
			return 0, fmt.Errorf("core: mmap area exhausted for %d bytes", size)
		}
	} else if !start.PageAligned() {
		return 0, fmt.Errorf("core: unaligned mmap hint %v: %w", start, ErrBadAddr)
	}
	if flags&vm.MapHuge != 0 && !start.HugeAligned() {
		return 0, fmt.Errorf("core: huge mmap at unaligned address %v: %w", start, ErrBadAddr)
	}

	vma := &vm.VMA{
		Range:   addr.NewRange(start, size),
		Prot:    prot,
		Flags:   flags,
		Backing: backing,
		FileOff: fileOff,
	}
	if err := as.vmas.Insert(vma); err != nil {
		return 0, err
	}
	if flags&vm.MapPopulate != 0 {
		if perr := as.populateLocked(vma, vma.Range); perr != nil {
			// Unwind: drop the half-populated mapping so a failed
			// MapPopulate leaves no trace of the VMA behind.
			as.vmas.RemoveRange(vma.Range)
			as.zapRangeLocked(vma.Range)
			return 0, perr
		}
	}
	return start, nil
}

// findGapLocked finds a free region, keeping huge mappings 2 MiB-aligned.
func (as *AddressSpace) findGapLocked(base addr.V, size uint64, flags vm.MapFlags) (addr.V, bool) {
	hint := base
	for {
		v, ok := as.vmas.FindGap(hint, size, mmapLimit)
		if !ok {
			return 0, false
		}
		if flags&vm.MapHuge == 0 || v.HugeAligned() {
			return v, true
		}
		aligned := addr.V(addr.HugeRoundUp(uint64(v)))
		if aligned == hint {
			// No progress possible; give up to avoid spinning.
			return 0, false
		}
		hint = aligned
	}
}

// populateLocked backs every page of r (within vma) with a fresh frame.
// Frames are materialized lazily by the phys layer, so this is a
// metadata-only operation until the pages are written.
func (as *AddressSpace) populateLocked(vma *vm.VMA, r addr.Range) error {
	if vma.Huge() {
		for v := r.Start; v < r.End; v += addr.HugePageSize {
			pmd, pi := as.ensurePrivatePMDLocked(v)
			if pmd.Entry(pi).Present() {
				continue
			}
			head := as.alloc.AllocHugeFor(as.charger)
			flags := pagetable.FlagHuge | pagetable.FlagUser
			if vma.Prot.CanWrite() {
				flags |= pagetable.FlagWritable
			}
			pmd.SetEntry(pi, pagetable.MakeEntry(head, flags))
			if m := as.trk(); m != nil {
				m.HugeMapped(head, pmd, pi, as)
			}
		}
		return nil
	}
	for v := r.Start; v < r.End; v += addr.PageSize {
		leaf, li := as.ensurePrivateLeafLocked(v)
		if leaf.Entry(li).Present() {
			continue
		}
		if err := as.installPageLocked(vma, leaf, li, v); err != nil {
			return err
		}
	}
	return nil
}

// installPageLocked backs one 4 KiB page, copying file content for
// file-backed VMAs. A backing can refuse the read (a checkpoint image's
// corrupt chunk or exhausted I/O retries), in which case the fresh
// frame is released and the error propagates out of the faulting
// access, never leaving a silently zero-filled page behind.
func (as *AddressSpace) installPageLocked(vma *vm.VMA, leaf *pagetable.Table, li int, v addr.V) error {
	f := as.alloc.AllocFor(as.charger)
	if vma.Backing != nil {
		off := vma.FileOff + uint64(v.PageBase()-vma.Range.Start)
		src, err := vma.Backing.PageAt(off)
		if err != nil {
			as.alloc.Put(f)
			return fmt.Errorf("core: page-in at %v from %s: %w", v, vma.Backing.BackingName(), err)
		}
		if src != nil {
			copy(as.alloc.Data(f), src)
		}
	}
	flags := pagetable.FlagUser
	if vma.Prot.CanWrite() {
		flags |= pagetable.FlagWritable
	}
	leaf.SetEntry(li, pagetable.MakeEntry(f, flags))
	if m := as.trk(); m != nil {
		m.PageMapped(f, leaf, li, as)
	}
	return nil
}

// Munmap removes all mappings in [start, start+size), tearing down page
// tables with the copy-on-write rules of §3.3: a shared last-level
// table whose whole relevant coverage is going away is simply
// dereferenced; a partially unmapped shared table is first copied.
func (as *AddressSpace) Munmap(start addr.V, size uint64) error {
	as.mu.Lock()
	defer as.mu.Unlock()
	if !start.PageAligned() {
		return fmt.Errorf("core: unaligned munmap %v: %w", start, ErrBadAddr)
	}
	r := addr.NewRange(start, addr.PageRoundUp(size))
	if r.Empty() {
		return fmt.Errorf("core: empty munmap: %w", ErrBadAddr)
	}
	removed := as.vmas.RemoveRange(r)
	for _, piece := range removed {
		if piece.Huge() {
			if err := as.zapHugeLocked(piece.Range); err != nil {
				return err
			}
			// Reclaim may have split cold huge pages into 4 KiB
			// mappings under a leaf table; zap those too.
			as.zapRangeLocked(piece.Range)
			continue
		}
		as.zapRangeLocked(piece.Range)
	}
	as.tlb.FlushRange(r)
	return nil
}

// zapHugeLocked clears huge PMD entries covering r, honoring shared
// PMD tables from the huge-page extension with the same §3.3 rules as
// shared PTE tables. Partial huge-page unmaps are rejected (the real
// kernel would split the huge page; the paper's workloads never do
// this).
func (as *AddressSpace) zapHugeLocked(r addr.Range) error {
	if !r.Start.HugeAligned() || uint64(r.End)%addr.HugePageSize != 0 {
		return fmt.Errorf("core: partial huge-page unmap %v: %w", r, ErrBadAddr)
	}
	// Process one PMD-table coverage (1 GiB) at a time.
	base := r.Start &^ addr.V(addr.PMDCoverage-1)
	for v := base; v < r.End; v += addr.PMDCoverage {
		pud, pi := as.w.FindPUD(v)
		if pud == nil {
			continue
		}
		pmd := pud.Child(pi)
		if pmd == nil {
			continue
		}
		coverage := addr.NewRange(v, addr.PMDCoverage)
		stillNeeded := as.vmas.MapsAnyIn(coverage)

		if pmd.ShareCount(as.alloc) > 1 {
			if stillNeeded {
				pmd = as.splitSharedPMDLocked(pud, pi, pmd)
			} else {
				// Whole coverage going away: drop our reference.
				pud.SetChild(pi, nil, 0)
				as.releasePMDRef(pmd)
				continue
			}
		}
		zap := coverage.Intersect(r)
		pmd.Lock()
		for a := zap.Start; a < zap.End; a += addr.HugePageSize {
			idx := a.Index(addr.PMD)
			if e := pmd.Entry(idx); e.Present() && e.Huge() {
				if m := as.trk(); m != nil {
					m.HugeUnmapped(e.Frame(), pmd, idx)
				}
				as.alloc.Put(e.Frame())
				pmd.SetEntry(idx, 0)
			}
		}
		pmd.Unlock()
	}
	return nil
}

// zapRangeLocked clears 4 KiB page table entries covering r, honoring
// shared-table copy-on-write. Must be called after the VMAs covering r
// have been removed from the set, so as.vmas reflects what must be kept.
func (as *AddressSpace) zapRangeLocked(r addr.Range) {
	as.w.VisitLeafTables(r, func(pmd *pagetable.Table, idx int, leaf *pagetable.Table, base addr.V) {
		coverage := addr.NewRange(base, addr.PTECoverage)
		stillNeeded := as.vmas.MapsAnyIn(coverage)

		leaf.Lock()
		shared := leaf.ShareCount(as.alloc) > 1
		if shared && stillNeeded {
			// §3.3: other VMAs of this process still use entries of this
			// shared table — copy it before clearing our part.
			leaf.Unlock()
			leaf = as.splitSharedLeafLocked(pmd, idx, leaf, base)
			leaf.Lock()
			shared = false
		}
		if shared {
			// Whole relevant coverage going away: drop our reference.
			leaf.Unlock()
			pmd.SetChild(idx, nil, 0)
			as.releaseLeafRef(leaf)
			return
		}

		// Dedicated table: clear the entries in r, releasing the table's
		// per-entry page references (and swap-slot references for
		// entries that were swapped out).
		zap := coverage.Intersect(r)
		for v := zap.Start; v < zap.End; v += addr.PageSize {
			li := v.Index(addr.PTE)
			if e := leaf.Entry(li); e.Present() {
				if m := as.trk(); m != nil {
					m.PageUnmapped(e.Frame(), leaf, li)
				}
				as.alloc.Put(e.Frame())
				leaf.SetEntry(li, 0)
			} else if e.Swapped() {
				as.rec.SwapUnref(e.SwapSlot())
				leaf.SetEntry(li, 0)
			}
		}
		empty := leaf.PresentCount() == 0 && leaf.SwapCount() == 0
		leaf.Unlock()
		if empty && !stillNeeded {
			pmd.SetChild(idx, nil, 0)
			as.releaseLeafRef(leaf)
		}
	})
}

// releaseLeafRef drops one share reference on a last-level table,
// freeing the table — and releasing its per-entry page references —
// when the count reaches zero (§3.5: "if any page table reaches a zero
// reference count, its destructor is called"). The decrement happens
// under the table lock so it serializes with concurrent splits by
// other sharers: a splitter holding the lock cannot observe the count
// dropping beneath it (the paper's §4 "test-and-set ... when one is
// being dereferenced and potentially freed").
func (as *AddressSpace) releaseLeafRef(leaf *pagetable.Table) {
	leaf.Lock()
	if as.alloc.PTSharePut(leaf.Frame) > 0 {
		leaf.Unlock()
		if m := as.trk(); m != nil {
			m.OwnerRemove(leaf, as)
		}
		return
	}
	for i := 0; i < addr.EntriesPerTable; i++ {
		if e := leaf.Entry(i); e.Present() {
			if m := as.trk(); m != nil {
				m.PageUnmapped(e.Frame(), leaf, i)
			}
			as.alloc.Put(e.Frame())
			leaf.SetEntry(i, 0)
		} else if e.Swapped() {
			as.rec.SwapUnref(e.SwapSlot())
			leaf.SetEntry(i, 0)
		}
	}
	leaf.Unlock()
	if m := as.trk(); m != nil {
		m.TableFreed(leaf)
	}
	as.alloc.Put(leaf.Frame)
	leaf.Recycle()
}

// Mremap moves the mapping at oldStart (oldSize bytes) to a new
// location of the same size, returning the new address. Shared
// last-level tables touched by the move are copied first, per §3.3.
func (as *AddressSpace) Mremap(oldStart addr.V, oldSize uint64) (_ addr.V, err error) {
	as.mu.Lock()
	defer as.mu.Unlock()
	defer catchOOM(&err)
	if !oldStart.PageAligned() {
		return 0, fmt.Errorf("core: unaligned mremap %v: %w", oldStart, ErrBadAddr)
	}
	oldSize = addr.PageRoundUp(oldSize)
	oldR := addr.NewRange(oldStart, oldSize)
	vma := as.vmas.Find(oldStart)
	if vma == nil || !vma.Range.ContainsRange(oldR) {
		return 0, fmt.Errorf("core: mremap of unmapped range %v: %w", oldR, ErrBadAddr)
	}
	if vma.Huge() {
		return 0, fmt.Errorf("core: mremap of huge mappings unsupported")
	}

	newStart, ok := as.vmas.FindGap(mmapBase, oldSize, mmapLimit)
	if !ok {
		return 0, fmt.Errorf("core: no space to mremap %d bytes", oldSize)
	}

	// Move the page table entries before touching the VMA set, so the
	// shared-table checks still see the old mapping.
	type moved struct {
		off addr.V
		e   pagetable.Entry
	}
	var entries []moved
	as.w.VisitLeafTables(oldR, func(pmd *pagetable.Table, idx int, leaf *pagetable.Table, base addr.V) {
		leaf.Lock()
		shared := leaf.ShareCount(as.alloc) > 1
		leaf.Unlock()
		if shared {
			// Copy-on-write the table: after the split we own a private
			// copy whose entries we can safely clear.
			leaf = as.splitSharedLeafLocked(pmd, idx, leaf, base)
		}
		coverage := addr.NewRange(base, addr.PTECoverage)
		zap := coverage.Intersect(oldR)
		leaf.Lock()
		for v := zap.Start; v < zap.End; v += addr.PageSize {
			li := v.Index(addr.PTE)
			if e := leaf.Entry(li); e.Present() || e.Swapped() {
				if e.Present() {
					if m := as.trk(); m != nil {
						m.PageUnmapped(e.Frame(), leaf, li)
					}
				}
				entries = append(entries, moved{off: v - oldStart, e: e})
				leaf.SetEntry(li, 0)
			}
		}
		empty := leaf.PresentCount() == 0 && leaf.SwapCount() == 0
		leaf.Unlock()
		if empty {
			pmd.SetChild(idx, nil, 0)
			as.releaseLeafRef(leaf)
		}
	})

	// Update the VMA set.
	as.vmas.RemoveRange(oldR)
	newVMA := &vm.VMA{
		Range:   addr.NewRange(newStart, oldSize),
		Prot:    vma.Prot,
		Flags:   vma.Flags &^ vm.MapPopulate,
		Backing: vma.Backing,
		FileOff: vma.FileOff + uint64(oldR.Start-vma.Range.Start),
	}
	if err := as.vmas.Insert(newVMA); err != nil {
		return 0, fmt.Errorf("core: mremap insert: %v", err)
	}

	// Reinstall the moved entries at the new location. Swap entries move
	// verbatim (the slot reference count is unchanged by a move).
	for _, mv := range entries {
		leaf, li := as.ensurePrivateLeafLocked(newStart + mv.off)
		leaf.SetEntry(li, mv.e)
		if mv.e.Present() {
			if m := as.trk(); m != nil {
				m.PageMapped(mv.e.Frame(), leaf, li, as)
			}
		}
	}
	as.tlb.FlushRange(oldR)
	return newStart, nil
}

// Mprotect changes the protection of [start, start+size), which must be
// covered by mapped VMAs.
func (as *AddressSpace) Mprotect(start addr.V, size uint64, prot vm.Prot) (err error) {
	as.mu.Lock()
	defer as.mu.Unlock()
	defer catchOOM(&err)
	r := addr.NewRange(start, addr.PageRoundUp(size))
	if !start.PageAligned() || r.Empty() {
		return fmt.Errorf("core: bad mprotect range %v: %w", r, ErrBadAddr)
	}
	overlapping := as.vmas.Overlapping(r)
	if len(overlapping) == 0 {
		return fmt.Errorf("core: mprotect of unmapped range %v: %w", r, ErrBadAddr)
	}
	// Split VMAs at the boundaries by removing and re-inserting.
	removed := as.vmas.RemoveRange(r)
	for _, piece := range removed {
		nv := *piece
		nv.Prot = prot
		if err := as.vmas.Insert(&nv); err != nil {
			return fmt.Errorf("core: mprotect reinsert: %v", err)
		}
		if !prot.CanWrite() && !piece.Huge() {
			as.writeProtectRangeLocked(piece.Range)
		}
	}
	as.tlb.FlushRange(r)
	return nil
}

// writeProtectRangeLocked clears the writable bit on present entries in
// r. Shared tables are split first, since their entries would otherwise
// change under other sharers with different protections.
func (as *AddressSpace) writeProtectRangeLocked(r addr.Range) {
	as.w.VisitLeafTables(r, func(pmd *pagetable.Table, idx int, leaf *pagetable.Table, base addr.V) {
		leaf.Lock()
		shared := leaf.ShareCount(as.alloc) > 1
		leaf.Unlock()
		if shared {
			leaf = as.splitSharedLeafLocked(pmd, idx, leaf, base)
		}
		coverage := addr.NewRange(base, addr.PTECoverage)
		zap := coverage.Intersect(r)
		leaf.Lock()
		for v := zap.Start; v < zap.End; v += addr.PageSize {
			li := v.Index(addr.PTE)
			if e := leaf.Entry(li); e.Present() || e.Swapped() {
				leaf.SetEntry(li, e.Without(pagetable.FlagWritable))
			}
		}
		leaf.Unlock()
	})
}

// Teardown releases the whole address space: every VMA, every page
// reference, and every page table. After Teardown the space is dead.
func (as *AddressSpace) Teardown() {
	as.mu.Lock()
	defer as.mu.Unlock()
	if as.dead {
		return
	}
	as.dead = true
	as.vmas.Reset()
	as.freeTree(as.w.Root)
	as.w.Root = nil
}

// freeTree recursively releases a paging subtree. PMD tables go
// through the share-counted release, since the huge-page extension can
// leave them shared across processes.
func (as *AddressSpace) freeTree(t *pagetable.Table) {
	if t.Level == addr.PMD {
		as.releasePMDRef(t)
		return
	}
	for i := 0; i < addr.EntriesPerTable; i++ {
		if child := t.Child(i); child != nil {
			as.freeTree(child)
			t.SetChild(i, nil, 0)
		}
	}
	as.alloc.Put(t.Frame)
	t.Recycle()
}

// releasePMDRef drops one share reference on a PMD table, releasing
// its huge pages and last-level table references — and the table
// itself — when the count reaches zero. As with releaseLeafRef, the
// decrement is serialized with concurrent splits by the table lock.
func (as *AddressSpace) releasePMDRef(t *pagetable.Table) {
	t.Lock()
	if as.alloc.PTSharePut(t.Frame) > 0 {
		t.Unlock()
		if m := as.trk(); m != nil {
			m.OwnerRemove(t, as)
		}
		return
	}
	for i := 0; i < addr.EntriesPerTable; i++ {
		e := t.Entry(i)
		if !e.Present() {
			continue
		}
		if e.Huge() {
			if m := as.trk(); m != nil {
				m.HugeUnmapped(e.Frame(), t, i)
			}
			as.alloc.Put(e.Frame())
			t.SetEntry(i, 0)
			continue
		}
		if leaf := t.Child(i); leaf != nil {
			t.SetChild(i, nil, 0)
			as.releaseLeafRef(leaf)
		}
	}
	t.Unlock()
	if m := as.trk(); m != nil {
		m.TableFreed(t)
	}
	as.alloc.Put(t.Frame)
	t.Recycle()
}

// Dead reports whether the space has been torn down.
func (as *AddressSpace) Dead() bool {
	as.mu.Lock()
	defer as.mu.Unlock()
	return as.dead
}

// MadviseDontneed discards the page contents of [start, start+size)
// without unmapping: page table entries are cleared (splitting shared
// tables first, since the neighbours keep their view) and the backing
// frames released; later accesses demand-fault fresh zero pages (or
// re-read the file for file-backed regions). This is the
// madvise(MADV_DONTNEED) fork-heavy frameworks use to reset state.
func (as *AddressSpace) MadviseDontneed(start addr.V, size uint64) (err error) {
	as.mu.Lock()
	defer as.mu.Unlock()
	defer catchOOM(&err)
	if !start.PageAligned() {
		return fmt.Errorf("core: unaligned madvise %v: %w", start, ErrBadAddr)
	}
	r := addr.NewRange(start, addr.PageRoundUp(size))
	if r.Empty() {
		return fmt.Errorf("core: empty madvise: %w", ErrBadAddr)
	}
	for _, vma := range as.vmas.Overlapping(r) {
		piece := vma.Range.Intersect(r)
		if vma.Huge() {
			if err := as.zapHugeLocked(piece); err != nil {
				return err
			}
			// Cold huge pages the reclaimer split live in leaf tables.
			as.zapRangeLocked(piece)
			continue
		}
		as.zapRangeLocked(piece)
	}
	as.tlb.FlushRange(r)
	return nil
}

// VisitPresentPages calls fn for every present 4 KiB page of the
// space, in address order, with the page's logical content (nil means
// all-zero). Huge mappings are delivered page by page. fn returning an
// error stops the walk. Used by durable checkpoint capture.
func (as *AddressSpace) VisitPresentPages(fn func(v addr.V, data []byte) error) error {
	var swapBuf []byte
	for _, vma := range as.VMAs() {
		for v := vma.Range.Start; v < vma.Range.End; v += addr.PageSize {
			data, present, err := as.pageContent(v, &swapBuf)
			if err != nil {
				return err
			}
			if !present {
				continue
			}
			if err := fn(v, data); err != nil {
				return err
			}
		}
	}
	return nil
}

// Page identity classes for the incremental-checkpoint diff.
const (
	identityAbsent = iota // no frame, no swap entry
	identityFrame         // present: identified by physical frame
	identitySlot          // swapped out: identified by swap slot
)

// pageIdentity classifies what backs v right now. Frames are global to
// the kernel's allocator, so two address spaces reporting the same
// frame for the same address share one COW page — identical content by
// construction. The same holds for a shared swap slot.
func (as *AddressSpace) pageIdentity(v addr.V) (kind int, id uint64) {
	as.mu.Lock()
	defer as.mu.Unlock()
	if tr, ok := as.w.Walk(v); ok {
		return identityFrame, uint64(tr.Frame)
	}
	if leaf, li := as.w.FindPTE(v); leaf != nil {
		if e := leaf.Entry(li); e.Swapped() {
			return identitySlot, uint64(e.SwapSlot())
		}
	}
	return identityAbsent, 0
}

// pageContent returns the logical content of v (nil = all zeroes) and
// whether v is present: mapped to a frame, or swapped out, in which
// case its content is read back through the swap store into swapBuf
// (slot 0 is the zero page, nil like any untouched frame).
func (as *AddressSpace) pageContent(v addr.V, swapBuf *[]byte) (data []byte, present bool, err error) {
	as.mu.Lock()
	defer as.mu.Unlock()
	if tr, ok := as.w.Walk(v); ok {
		return as.alloc.DataIfPresent(tr.Frame), true, nil
	}
	if as.rec == nil {
		return nil, false, nil
	}
	leaf, li := as.w.FindPTE(v)
	if leaf == nil || !leaf.Entry(li).Swapped() {
		return nil, false, nil
	}
	slot := leaf.Entry(li).SwapSlot()
	if slot == 0 {
		return nil, true, nil
	}
	if *swapBuf == nil {
		*swapBuf = make([]byte, addr.PageSize)
	}
	if err := as.rec.ReadSlot(slot, *swapBuf); err != nil {
		return nil, true, fmt.Errorf("core: reading swapped page %v: %w", v, err)
	}
	return *swapBuf, true, nil
}

// VisitDivergedPages calls fn for every page of the space whose content
// may differ from base's view of the same address — the incremental-
// checkpoint walk. The COW lineage makes the diff cheap: a page whose
// physical frame (or swap slot) is the same in both spaces is a still-
// shared COW page, so its content is identical by construction and the
// page is skipped (counted in skipped). Diverged pages are delivered
// with the space's logical content; nil data means the address now
// reads as zeroes and must be recorded explicitly, because it may
// shadow non-zero content in the parent snapshot. Only this space's
// VMA ranges are walked: the restore maps this space's VMA table, so
// addresses outside it can never be faulted in.
func (as *AddressSpace) VisitDivergedPages(base *AddressSpace, fn func(v addr.V, data []byte) error) (skipped uint64, err error) {
	var swapBuf []byte
	for _, vma := range as.VMAs() {
		for v := vma.Range.Start; v < vma.Range.End; v += addr.PageSize {
			selfKind, selfID := as.pageIdentity(v)
			baseKind, baseID := base.pageIdentity(v)
			if selfKind == baseKind && selfID == baseID {
				if selfKind != identityAbsent {
					skipped++
				}
				continue
			}
			var data []byte
			if selfKind != identityAbsent {
				data, _, err = as.pageContent(v, &swapBuf)
				if err != nil {
					return skipped, err
				}
			}
			if err := fn(v, data); err != nil {
				return skipped, err
			}
		}
	}
	return skipped, nil
}
