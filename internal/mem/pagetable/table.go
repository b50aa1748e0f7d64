package pagetable

import (
	"sync"
	"sync/atomic"

	"repro/internal/mem/addr"
	"repro/internal/mem/phys"
)

// Table is one node of the paging hierarchy. Every table is backed by a
// physical frame so that page-table memory is visible to the allocator
// statistics and so the last-level share counter can live in the
// frame's struct page, as in the paper's implementation (§4).
//
// Non-leaf tables carry Go pointers to their children alongside the
// architectural entries; the entry for a child slot stores permission
// bits (notably the writable bit that on-demand-fork clears to
// write-protect an entire shared PTE table's 2 MiB region).
type Table struct {
	Level addr.Level
	Frame phys.Frame

	mu       sync.Mutex
	entries  [addr.EntriesPerTable]atomic.Uint64
	children [addr.EntriesPerTable]*Table // non-leaf levels only

	// present, huge, and swapped count entries carrying FlagPresent /
	// FlagHuge / swap encodings. They are maintained by every entry
	// mutation so that fork-time predicates (hugeOnly, the parallel-fork
	// slot threshold) and table-emptiness checks are O(1) instead of
	// rescanning all 512 slots.
	present atomic.Int32
	huge    atomic.Int32
	swapped atomic.Int32
}

// tablePool recycles Table nodes across fork/teardown cycles. A Table
// is ~8 KiB of entry words and child pointers; without pooling every
// classic fork allocates one per duplicated table and every teardown
// garbage-collects them, which dominates the fork path's allocs/op.
// Tables enter the pool through Recycle, which guarantees they come
// back out clean (all entries zero, children nil, tallies zero).
var tablePool = sync.Pool{New: func() any { return new(Table) }}

// NewTable allocates a table of the given level, backed by a fresh
// page-table frame whose share counter starts at one (§3.5: "the
// reference counter ... is initialized to one in the constructor").
// The node itself comes from the table pool.
func NewTable(alloc *phys.Allocator, level addr.Level) *Table {
	return NewTableFor(alloc, level, nil)
}

// NewTableFor is NewTable charging the backing frame to c — the tenant
// account of the address space growing its hierarchy (nil = none).
func NewTableFor(alloc *phys.Allocator, level addr.Level, c phys.FrameCharger) *Table {
	f := alloc.AllocPageTableFor(c)
	alloc.PTShareInit(f, 1)
	t := tablePool.Get().(*Table)
	t.Level = level
	t.Frame = f
	return t
}

// TryNewTableNoReclaim is NewTable without the direct-reclaim retry on
// allocation failure. The reclaim subsystem uses it to allocate the
// leaf table of a huge-page split from inside a reclaim pass, where
// recursing into reclaim would self-deadlock.
func TryNewTableNoReclaim(alloc *phys.Allocator, level addr.Level) (*Table, error) {
	f, err := alloc.TryAllocPageTableNoReclaim()
	if err != nil {
		return nil, err
	}
	alloc.PTShareInit(f, 1)
	t := tablePool.Get().(*Table)
	t.Level = level
	t.Frame = f
	return t, nil
}

// Recycle returns the node to the table pool. The caller must have
// released the backing frame and hold the last reference: no other
// address space may share the table (share count reached zero) and any
// reclaim-side rmap state must already be purged (TableFreed). Entries
// are cleared with conditional stores — free paths have usually zeroed
// them one by one already, so the common case is 512 plain loads.
func (t *Table) Recycle() {
	for i := range t.entries {
		if t.entries[i].Load() != 0 {
			t.entries[i].Store(0)
		}
		if t.children[i] != nil {
			t.children[i] = nil
		}
	}
	if t.present.Load() != 0 {
		t.present.Store(0)
	}
	if t.huge.Load() != 0 {
		t.huge.Store(0)
	}
	if t.swapped.Load() != 0 {
		t.swapped.Store(0)
	}
	t.Frame = 0
	tablePool.Put(t)
}

// Lock acquires the table's lock (the analogue of the kernel's
// per-page-table spinlock).
func (t *Table) Lock() { t.mu.Lock() }

// Unlock releases the table's lock.
func (t *Table) Unlock() { t.mu.Unlock() }

// Entry returns the entry at index i. Entries are read atomically
// because last-level tables are shared between concurrently running
// simulated processes, just as hardware PTE reads are atomic words.
func (t *Table) Entry(i int) Entry { return Entry(t.entries[i].Load()) }

// SetEntry stores the entry at index i atomically and keeps the
// present/huge counts in sync with the old and new entry bits.
func (t *Table) SetEntry(i int, e Entry) {
	old := Entry(t.entries[i].Swap(uint64(e)))
	t.adjustCounts(old, e)
}

// OrEntry atomically sets flag bits on the entry at index i — the
// simulated CPU uses it for accessed/dirty bit updates.
func (t *Table) OrEntry(i int, flags Entry) {
	old := Entry(t.entries[i].Or(uint64(flags & flagsMask)))
	t.adjustCounts(old, old|(flags&flagsMask))
}

// ClearEntryFlags atomically clears flag bits on the entry at index i.
// Only bits that do not participate in the maintained tallies may be
// cleared this way (accessed/dirty — the second-chance aging bits);
// clearing present/huge/swap bits must go through SetEntry.
func (t *Table) ClearEntryFlags(i int, flags Entry) {
	if flags&(FlagPresent|FlagHuge|FlagSwapped) != 0 {
		panic("pagetable: ClearEntryFlags on a tallied bit")
	}
	t.entries[i].And(uint64(^(flags & flagsMask)))
}

// adjustCounts updates the present/huge/swapped tallies for an old→new
// entry transition.
func (t *Table) adjustCounts(old, new Entry) {
	if old.Present() != new.Present() {
		if new.Present() {
			t.present.Add(1)
		} else {
			t.present.Add(-1)
		}
	}
	if old.Huge() != new.Huge() {
		if new.Huge() {
			t.huge.Add(1)
		} else {
			t.huge.Add(-1)
		}
	}
	if old.Swapped() != new.Swapped() {
		if new.Swapped() {
			t.swapped.Add(1)
		} else {
			t.swapped.Add(-1)
		}
	}
}

// Child returns the child table at index i (nil for leaf tables or
// empty slots).
func (t *Table) Child(i int) *Table { return t.children[i] }

// SetChild installs child at index i with the given entry flags. A nil
// child clears the slot.
func (t *Table) SetChild(i int, child *Table, flags Entry) {
	t.children[i] = child
	if child == nil {
		t.SetEntry(i, 0)
		return
	}
	t.SetEntry(i, MakeEntry(child.Frame, flags))
}

// IsLeaf reports whether this is a last-level (PTE) table.
func (t *Table) IsLeaf() bool { return t.Level == addr.PTE }

// ShareCount returns the share counter of a last-level table, read from
// its backing frame's struct page union.
func (t *Table) ShareCount(alloc *phys.Allocator) int32 {
	return alloc.PTShareCount(t.Frame)
}

// PresentCount returns the number of present entries. It reads the
// maintained tally, so it is O(1).
func (t *Table) PresentCount() int { return int(t.present.Load()) }

// HugeCount returns the number of entries carrying FlagHuge.
func (t *Table) HugeCount() int { return int(t.huge.Load()) }

// SwapCount returns the number of swap entries. A table is only truly
// empty (eligible for teardown) when PresentCount and SwapCount are
// both zero, since swap entries still hold references to swap slots.
func (t *Table) SwapCount() int { return int(t.swapped.Load()) }

// TallyDelta accumulates present/huge/swapped transitions so that a
// bulk mutation can apply them to the table's atomic tallies in one
// add per counter instead of one per entry. The batching matters under
// parallel fork, where workers filling disjoint ranges of the same
// child table would otherwise serialize on the tally cache lines.
type TallyDelta struct {
	Present, Huge, Swapped int32
}

// Note records an old→new entry transition.
func (d *TallyDelta) Note(old, new Entry) {
	if old.Present() != new.Present() {
		if new.Present() {
			d.Present++
		} else {
			d.Present--
		}
	}
	if old.Huge() != new.Huge() {
		if new.Huge() {
			d.Huge++
		} else {
			d.Huge--
		}
	}
	if old.Swapped() != new.Swapped() {
		if new.Swapped() {
			d.Swapped++
		} else {
			d.Swapped--
		}
	}
}

// SetEntryDeferTally stores the entry at index i, recording the tally
// transition in d instead of touching the shared atomic counters. The
// caller must FlushTally(d) before anyone reads the tallies.
func (t *Table) SetEntryDeferTally(i int, e Entry, d *TallyDelta) {
	old := Entry(t.entries[i].Swap(uint64(e)))
	d.Note(old, e)
}

// SetChildDeferTally is SetChild with the tally transition deferred
// into d, for bulk fork-time fills.
func (t *Table) SetChildDeferTally(i int, child *Table, flags Entry, d *TallyDelta) {
	t.children[i] = child
	if child == nil {
		t.SetEntryDeferTally(i, 0, d)
		return
	}
	t.SetEntryDeferTally(i, MakeEntry(child.Frame, flags), d)
}

// FlushTally applies an accumulated delta to the atomic tallies.
func (t *Table) FlushTally(d TallyDelta) {
	if d.Present != 0 {
		t.present.Add(d.Present)
	}
	if d.Huge != 0 {
		t.huge.Add(d.Huge)
	}
	if d.Swapped != 0 {
		t.swapped.Add(d.Swapped)
	}
}

// CopyEntriesFrom copies all 512 architectural entries of src into t,
// preserving accessed bits (§3.2: the accessed bit value is duplicated
// when copying shared page tables). It is the bulk work of a PTE-table
// copy-on-write split. Tally updates are batched: three atomic adds per
// table instead of up to three per entry.
func (t *Table) CopyEntriesFrom(src *Table) {
	var d TallyDelta
	for i := range t.entries {
		ne := Entry(src.entries[i].Load())
		old := Entry(t.entries[i].Swap(uint64(ne)))
		d.Note(old, ne)
	}
	t.FlushTally(d)
}

// Walker navigates the hierarchy rooted at a PGD table.
type Walker struct {
	Root  *Table
	Alloc *phys.Allocator
	// Charger is the tenant account tables allocated by the Ensure*
	// walks are charged to (nil = unaccounted).
	Charger phys.FrameCharger
}

// NewWalker returns a walker over a fresh 4-level hierarchy.
func NewWalker(alloc *phys.Allocator) *Walker {
	return &Walker{
		Root:  NewTable(alloc, addr.PGD),
		Alloc: alloc,
	}
}

// EnsurePMD walks to (allocating as needed) the PMD table covering v
// and returns it with the PMD-level index of v.
func (w *Walker) EnsurePMD(v addr.V) (*Table, int) {
	t := w.Root
	for lvl := addr.PGD; lvl < addr.PMD; lvl++ {
		i := v.Index(lvl)
		child := t.Child(i)
		if child == nil {
			child = NewTableFor(w.Alloc, lvl+1, w.Charger)
			t.SetChild(i, child, FlagWritable|FlagUser)
		}
		t = child
	}
	return t, v.Index(addr.PMD)
}

// EnsurePTE walks to (allocating as needed) the last-level table
// covering v and returns it with the PTE-level index of v. It must not
// be used on ranges mapped with huge pages.
func (w *Walker) EnsurePTE(v addr.V) (*Table, int) {
	pmd, pi := w.EnsurePMD(v)
	leaf := pmd.Child(pi)
	if leaf == nil {
		if pmd.Entry(pi).Huge() {
			panic("pagetable: EnsurePTE under a huge mapping")
		}
		leaf = NewTableFor(w.Alloc, addr.PTE, w.Charger)
		pmd.SetChild(pi, leaf, FlagWritable|FlagUser)
	}
	return leaf, v.Index(addr.PTE)
}

// EnsurePUD walks to (allocating as needed) the PUD table covering v
// and returns it with the PUD-level index of v.
func (w *Walker) EnsurePUD(v addr.V) (*Table, int) {
	i := v.Index(addr.PGD)
	child := w.Root.Child(i)
	if child == nil {
		child = NewTableFor(w.Alloc, addr.PUD, w.Charger)
		w.Root.SetChild(i, child, FlagWritable|FlagUser)
	}
	return child, v.Index(addr.PUD)
}

// FindPMD walks to the PMD table covering v without allocating.
// It returns nil when any level is missing.
func (w *Walker) FindPMD(v addr.V) (*Table, int) {
	t := w.Root
	for lvl := addr.PGD; lvl < addr.PMD; lvl++ {
		t = t.Child(v.Index(lvl))
		if t == nil {
			return nil, 0
		}
	}
	return t, v.Index(addr.PMD)
}

// FindPUD walks to the PUD table covering v without allocating, with
// the PUD-level index of v. It returns nil when the path is missing.
func (w *Walker) FindPUD(v addr.V) (*Table, int) {
	t := w.Root.Child(v.Index(addr.PGD))
	if t == nil {
		return nil, 0
	}
	return t, v.Index(addr.PUD)
}

// FindPTE walks to the last-level table covering v without allocating.
func (w *Walker) FindPTE(v addr.V) (*Table, int) {
	pmd, pi := w.FindPMD(v)
	if pmd == nil {
		return nil, 0
	}
	leaf := pmd.Child(pi)
	if leaf == nil {
		return nil, 0
	}
	return leaf, v.Index(addr.PTE)
}

// Translation is the result of a software page walk.
type Translation struct {
	Entry    Entry      // the leaf (PTE or huge-PMD) entry
	Frame    phys.Frame // base frame of the 4 KiB page containing v
	Offset   int        // byte offset within that 4 KiB frame
	Writable bool       // effective permission (ANDed along the walk)
	Huge     bool       // translation came from a huge PMD entry
	// Leaf table and index, for fault handlers that need to update the
	// entry in place. For huge translations Leaf is the PMD table.
	Leaf      *Table
	LeafIndex int
	// PMD table and index covering v (always set when found).
	PMDTable *Table
	PMDIndex int
	// PUD table and index covering v, for faults that must split a
	// shared PMD table (on-demand-fork's huge-page extension).
	PUDTable *Table
	PUDIndex int
}

// Walk performs a software page walk for v, honoring hierarchical
// attributes: the effective writable permission is the AND of writable
// bits at every level, so a cleared PMD-entry writable bit (the
// on-demand-fork write-protect) masks writable leaf entries below it.
// It returns ok=false when no translation exists.
func (w *Walker) Walk(v addr.V) (Translation, bool) {
	t := w.Root
	writable := true
	var pudT *Table
	var pudI int
	for lvl := addr.PGD; lvl < addr.PMD; lvl++ {
		i := v.Index(lvl)
		e := t.Entry(i)
		if !e.Present() {
			return Translation{}, false
		}
		writable = writable && e.Writable()
		if lvl == addr.PUD {
			pudT, pudI = t, i
		}
		t = t.Child(i)
		if t == nil {
			return Translation{}, false
		}
	}
	pi := v.Index(addr.PMD)
	pe := t.Entry(pi)
	if !pe.Present() {
		return Translation{}, false
	}
	if pe.Huge() {
		head := pe.Frame()
		pageIdx := phys.Frame(v.HugeOffset() >> addr.PageShift)
		return Translation{
			Entry:     pe,
			Frame:     head + pageIdx,
			Offset:    v.PageOffset(),
			Writable:  writable && pe.Writable(),
			Huge:      true,
			Leaf:      t,
			LeafIndex: pi,
			PMDTable:  t,
			PMDIndex:  pi,
			PUDTable:  pudT,
			PUDIndex:  pudI,
		}, true
	}
	writable = writable && pe.Writable()
	leaf := t.Child(pi)
	if leaf == nil {
		return Translation{}, false
	}
	li := v.Index(addr.PTE)
	le := leaf.Entry(li)
	if !le.Present() {
		return Translation{}, false
	}
	return Translation{
		Entry:     le,
		Frame:     le.Frame(),
		Offset:    v.PageOffset(),
		Writable:  writable && le.Writable(),
		Huge:      false,
		Leaf:      leaf,
		LeafIndex: li,
		PMDTable:  t,
		PMDIndex:  pi,
		PUDTable:  pudT,
		PUDIndex:  pudI,
	}, true
}

// VisitPMDs calls fn for every present PMD slot intersecting r, passing
// the PMD table, the slot index, and the 2 MiB-aligned base address the
// slot covers. fn may modify the slot. Missing upper levels are skipped.
func (w *Walker) VisitPMDs(r addr.Range, fn func(pmd *Table, idx int, base addr.V)) {
	start := r.Start.HugeBase()
	for v := start; v < r.End; v += addr.PTECoverage {
		pmd, pi := w.FindPMD(v)
		if pmd == nil {
			// Skip the remainder of this missing upper-level span.
			v = skipToNextPresent(v, r.End)
			continue
		}
		if pmd.Entry(pi).Present() {
			fn(pmd, pi, v)
		}
	}
}

// skipToNextPresent advances v to the next PMD-table boundary minus one
// step, so the VisitPMDs loop increment lands on the next 1 GiB region.
func skipToNextPresent(v addr.V, end addr.V) addr.V {
	next := (v &^ addr.V(addr.PMDCoverage-1)) + addr.PMDCoverage
	if next > end {
		next = end
	}
	return next - addr.PTECoverage
}

// VisitLeafTables calls fn for every present last-level table
// intersecting r (huge PMD slots are skipped; use VisitPMDs for those).
func (w *Walker) VisitLeafTables(r addr.Range, fn func(pmd *Table, idx int, leaf *Table, base addr.V)) {
	w.VisitPMDs(r, func(pmd *Table, idx int, base addr.V) {
		if pmd.Entry(idx).Huge() {
			return
		}
		if leaf := pmd.Child(idx); leaf != nil {
			fn(pmd, idx, leaf, base)
		}
	})
}
