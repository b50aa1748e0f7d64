package core

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/mem/addr"
	"repro/internal/mem/phys"
	"repro/internal/mem/reclaim"
	"repro/internal/mem/vm"
	"repro/internal/metrics"
)

// newReclaimSpace builds an address space wired to an enabled reclaim
// manager, the way the kernel wires one. With no frame limit the
// watermarks are zero, so kswapd stays idle and tests drive eviction
// explicitly through ReclaimFrames.
func newReclaimSpace(t *testing.T) (*AddressSpace, *reclaim.Manager) {
	t.Helper()
	alloc := phys.NewAllocator()
	met := metrics.New()
	alloc.SetMetrics(met)
	m := reclaim.NewManager(alloc, met)
	alloc.SetReclaimer(m)
	m.SetEnabled(true)
	t.Cleanup(func() { m.SetEnabled(false) })
	return NewAddressSpace(alloc), m
}

// expectPattern checks the region against what fillPattern wrote.
func expectPattern(t *testing.T, as *AddressSpace, base addr.V, size uint64, seed byte) {
	t.Helper()
	got := make([]byte, addr.PageSize)
	want := make([]byte, addr.PageSize)
	for off := uint64(0); off < size; off += addr.PageSize {
		if err := as.ReadAt(got, base+addr.V(off)); err != nil {
			t.Fatalf("read at %#x: %v", off, err)
		}
		for i := range want {
			want[i] = seed ^ byte(off>>12) ^ byte(i)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("page at %#x differs after swap round-trip", off)
		}
	}
}

func TestEvictSwapInRoundTrip(t *testing.T) {
	as, m := newReclaimSpace(t)
	defer as.Teardown()
	const pages = 64
	base := mustMmap(t, as, pages*addr.PageSize, rw, vm.MapPrivate)
	fillPattern(t, as, base, pages*addr.PageSize, 0xC3)

	before := as.Allocator().Allocated()
	if !m.ReclaimFrames(pages / 2) {
		t.Fatal("ReclaimFrames freed nothing with 64 cold pages available")
	}
	if after := as.Allocator().Allocated(); after >= before {
		t.Fatalf("allocated frames %d -> %d, expected a drop", before, after)
	}
	if st := m.Stats(); st.SwapSlots == 0 {
		t.Fatal("no swap slots referenced after eviction")
	}
	if err := CheckInvariants(as); err != nil {
		t.Fatal(err)
	}

	// Every page reads back byte-identical, faulting swapped ones in.
	expectPattern(t, as, base, pages*addr.PageSize, 0xC3)
	if err := CheckInvariants(as); err != nil {
		t.Fatal(err)
	}

	// Teardown drops every remaining swap reference.
	as.Teardown()
	if st := m.Stats(); st.SwapSlots != 0 || st.Store.Slots != 0 {
		t.Fatalf("teardown left %d slot refs, %d store slots", st.SwapSlots, st.Store.Slots)
	}
}

// TestZeroPageSwap pins the slot-0 optimization: evicting a frame whose
// data was never materialized costs no store I/O, and the page still
// reads back as zeroes.
func TestZeroPageSwap(t *testing.T) {
	as, m := newReclaimSpace(t)
	defer as.Teardown()
	const pages = 16
	base := mustMmap(t, as, pages*addr.PageSize, rw, vm.MapPrivate)
	for i := 0; i < pages; i++ {
		if err := as.Touch(base+addr.V(i*addr.PageSize), false); err != nil {
			t.Fatal(err)
		}
	}
	if !m.ReclaimFrames(pages) {
		t.Fatal("ReclaimFrames freed nothing")
	}
	st := m.Stats()
	if st.SwapSlots == 0 {
		t.Fatal("no swap slots after evicting zero pages")
	}
	if st.Store.Slots != 0 {
		t.Fatalf("zero pages occupied %d store slots, want 0", st.Store.Slots)
	}
	buf := make([]byte, addr.PageSize)
	zero := make([]byte, addr.PageSize)
	for i := 0; i < pages; i++ {
		if err := as.ReadAt(buf, base+addr.V(i*addr.PageSize)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, zero) {
			t.Fatalf("zero page %d read back non-zero", i)
		}
	}
	if err := CheckInvariants(as); err != nil {
		t.Fatal(err)
	}
}

// TestForkWithSwappedEntries forks a space that has pages swapped out:
// both engines must duplicate the swap references, the child must read
// identical bytes (faulting them back in), and child COW writes must
// leave the parent's view intact.
func TestForkWithSwappedEntries(t *testing.T) {
	for _, mode := range forkModes() {
		t.Run(mode.String(), func(t *testing.T) {
			as, m := newReclaimSpace(t)
			const pages = 32
			base := mustMmap(t, as, pages*addr.PageSize, rw, vm.MapPrivate)
			fillPattern(t, as, base, pages*addr.PageSize, 0x7E)
			if !m.ReclaimFrames(pages / 2) {
				t.Fatal("eviction freed nothing")
			}
			child := mustForkOpts(as, mode, ForkOptions{})
			if err := CheckInvariants(as, child); err != nil {
				t.Fatal(err)
			}
			if err := EqualMemory(as, child, addr.Range{Start: base, End: base + addr.V(pages*addr.PageSize)}); err != nil {
				t.Fatal(err)
			}
			// COW write in the child over a previously swapped region.
			if err := child.WriteAt([]byte("child private"), base); err != nil {
				t.Fatal(err)
			}
			expectPattern(t, as, base, addr.PageSize, 0x7E) // parent page 0 untouched
			if err := CheckInvariants(as, child); err != nil {
				t.Fatal(err)
			}
			child.Teardown()
			if err := CheckInvariants(as); err != nil {
				t.Fatal(err)
			}
			as.Teardown()
			if st := m.Stats(); st.SwapSlots != 0 {
				t.Fatalf("%d slot refs leaked after teardown", st.SwapSlots)
			}
		})
	}
}

// TestMunmapSwapped unmaps a region with swapped-out pages: the swap
// slots must be released, not leaked.
func TestMunmapSwapped(t *testing.T) {
	as, m := newReclaimSpace(t)
	defer as.Teardown()
	const pages = 32
	base := mustMmap(t, as, pages*addr.PageSize, rw, vm.MapPrivate)
	fillPattern(t, as, base, pages*addr.PageSize, 0x11)
	if !m.ReclaimFrames(pages) {
		t.Fatal("eviction freed nothing")
	}
	if err := as.Munmap(base, pages*addr.PageSize); err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.SwapSlots != 0 || st.Store.Slots != 0 {
		t.Fatalf("munmap leaked %d slot refs, %d store slots", st.SwapSlots, st.Store.Slots)
	}
	if err := CheckInvariants(as); err != nil {
		t.Fatal(err)
	}
}

// TestDirectReclaimSurvivesFrameLimit is the core acceptance check: a
// working set twice the frame limit completes without ErrOutOfMemory
// because the fault path stalls in direct reclaim, and every byte
// survives the round trip through the swap store.
func TestDirectReclaimSurvivesFrameLimit(t *testing.T) {
	as, m := newReclaimSpace(t)
	defer as.Teardown()
	const pages = 256
	base := mustMmap(t, as, pages*addr.PageSize, rw, vm.MapPrivate)

	// Frame budget: half the data footprint, plus the page tables and a
	// small slack — the ISSUE's "frame limit at 50% of the workload".
	overhead := as.Allocator().Allocated()
	as.Allocator().SetLimit(overhead + pages/2 + 8)

	fillPattern(t, as, base, pages*addr.PageSize, 0x42)
	expectPattern(t, as, base, pages*addr.PageSize, 0x42)
	if err := CheckInvariants(as); err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.SwapSlots == 0 {
		t.Fatal("no pages were ever swapped under a 50% frame limit")
	}
	as.Allocator().SetLimit(0)
}

// TestSwapDisabledEquivalence: with the manager attached but disabled
// (the default kernel state), frame-limit pressure behaves exactly as
// before the subsystem existed — immediate ErrOutOfMemory, no tracking.
func TestSwapDisabledEquivalence(t *testing.T) {
	alloc := phys.NewAllocator()
	m := reclaim.NewManager(alloc, metrics.New())
	alloc.SetReclaimer(m)
	as := NewAddressSpace(alloc)
	defer as.Teardown()

	base := mustMmap(t, as, 64*addr.PageSize, rw, vm.MapPrivate)
	alloc.SetLimit(alloc.Allocated() + 4)
	var sawOOM bool
	for i := 0; i < 64; i++ {
		if err := as.StoreByte(base+addr.V(i*addr.PageSize), 1); err != nil {
			if !errors.Is(err, ErrOutOfMemory) {
				t.Fatalf("err = %v, want ErrOutOfMemory", err)
			}
			sawOOM = true
			break
		}
	}
	if !sawOOM {
		t.Fatal("no OOM with swap disabled under frame limit")
	}
	if st := m.Stats(); st.ActiveFrames != 0 || st.InactiveFrames != 0 || st.SwapSlots != 0 {
		t.Fatalf("disabled manager tracked state: %+v", st)
	}
	alloc.SetLimit(0)
}

// TestHugePageSplitForEviction: a huge mapping is split into base
// pages on the way out, then evicted page by page; contents survive.
func TestHugePageSplitForEviction(t *testing.T) {
	as, m := newReclaimSpace(t)
	defer as.Teardown()
	base := mustMmap(t, as, addr.HugePageSize, rw, vm.MapPrivate|vm.MapHuge|vm.MapPopulate)
	pattern := []byte("huge page payload survives the split")
	if err := as.WriteAt(pattern, base+addr.V(3*addr.PageSize)); err != nil {
		t.Fatal(err)
	}
	before := as.Allocator().Allocated()
	if !m.ReclaimFrames(64) {
		t.Fatal("eviction freed nothing from a huge mapping")
	}
	if after := as.Allocator().Allocated(); after >= before {
		t.Fatalf("allocated %d -> %d, expected a drop after huge split+evict", before, after)
	}
	if err := CheckInvariants(as); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(pattern))
	if err := as.ReadAt(got, base+addr.V(3*addr.PageSize)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pattern) {
		t.Fatalf("huge page contents = %q after split+evict round trip", got)
	}
	if err := CheckInvariants(as); err != nil {
		t.Fatal(err)
	}
}

// TestSwappedPagesAcrossManyForks stresses slot refcounting: fork a
// lineage off a space with swapped pages, tear spaces down in mixed
// order, and verify no slot leaks.
func TestSwappedPagesAcrossManyForks(t *testing.T) {
	as, m := newReclaimSpace(t)
	const pages = 16
	base := mustMmap(t, as, pages*addr.PageSize, rw, vm.MapPrivate)
	fillPattern(t, as, base, pages*addr.PageSize, 0x99)
	if !m.ReclaimFrames(pages) {
		t.Fatal("eviction freed nothing")
	}
	kids := make([]*AddressSpace, 4)
	for i := range kids {
		mode := ForkClassic
		if i%2 == 1 {
			mode = ForkOnDemand
		}
		kids[i] = mustForkOpts(as, mode, ForkOptions{})
	}
	all := append([]*AddressSpace{as}, kids...)
	if err := CheckInvariants(all...); err != nil {
		t.Fatal(err)
	}
	for _, k := range kids {
		if err := EqualMemory(as, k, addr.Range{Start: base, End: base + addr.V(pages*addr.PageSize)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := CheckInvariants(all...); err != nil {
		t.Fatal(err)
	}
	kids[1].Teardown()
	kids[3].Teardown()
	if err := CheckInvariants(as, kids[0], kids[2]); err != nil {
		t.Fatal(err)
	}
	as.Teardown()
	kids[0].Teardown()
	kids[2].Teardown()
	if st := m.Stats(); st.SwapSlots != 0 || st.Store.Slots != 0 {
		t.Fatalf("lineage teardown leaked %d slot refs, %d store slots", st.SwapSlots, st.Store.Slots)
	}
}

// TestFileStoreBackedReclaim swaps to a real file and round-trips.
func TestFileStoreBackedReclaim(t *testing.T) {
	alloc := phys.NewAllocator()
	m := reclaim.NewManager(alloc, metrics.New())
	alloc.SetReclaimer(m)
	fs, err := reclaim.NewFileStore(t.TempDir() + "/swap")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetStore(fs); err != nil {
		t.Fatal(err)
	}
	m.SetEnabled(true)
	t.Cleanup(func() { m.SetEnabled(false) })
	as := NewAddressSpace(alloc)
	defer as.Teardown()

	const pages = 32
	base := mustMmap(t, as, pages*addr.PageSize, rw, vm.MapPrivate)
	fillPattern(t, as, base, pages*addr.PageSize, 0xD5)
	if !m.ReclaimFrames(pages) {
		t.Fatal("eviction freed nothing")
	}
	if st := m.Stats(); st.Store.Slots == 0 {
		t.Fatal("file store holds no slots after eviction")
	}
	expectPattern(t, as, base, pages*addr.PageSize, 0xD5)
	if err := CheckInvariants(as); err != nil {
		t.Fatal(err)
	}
}

// TestReclaimMetricsCharged verifies the vmstat counters move.
func TestReclaimMetricsCharged(t *testing.T) {
	as, m := newReclaimSpace(t)
	defer as.Teardown()
	met := as.Allocator().Metrics()
	const pages = 32
	base := mustMmap(t, as, pages*addr.PageSize, rw, vm.MapPrivate)
	fillPattern(t, as, base, pages*addr.PageSize, 0x31)
	if !m.ReclaimFrames(pages) {
		t.Fatal("eviction freed nothing")
	}
	expectPattern(t, as, base, pages*addr.PageSize, 0x31)
	snap := met.Snapshot().Reclaim
	for _, c := range []struct {
		name string
		v    uint64
	}{
		{"pgscan_direct", snap.PgScanDirect},
		{"pgsteal_direct", snap.PgStealDirect},
		{"pswpout", snap.PswpOut},
		{"pswpin", snap.PswpIn},
	} {
		if c.v == 0 {
			t.Errorf("counter %s stayed zero", c.name)
		}
	}
	if snap.SwapOutLatency.Count == 0 || snap.SwapInLatency.Count == 0 {
		t.Error("swap latency histograms not observed")
	}
}

// TestMremapSwapped moves a mapping with swapped-out pages; the swap
// entries must travel with it.
func TestMremapSwapped(t *testing.T) {
	as, m := newReclaimSpace(t)
	defer as.Teardown()
	const pages = 16
	base := mustMmap(t, as, pages*addr.PageSize, rw, vm.MapPrivate)
	fillPattern(t, as, base, pages*addr.PageSize, 0x66)
	if !m.ReclaimFrames(pages) {
		t.Fatal("eviction freed nothing")
	}
	nbase, err := as.Mremap(base, pages*addr.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	expectPattern(t, as, nbase, pages*addr.PageSize, 0x66)
	if err := CheckInvariants(as); err != nil {
		t.Fatal(err)
	}
}

// TestForkStallsInReclaimAtLimit forks a space sitting exactly at its
// frame limit whose only reclaimable pages are its own. Reclaim run
// from inside the fork cannot evict them — the fork holds the parent's
// lock — so the fork must unwind, stall in reclaim with the lock
// released, and retry, as an access does.
func TestForkStallsInReclaimAtLimit(t *testing.T) {
	for _, mode := range forkModes() {
		t.Run(mode.String(), func(t *testing.T) {
			as, _ := newReclaimSpace(t)
			defer as.Teardown()
			const pages = 64
			size := uint64(pages * addr.PageSize)
			base := mustMmap(t, as, size, rw, vm.MapPrivate)
			fillPattern(t, as, base, size, 0x3C)
			alloc := as.Allocator()
			alloc.SetLimit(alloc.Allocated())
			defer alloc.SetLimit(0)

			child, err := ForkWithOptions(as, mode, ForkOptions{})
			if err != nil {
				t.Fatalf("fork at the frame limit with %d cold pages: %v", pages, err)
			}
			defer child.Teardown()
			expectPattern(t, child, base, size, 0x3C)
			if err := CheckInvariants(as, child); err != nil {
				t.Fatal(err)
			}
		})
	}
}
