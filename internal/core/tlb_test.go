package core

// Integration tests for the software TLB: translations must never go
// stale across COW faults, table splits, unmaps, or forks.

import (
	"testing"

	"repro/internal/mem/addr"
	"repro/internal/mem/vm"
)

func TestTLBCachesRepeatedAccess(t *testing.T) {
	as := newSpace()
	defer as.Teardown()
	base := mustMmap(t, as, 4*addr.PageSize, rw, vm.MapPrivate|vm.MapPopulate)
	for i := 0; i < 10; i++ {
		if _, err := as.LoadByte(base); err != nil {
			t.Fatal(err)
		}
	}
	if hits := as.TLB().Hits.Load(); hits < 8 {
		t.Errorf("hits = %d, want most of the repeated accesses", hits)
	}
}

func TestTLBNotStaleAcrossOwnCOW(t *testing.T) {
	// Parent reads (caching the translation), forks, then writes: the
	// write must see the COW'd copy, and subsequent reads must not be
	// served from the stale pre-COW translation.
	as := newSpace()
	defer as.Teardown()
	base := mustMmap(t, as, addr.PTECoverage, rw, vm.MapPrivate|vm.MapPopulate)
	if err := as.StoreByte(base, 0x10); err != nil {
		t.Fatal(err)
	}
	if _, err := as.LoadByte(base); err != nil { // cache it
		t.Fatal(err)
	}
	child := mustForkOpts(as, ForkOnDemand, ForkOptions{})
	defer child.Teardown()

	// Parent writes: shootdown (fork) + split + data COW happened.
	if err := as.StoreByte(base, 0x20); err != nil {
		t.Fatal(err)
	}
	if b, _ := as.LoadByte(base); b != 0x20 {
		t.Errorf("parent read-after-write = %#x (stale TLB?)", b)
	}
	if b, _ := child.LoadByte(base); b != 0x10 {
		t.Errorf("child sees %#x (COW broken)", b)
	}
}

func TestTLBStaleWritePreventedByShootdown(t *testing.T) {
	// The dangerous case: parent caches a *writable dirty* translation,
	// then an ODF fork write-protects the region. A stale TLB write hit
	// would scribble on the shared frame, corrupting the child.
	as := newSpace()
	defer as.Teardown()
	base := mustMmap(t, as, addr.PTECoverage, rw, vm.MapPrivate|vm.MapPopulate)
	// Write twice so the cached entry is writable+dirty (write hits
	// would be served directly from the TLB).
	if err := as.StoreByte(base, 1); err != nil {
		t.Fatal(err)
	}
	if err := as.StoreByte(base, 2); err != nil {
		t.Fatal(err)
	}
	child := mustForkOpts(as, ForkOnDemand, ForkOptions{})
	defer child.Teardown()

	// Parent writes through what would be a TLB write-hit path.
	if err := as.StoreByte(base, 3); err != nil {
		t.Fatal(err)
	}
	if b, _ := child.LoadByte(base); b != 2 {
		t.Fatalf("child sees %d: parent's stale TLB write leaked through", b)
	}
	if got := as.TLB().Shootdowns.Load(); got == 0 {
		t.Error("no shootdown recorded on the parent")
	}
}

func TestTLBStaleWritePreventedAcrossSplit(t *testing.T) {
	// Two children share a table; one splits it. The *other* child's
	// cached translations must be invalidated by the split's broadcast.
	as := newSpace()
	defer as.Teardown()
	base := mustMmap(t, as, addr.PTECoverage, rw, vm.MapPrivate|vm.MapPopulate)
	as.StoreByte(base, 0xA0)
	c1 := mustForkOpts(as, ForkOnDemand, ForkOptions{})
	defer c1.Teardown()
	c2 := mustForkOpts(as, ForkOnDemand, ForkOptions{})
	defer c2.Teardown()

	// c2 caches a read translation through the shared table.
	if b, _ := c2.LoadByte(base); b != 0xA0 {
		t.Fatal("setup")
	}
	// c1 writes, splitting the shared table and COWing the page.
	if err := c1.StoreByte(base, 0xB0); err != nil {
		t.Fatal(err)
	}
	// c2 must still read its own (original) value — and after its own
	// write, not disturb anyone else.
	if b, _ := c2.LoadByte(base); b != 0xA0 {
		t.Errorf("c2 sees %#x after c1's split", b)
	}
	if err := c2.StoreByte(base, 0xC0); err != nil {
		t.Fatal(err)
	}
	if b, _ := as.LoadByte(base); b != 0xA0 {
		t.Errorf("parent sees %#x", b)
	}
	if b, _ := c1.LoadByte(base); b != 0xB0 {
		t.Errorf("c1 sees %#x", b)
	}
	if err := CheckInvariants(as, c1, c2); err != nil {
		t.Fatal(err)
	}
}

func TestTLBFlushedOnMunmap(t *testing.T) {
	as := newSpace()
	defer as.Teardown()
	base := mustMmap(t, as, 2*addr.PageSize, rw, vm.MapPrivate|vm.MapPopulate)
	as.StoreByte(base, 5)
	as.LoadByte(base) // cache
	if err := as.Munmap(base, addr.PageSize); err != nil {
		t.Fatal(err)
	}
	if _, err := as.LoadByte(base); err == nil {
		t.Error("unmapped page still readable through TLB")
	}
	// Remap at the same address: fresh demand-zero contents, not the old
	// frame through a stale entry.
	if _, err := as.Mmap(base, addr.PageSize, rw, vm.MapPrivate, nil, 0); err != nil {
		t.Fatal(err)
	}
	if b, _ := as.LoadByte(base); b != 0 {
		t.Errorf("recycled mapping reads %#x through stale TLB", b)
	}
}

func TestTLBFlushedOnMadvise(t *testing.T) {
	as := newSpace()
	defer as.Teardown()
	base := mustMmap(t, as, addr.PageSize, rw, vm.MapPrivate|vm.MapPopulate)
	as.StoreByte(base, 9)
	as.LoadByte(base) // cache
	if err := as.MadviseDontneed(base, addr.PageSize); err != nil {
		t.Fatal(err)
	}
	if b, _ := as.LoadByte(base); b != 0 {
		t.Errorf("madvised page reads %#x through stale TLB", b)
	}
}

func TestTLBFlushedOnMprotect(t *testing.T) {
	as := newSpace()
	defer as.Teardown()
	base := mustMmap(t, as, addr.PageSize, rw, vm.MapPrivate|vm.MapPopulate)
	as.StoreByte(base, 1)
	as.StoreByte(base, 2) // writable+dirty entry cached
	if err := as.Mprotect(base, addr.PageSize, vm.ProtRead); err != nil {
		t.Fatal(err)
	}
	if err := as.StoreByte(base, 3); err == nil {
		t.Error("write through stale writable TLB entry after mprotect")
	}
}

func TestChildTLBStartsEmpty(t *testing.T) {
	as := newSpace()
	defer as.Teardown()
	base := mustMmap(t, as, addr.PageSize, rw, vm.MapPrivate|vm.MapPopulate)
	as.LoadByte(base)
	child := mustForkOpts(as, ForkClassic, ForkOptions{})
	defer child.Teardown()
	if got := child.TLB().Entries(); got != 0 {
		t.Errorf("child TLB has %d entries at birth", got)
	}
}
