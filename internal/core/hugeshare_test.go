package core

// Tests for the §4 "Huge Page Support" extension: on-demand-fork over
// 2 MiB mappings by sharing the PMD tables that describe them,
// write-protected through a single PUD entry.

import (
	"testing"

	"repro/internal/mem/addr"
	"repro/internal/mem/vm"
)

var shareHuge = ForkOptions{ShareHugePMD: true}

// hugeParent builds a space with n huge pages populated and stamped.
func hugeParent(t *testing.T, n int) (*AddressSpace, addr.V) {
	t.Helper()
	as := newSpace()
	base := mustMmap(t, as, uint64(n)*addr.HugePageSize, rw,
		vm.MapPrivate|vm.MapHuge|vm.MapPopulate)
	for i := 0; i < n; i++ {
		if err := as.StoreByte(base+addr.V(i)*addr.HugePageSize, byte(0x40+i)); err != nil {
			t.Fatal(err)
		}
	}
	return as, base
}

func TestHugeShareForkSharesPMDTable(t *testing.T) {
	as, base := hugeParent(t, 3)
	defer as.Teardown()

	child := mustForkOpts(as, ForkOnDemand, shareHuge)
	defer child.Teardown()

	pp, pi := as.w.FindPUD(base)
	cp, ci := child.w.FindPUD(base)
	if pp.Child(pi) != cp.Child(ci) {
		t.Fatal("PMD tables not shared")
	}
	if got := pp.Child(pi).ShareCount(as.alloc); got != 2 {
		t.Errorf("PMD share count = %d, want 2", got)
	}
	if pp.Entry(pi).Writable() || cp.Entry(ci).Writable() {
		t.Error("PUD entries still writable after share")
	}
	// No per-huge-page reference counting happened at fork time.
	tr, ok := as.w.Walk(base)
	if !ok {
		t.Fatal("walk failed")
	}
	if got := as.alloc.RefCount(tr.Frame); got != 1 {
		t.Errorf("huge head refcount = %d, want 1 (table-held)", got)
	}
	if err := CheckInvariants(as, child); err != nil {
		t.Fatal(err)
	}
}

func TestHugeShareMemoryIdentical(t *testing.T) {
	as, base := hugeParent(t, 2)
	child := mustForkOpts(as, ForkOnDemand, shareHuge)
	if err := EqualMemory(as, child, addr.NewRange(base, 2*addr.HugePageSize)); err != nil {
		t.Fatal(err)
	}
	child.Teardown()
	as.Teardown()
	if n := as.alloc.Allocated(); n != 0 {
		t.Errorf("leak: %d frames", n)
	}
}

func TestHugeShareReadsDoNotFault(t *testing.T) {
	as, base := hugeParent(t, 2)
	defer as.Teardown()
	child := mustForkOpts(as, ForkOnDemand, shareHuge)
	defer child.Teardown()

	buf := make([]byte, addr.PageSize)
	for off := uint64(0); off < 2*addr.HugePageSize; off += addr.PageSize * 64 {
		if err := child.ReadAt(buf, base+addr.V(off)); err != nil {
			t.Fatal(err)
		}
	}
	if got := child.Faults.Load(); got != 0 {
		t.Errorf("reads caused %d faults", got)
	}
	if got := child.PMDSplits.Load(); got != 0 {
		t.Errorf("reads caused %d PMD splits", got)
	}
}

func TestHugeShareWriteSplitsOnce(t *testing.T) {
	as, base := hugeParent(t, 2)
	defer as.Teardown()
	child := mustForkOpts(as, ForkOnDemand, shareHuge)
	defer child.Teardown()

	// First write: split the PMD table, then 2 MiB COW.
	if err := child.StoreByte(base+7, 0xEE); err != nil {
		t.Fatal(err)
	}
	if got := child.PMDSplits.Load(); got != 1 {
		t.Errorf("PMD splits = %d, want 1", got)
	}
	if got := child.HugeCopies.Load(); got != 1 {
		t.Errorf("huge copies = %d, want 1", got)
	}
	// Second write in the same 1 GiB coverage: no further PMD split.
	if err := child.StoreByte(base+addr.HugePageSize, 0xEF); err != nil {
		t.Fatal(err)
	}
	if got := child.PMDSplits.Load(); got != 1 {
		t.Errorf("second write PMD splits = %d, want 1", got)
	}
	if got := child.HugeCopies.Load(); got != 2 {
		t.Errorf("second write huge copies = %d, want 2", got)
	}
	// COW isolation both ways: the parent's byte at base+7 was never
	// written (zero), and its stamp at base survives.
	if b, _ := as.LoadByte(base + 7); b != 0 {
		t.Errorf("child write leaked to parent: %#x", b)
	}
	if b, _ := as.LoadByte(base); b != 0x40 {
		t.Errorf("parent stamp lost: %#x", b)
	}
	if b, _ := child.LoadByte(base + 7); b != 0xEE {
		t.Errorf("child lost write: %#x", b)
	}
	if err := CheckInvariants(as, child); err != nil {
		t.Fatal(err)
	}
}

func TestHugeShareParentWrite(t *testing.T) {
	as, base := hugeParent(t, 1)
	defer as.Teardown()
	child := mustForkOpts(as, ForkOnDemand, shareHuge)
	defer child.Teardown()

	if err := as.StoreByte(base, 0x99); err != nil {
		t.Fatal(err)
	}
	if b, _ := child.LoadByte(base); b != 0x40 {
		t.Errorf("parent write visible in child: %#x", b)
	}
	if err := CheckInvariants(as, child); err != nil {
		t.Fatal(err)
	}
}

func TestHugeShareFastDedup(t *testing.T) {
	as, base := hugeParent(t, 1)
	defer as.Teardown()
	child := mustForkOpts(as, ForkOnDemand, shareHuge)
	child.Teardown()

	if err := as.StoreByte(base, 1); err != nil {
		t.Fatal(err)
	}
	if got := as.PMDSplits.Load(); got != 0 {
		t.Errorf("PMD splits = %d, want 0 (fast path)", got)
	}
	if got := as.FastDedups.Load(); got == 0 {
		t.Error("no fast dedup recorded")
	}
	if got := as.HugeCopies.Load(); got != 0 {
		t.Errorf("huge copies = %d, want 0 (sole owner reuses)", got)
	}
	if err := CheckInvariants(as); err != nil {
		t.Fatal(err)
	}
}

func TestHugeShareManyChildren(t *testing.T) {
	as, base := hugeParent(t, 1)
	var children []*AddressSpace
	for i := 0; i < 4; i++ {
		children = append(children, mustForkOpts(as, ForkOnDemand, shareHuge))
	}
	pp, pi := as.w.FindPUD(base)
	if got := pp.Child(pi).ShareCount(as.alloc); got != 5 {
		t.Errorf("PMD share count = %d, want 5", got)
	}
	all := append([]*AddressSpace{as}, children...)
	if err := CheckInvariants(all...); err != nil {
		t.Fatal(err)
	}
	// One child writes; the rest keep the shared table.
	if err := children[1].StoreByte(base, 0xAB); err != nil {
		t.Fatal(err)
	}
	if got := pp.Child(pi).ShareCount(as.alloc); got != 4 {
		t.Errorf("share count after split = %d, want 4", got)
	}
	for i, c := range children {
		want := byte(0x40)
		if i == 1 {
			want = 0xAB
		}
		if b, _ := c.LoadByte(base); b != want {
			t.Errorf("child %d sees %#x want %#x", i, b, want)
		}
	}
	if err := CheckInvariants(all...); err != nil {
		t.Fatal(err)
	}
	for _, c := range children {
		c.Teardown()
	}
	as.Teardown()
	if n := as.alloc.Allocated(); n != 0 {
		t.Errorf("leak: %d frames", n)
	}
}

func TestHugeShareMunmapWholeCoverage(t *testing.T) {
	as, base := hugeParent(t, 2)
	defer as.Teardown()
	child := mustForkOpts(as, ForkOnDemand, shareHuge)

	pp, pi := as.w.FindPUD(base)
	pmd := pp.Child(pi)
	if err := child.Munmap(base, 2*addr.HugePageSize); err != nil {
		t.Fatal(err)
	}
	if got := child.PMDSplits.Load(); got != 0 {
		t.Errorf("full unmap split %d tables", got)
	}
	if got := pmd.ShareCount(as.alloc); got != 1 {
		t.Errorf("share count after child unmap = %d, want 1", got)
	}
	if b, _ := as.LoadByte(base); b != 0x40 {
		t.Error("parent data lost")
	}
	if err := CheckInvariants(as, child); err != nil {
		t.Fatal(err)
	}
	child.Teardown()
}

func TestHugeShareMunmapPartialCoverage(t *testing.T) {
	// Two huge VMAs land under the same (shared) PMD table; unmapping
	// one must copy the table first, keeping the other alive.
	as := newSpace()
	defer as.Teardown()
	base := mustMmap(t, as, 4*addr.HugePageSize, rw,
		vm.MapPrivate|vm.MapHuge|vm.MapPopulate)
	if err := as.StoreByte(base, 0x11); err != nil {
		t.Fatal(err)
	}
	if err := as.StoreByte(base+2*addr.HugePageSize, 0x22); err != nil {
		t.Fatal(err)
	}
	child := mustForkOpts(as, ForkOnDemand, shareHuge)
	defer child.Teardown()

	if err := child.Munmap(base, 2*addr.HugePageSize); err != nil {
		t.Fatal(err)
	}
	if got := child.PMDSplits.Load(); got != 1 {
		t.Errorf("partial unmap PMD splits = %d, want 1", got)
	}
	if _, err := child.LoadByte(base); err == nil {
		t.Error("unmapped half still readable in child")
	}
	if b, _ := child.LoadByte(base + 2*addr.HugePageSize); b != 0x22 {
		t.Errorf("kept half corrupted: %#x", b)
	}
	if b, _ := as.LoadByte(base); b != 0x11 {
		t.Errorf("parent lower half corrupted: %#x", b)
	}
	if err := CheckInvariants(as, child); err != nil {
		t.Fatal(err)
	}
}

func TestHugeShareMixedRegionNotShared(t *testing.T) {
	// A PMD table containing 4 KiB leaves must not be shared at the PUD
	// level; the huge-only condition keeps shared PMD tables pure.
	as := newSpace()
	defer as.Teardown()
	hbase := mustMmap(t, as, addr.HugePageSize, rw,
		vm.MapPrivate|vm.MapHuge|vm.MapPopulate)
	// A small 4 KiB mapping in the same 1 GiB coverage.
	small, err := as.Mmap(hbase+4*addr.HugePageSize, addr.PageSize, rw,
		vm.MapPrivate|vm.MapPopulate, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := as.StoreByte(small, 0x77); err != nil {
		t.Fatal(err)
	}
	child := mustForkOpts(as, ForkOnDemand, shareHuge)
	defer child.Teardown()

	pp, pi := as.w.FindPUD(hbase)
	cp, ci := child.w.FindPUD(hbase)
	if pp.Child(pi) == cp.Child(ci) {
		t.Error("mixed PMD table was shared")
	}
	// The nested leaf table under it must still be shared ODF-style.
	pl, _ := as.w.FindPTE(small)
	cl, _ := child.w.FindPTE(small)
	if pl != cl {
		t.Error("leaf table under mixed PMD not shared")
	}
	if err := CheckInvariants(as, child); err != nil {
		t.Fatal(err)
	}
}

func TestHugeShareGrandchild(t *testing.T) {
	as, base := hugeParent(t, 1)
	child := mustForkOpts(as, ForkOnDemand, shareHuge)
	grand := mustForkOpts(child, ForkOnDemand, shareHuge)

	pp, pi := as.w.FindPUD(base)
	if got := pp.Child(pi).ShareCount(as.alloc); got != 3 {
		t.Errorf("share count = %d, want 3", got)
	}
	child.Teardown()
	if err := EqualMemory(as, grand, addr.NewRange(base, addr.HugePageSize)); err != nil {
		t.Fatal(err)
	}
	if err := CheckInvariants(as, grand); err != nil {
		t.Fatal(err)
	}
	grand.Teardown()
	as.Teardown()
	if n := as.alloc.Allocated(); n != 0 {
		t.Errorf("leak: %d frames", n)
	}
}

func TestHugeShareDemandPagingSplits(t *testing.T) {
	// A never-touched huge page inside a shared PMD coverage must be
	// installed into a private table, not the shared one.
	as := newSpace()
	defer as.Teardown()
	base := mustMmap(t, as, 2*addr.HugePageSize, rw, vm.MapPrivate|vm.MapHuge)
	// Populate only the first huge page (demand paging handles both,
	// but stamp the first so the table qualifies as huge-only).
	if err := as.StoreByte(base, 0x31); err != nil {
		t.Fatal(err)
	}
	child := mustForkOpts(as, ForkOnDemand, shareHuge)
	defer child.Teardown()

	// Touch the second (absent) huge page in the child.
	if err := child.StoreByte(base+addr.HugePageSize, 0x32); err != nil {
		t.Fatal(err)
	}
	// The parent must not see the child's demand-paged entry.
	pp, pi := as.w.FindPMD(base + addr.HugePageSize)
	if pp.Entry(pi).Present() {
		t.Error("child demand paging leaked into parent's shared table")
	}
	if err := CheckInvariants(as, child); err != nil {
		t.Fatal(err)
	}
}

func TestHugeShareForkLatencyAdvantage(t *testing.T) {
	// The extension's point: forking a huge-mapped process no longer
	// touches one reference per 2 MiB page and allocates one fewer
	// table level. Compare allocation deltas and the shared pointer.
	as, base := hugeParent(t, 8)
	defer as.Teardown()

	before := as.alloc.Allocated()
	childShared := mustForkOpts(as, ForkOnDemand, shareHuge)
	sharedDelta := as.alloc.Allocated() - before
	pp, pi := as.w.FindPUD(base)
	cp, ci := childShared.w.FindPUD(base)
	if pp.Child(pi) != cp.Child(ci) {
		t.Error("PMD table not reused by shared fork")
	}
	childShared.Teardown()

	before = as.alloc.Allocated()
	childPlain := mustForkOpts(as, ForkOnDemand, ForkOptions{})
	plainDelta := as.alloc.Allocated() - before
	childPlain.Teardown()

	if sharedDelta >= plainDelta {
		t.Errorf("shared fork allocated %d frames, plain %d", sharedDelta, plainDelta)
	}
}
