package core

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/mem/addr"
	"repro/internal/mem/phys"
	"repro/internal/mem/vm"
)

func newSpace() *AddressSpace {
	return NewAddressSpace(phys.NewAllocator())
}

func mustMmap(t *testing.T, as *AddressSpace, size uint64, prot vm.Prot, flags vm.MapFlags) addr.V {
	t.Helper()
	v, err := as.Mmap(0, size, prot, flags, nil, 0)
	if err != nil {
		t.Fatalf("Mmap: %v", err)
	}
	return v
}

const rw = vm.ProtRead | vm.ProtWrite

func TestMmapWriteRead(t *testing.T) {
	as := newSpace()
	base := mustMmap(t, as, 64*addr.PageSize, rw, vm.MapPrivate)
	msg := []byte("hello, simulated memory")
	if err := as.WriteAt(msg, base+addr.V(3*addr.PageSize+100)); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	got := make([]byte, len(msg))
	if err := as.ReadAt(got, base+addr.V(3*addr.PageSize+100)); err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	if !bytes.Equal(got, msg) {
		t.Errorf("roundtrip = %q", got)
	}
	as.Teardown()
	if n := as.Allocator().Allocated(); n != 0 {
		t.Errorf("leak after teardown: %d frames", n)
	}
}

func TestMmapCrossPageBoundary(t *testing.T) {
	as := newSpace()
	defer as.Teardown()
	base := mustMmap(t, as, 4*addr.PageSize, rw, vm.MapPrivate)
	data := make([]byte, 3*addr.PageSize)
	for i := range data {
		data[i] = byte(i * 7)
	}
	if err := as.WriteAt(data, base+addr.V(addr.PageSize/2)); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := as.ReadAt(got, base+addr.V(addr.PageSize/2)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("cross-page roundtrip mismatch")
	}
}

func TestMmapErrors(t *testing.T) {
	as := newSpace()
	defer as.Teardown()
	if _, err := as.Mmap(0, 0, rw, vm.MapPrivate, nil, 0); err == nil {
		t.Error("zero-size mmap succeeded")
	}
	if _, err := as.Mmap(0x1001, addr.PageSize, rw, vm.MapPrivate, nil, 0); err == nil {
		t.Error("unaligned hint mmap succeeded")
	}
	if _, err := as.Mmap(0, addr.PageSize, rw, vm.MapHuge, nil, 0); err == nil {
		t.Error("non-2MiB huge mmap succeeded")
	}
	// Overlapping hint.
	base := mustMmap(t, as, addr.PageSize, rw, vm.MapPrivate)
	if _, err := as.Mmap(base, addr.PageSize, rw, vm.MapPrivate, nil, 0); err == nil {
		t.Error("overlapping mmap succeeded")
	}
}

func TestReadUnwrittenIsZero(t *testing.T) {
	as := newSpace()
	defer as.Teardown()
	base := mustMmap(t, as, 8*addr.PageSize, rw, vm.MapPrivate|vm.MapPopulate)
	buf := make([]byte, 100)
	buf[0] = 0xFF
	if err := as.ReadAt(buf, base); err != nil {
		t.Fatal(err)
	}
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("unwritten byte %d = %#x", i, b)
		}
	}
}

func TestDemandPaging(t *testing.T) {
	as := newSpace()
	defer as.Teardown()
	base := mustMmap(t, as, 16*addr.PageSize, rw, vm.MapPrivate) // no populate
	st := as.Tables()
	if st.PresentPTEs != 0 {
		t.Fatalf("pages present before access: %d", st.PresentPTEs)
	}
	if err := as.StoreByte(base+addr.V(5*addr.PageSize), 42); err != nil {
		t.Fatal(err)
	}
	if got := as.Faults.Load(); got == 0 {
		t.Error("no fault recorded for demand paging")
	}
	st = as.Tables()
	if st.PresentPTEs != 1 {
		t.Errorf("present PTEs = %d, want 1", st.PresentPTEs)
	}
	b, err := as.LoadByte(base + addr.V(5*addr.PageSize))
	if err != nil || b != 42 {
		t.Errorf("LoadByte = %d, %v", b, err)
	}
}

func TestSegfaults(t *testing.T) {
	as := newSpace()
	defer as.Teardown()
	if err := as.StoreByte(0xdead000, 1); err == nil {
		t.Error("write to unmapped address succeeded")
	} else if se, ok := err.(*SegfaultError); !ok || se.Kind != FaultUnmapped {
		t.Errorf("unexpected error: %v", err)
	}
	base := mustMmap(t, as, addr.PageSize, vm.ProtRead, vm.MapPrivate|vm.MapPopulate)
	if err := as.StoreByte(base, 1); err == nil {
		t.Error("write to read-only mapping succeeded")
	} else if se, ok := err.(*SegfaultError); !ok || se.Kind != FaultProtection {
		t.Errorf("unexpected error: %v", err)
	}
	if _, err := as.LoadByte(base); err != nil {
		t.Errorf("read of read-only mapping failed: %v", err)
	}
	if err := (&SegfaultError{Addr: 1, Write: true}).Error(); err == "" {
		t.Error("empty segfault message")
	}
}

func TestMunmapFreesFrames(t *testing.T) {
	as := newSpace()
	base := mustMmap(t, as, 8*addr.PageSize, rw, vm.MapPrivate|vm.MapPopulate)
	if got := as.Allocator().Allocated(); got == 0 {
		t.Fatal("populate allocated nothing")
	}
	if err := as.Munmap(base, 8*addr.PageSize); err != nil {
		t.Fatal(err)
	}
	if err := as.StoreByte(base, 1); err == nil {
		t.Error("write to unmapped range succeeded")
	}
	as.Teardown()
	if got := as.Allocator().Allocated(); got != 0 {
		t.Errorf("leak: %d frames", got)
	}
}

func TestMunmapPartial(t *testing.T) {
	as := newSpace()
	defer as.Teardown()
	base := mustMmap(t, as, 8*addr.PageSize, rw, vm.MapPrivate|vm.MapPopulate)
	if err := as.WriteAt([]byte{1, 2, 3}, base); err != nil {
		t.Fatal(err)
	}
	// Unmap the middle; ends must stay accessible.
	if err := as.Munmap(base+2*addr.PageSize, 4*addr.PageSize); err != nil {
		t.Fatal(err)
	}
	if _, err := as.LoadByte(base); err != nil {
		t.Errorf("head read failed: %v", err)
	}
	if _, err := as.LoadByte(base + 7*addr.PageSize); err != nil {
		t.Errorf("tail read failed: %v", err)
	}
	if _, err := as.LoadByte(base + 3*addr.PageSize); err == nil {
		t.Error("middle read succeeded after unmap")
	}
	if err := CheckInvariants(as); err != nil {
		t.Error(err)
	}
}

func TestMunmapErrors(t *testing.T) {
	as := newSpace()
	defer as.Teardown()
	if err := as.Munmap(0x1001, addr.PageSize); err == nil {
		t.Error("unaligned munmap succeeded")
	}
	if err := as.Munmap(0x1000, 0); err == nil {
		t.Error("empty munmap succeeded")
	}
}

func TestMremapMovesData(t *testing.T) {
	as := newSpace()
	defer as.Teardown()
	base := mustMmap(t, as, 4*addr.PageSize, rw, vm.MapPrivate|vm.MapPopulate)
	payload := []byte("movable feast")
	if err := as.WriteAt(payload, base+addr.V(addr.PageSize)); err != nil {
		t.Fatal(err)
	}
	nb, err := as.Mremap(base, 4*addr.PageSize)
	if err != nil {
		t.Fatalf("Mremap: %v", err)
	}
	if nb == base {
		t.Error("mremap did not move")
	}
	got := make([]byte, len(payload))
	if err := as.ReadAt(got, nb+addr.V(addr.PageSize)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Errorf("moved data = %q", got)
	}
	if _, err := as.LoadByte(base); err == nil {
		t.Error("old range still mapped after mremap")
	}
	if err := CheckInvariants(as); err != nil {
		t.Error(err)
	}
}

func TestMremapErrors(t *testing.T) {
	as := newSpace()
	defer as.Teardown()
	if _, err := as.Mremap(0x4000, addr.PageSize); err == nil {
		t.Error("mremap of unmapped range succeeded")
	}
	if _, err := as.Mremap(0x1001, addr.PageSize); err == nil {
		t.Error("unaligned mremap succeeded")
	}
	hb := mustMmap(t, as, addr.HugePageSize, rw, vm.MapPrivate|vm.MapHuge)
	if _, err := as.Mremap(hb, addr.HugePageSize); err == nil {
		t.Error("huge mremap succeeded")
	}
}

func TestMprotect(t *testing.T) {
	as := newSpace()
	defer as.Teardown()
	base := mustMmap(t, as, 4*addr.PageSize, rw, vm.MapPrivate|vm.MapPopulate)
	if err := as.StoreByte(base, 9); err != nil {
		t.Fatal(err)
	}
	if err := as.Mprotect(base, 4*addr.PageSize, vm.ProtRead); err != nil {
		t.Fatal(err)
	}
	if err := as.StoreByte(base, 1); err == nil {
		t.Error("write after mprotect(R) succeeded")
	}
	if b, err := as.LoadByte(base); err != nil || b != 9 {
		t.Errorf("read after mprotect = %d, %v", b, err)
	}
	if err := as.Mprotect(base, 4*addr.PageSize, rw); err != nil {
		t.Fatal(err)
	}
	if err := as.StoreByte(base, 11); err != nil {
		t.Errorf("write after mprotect(RW) failed: %v", err)
	}
	if err := as.Mprotect(0x100000, addr.PageSize, rw); err == nil {
		t.Error("mprotect of unmapped range succeeded")
	}
}

func TestHugeMapping(t *testing.T) {
	as := newSpace()
	defer as.Teardown()
	base := mustMmap(t, as, 2*addr.HugePageSize, rw, vm.MapPrivate|vm.MapHuge|vm.MapPopulate)
	if !base.HugeAligned() {
		t.Fatalf("huge mmap base %v not aligned", base)
	}
	st := as.Tables()
	if st.HugeEntries != 2 {
		t.Errorf("huge entries = %d, want 2", st.HugeEntries)
	}
	if st.Leaves != 0 {
		t.Errorf("leaf tables = %d, want 0", st.Leaves)
	}
	payload := []byte("huge page payload")
	off := addr.V(addr.HugePageSize + 12345)
	if err := as.WriteAt(payload, base+off); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(payload))
	if err := as.ReadAt(got, base+off); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Error("huge roundtrip mismatch")
	}
	if err := as.Munmap(base, 2*addr.HugePageSize); err != nil {
		t.Fatal(err)
	}
}

func TestHugePartialUnmapRejected(t *testing.T) {
	as := newSpace()
	defer as.Teardown()
	base := mustMmap(t, as, addr.HugePageSize, rw, vm.MapPrivate|vm.MapHuge|vm.MapPopulate)
	if err := as.Munmap(base, addr.PageSize); err == nil {
		t.Error("partial huge unmap succeeded")
	}
}

func TestHugeDemandPaging(t *testing.T) {
	as := newSpace()
	defer as.Teardown()
	base := mustMmap(t, as, addr.HugePageSize, rw, vm.MapPrivate|vm.MapHuge)
	if err := as.StoreByte(base+777, 7); err != nil {
		t.Fatal(err)
	}
	if got := as.Tables().HugeEntries; got != 1 {
		t.Errorf("huge entries = %d", got)
	}
}

type sliceBacking struct {
	name string
	data []byte
}

func (s *sliceBacking) BackingName() string { return s.name }
func (s *sliceBacking) PageAt(off uint64) ([]byte, error) {
	if off >= uint64(len(s.data)) {
		return nil, nil
	}
	end := off + addr.PageSize
	if end > uint64(len(s.data)) {
		end = uint64(len(s.data))
	}
	page := make([]byte, addr.PageSize)
	copy(page, s.data[off:end])
	return page, nil
}

func TestFileBackedMapping(t *testing.T) {
	as := newSpace()
	defer as.Teardown()
	content := make([]byte, 3*addr.PageSize)
	for i := range content {
		content[i] = byte(i % 251)
	}
	b := &sliceBacking{name: "test.bin", data: content}
	v, err := as.Mmap(0, uint64(len(content)), rw, vm.MapPrivate, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(content))
	if err := as.ReadAt(got, v); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Error("file-backed read mismatch")
	}
	// Private writes must not touch the backing.
	if err := as.StoreByte(v, 0xEE); err != nil {
		t.Fatal(err)
	}
	if content[0] == 0xEE {
		t.Error("private write leaked to backing")
	}
	// Mapping at a non-zero file offset.
	v2, err := as.Mmap(0, addr.PageSize, vm.ProtRead, vm.MapPrivate, b, addr.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	pg := make([]byte, addr.PageSize)
	if err := as.ReadAt(pg, v2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pg, content[addr.PageSize:2*addr.PageSize]) {
		t.Error("offset file-backed read mismatch")
	}
}

// failingBacking serves zeroes except at offset bad, where it fails.
type failingBacking struct {
	bad uint64
	err error
}

func (b *failingBacking) BackingName() string { return "failing" }
func (b *failingBacking) PageAt(off uint64) ([]byte, error) {
	if off == b.bad {
		return nil, b.err
	}
	return nil, nil
}

// TestBackingErrorReleasesFrame: a backing read that fails releases
// the frame allocated for the page and fails the access with the
// backing's error.
func TestBackingErrorReleasesFrame(t *testing.T) {
	as := newSpace()
	defer as.Teardown()
	b := &failingBacking{bad: addr.PageSize, err: errors.New("device gone")}
	v, err := as.Mmap(0, 2*addr.PageSize, vm.ProtRead, vm.MapPrivate, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Fault the good page first, so the leaf table exists and only the
	// failing page's frame is in play.
	if _, err := as.LoadByte(v); err != nil {
		t.Fatal(err)
	}
	baseline := as.Allocator().Allocated()
	if _, err := as.LoadByte(v + addr.PageSize); !errors.Is(err, b.err) {
		t.Fatalf("access err = %v, want the backing's error", err)
	}
	if got := as.Allocator().Allocated(); got != baseline {
		t.Fatalf("allocated frames %d after the failed page-in, want %d", got, baseline)
	}
}

func TestMmapAfterTeardownFails(t *testing.T) {
	as := newSpace()
	as.Teardown()
	if !as.Dead() {
		t.Error("Dead() false after teardown")
	}
	if _, err := as.Mmap(0, addr.PageSize, rw, vm.MapPrivate, nil, 0); err == nil {
		t.Error("mmap after teardown succeeded")
	}
	as.Teardown() // second teardown must be a no-op
}

func TestAccessedDirtyBits(t *testing.T) {
	as := newSpace()
	defer as.Teardown()
	base := mustMmap(t, as, addr.PageSize, rw, vm.MapPrivate|vm.MapPopulate)
	leaf, li := as.Walker().FindPTE(base)
	if e := leaf.Entry(li); e.Accessed() || e.Dirty() {
		t.Fatal("fresh entry has A/D bits set")
	}
	if _, err := as.LoadByte(base); err != nil {
		t.Fatal(err)
	}
	if e := leaf.Entry(li); !e.Accessed() || e.Dirty() {
		t.Errorf("after read: accessed=%v dirty=%v", e.Accessed(), e.Dirty())
	}
	if err := as.StoreByte(base, 1); err != nil {
		t.Fatal(err)
	}
	if e := leaf.Entry(li); !e.Dirty() {
		t.Error("write did not set dirty bit")
	}
}

// TestProfilerCountsFork pins the Figure 3 event counts of one fork of
// four populated leaf tables, and of the write fault that splits a
// shared table afterwards.
func TestProfilerCountsFork(t *testing.T) {
	as, m := newMeteredSpace()
	defer as.Teardown()
	base := mustMmap(t, as, 4*addr.PTECoverage, rw, vm.MapPrivate|vm.MapPopulate)

	before := m.Snapshot()
	child := mustForkOpts(as, ForkClassic, ForkOptions{})
	got := attributionCounts(m.Snapshot().Sub(before))
	const ptes = 4 * addr.EntriesPerTable
	// One PGD and one PUD entry lead to the PMD table, whose four
	// present entries are walked too.
	for name, want := range map[string]uint64{
		"copy_one_pte": ptes, "page_ref_inc": ptes, "compound_head": ptes,
		"upper_level_walk": 2 + 4, "tlb_flush": 1, "pt_share_inc": 0,
	} {
		if got[name] != want {
			t.Errorf("classic fork %s = %d, want %d", name, got[name], want)
		}
	}
	child.Teardown()

	before = m.Snapshot()
	child2 := mustForkOpts(as, ForkOnDemand, ForkOptions{})
	got = attributionCounts(m.Snapshot().Sub(before))
	for name, want := range map[string]uint64{
		"copy_one_pte": 0, "page_ref_inc": 0, "pt_share_inc": 4,
		"upper_level_walk": 2 + 4, "tlb_flush": 1,
	} {
		if got[name] != want {
			t.Errorf("on-demand fork %s = %d, want %d", name, got[name], want)
		}
	}

	// The first write to a shared table copies it: one table copy, one
	// lineage-wide TLB flush, a reference per mapped page (batched),
	// and the page's own COW copy.
	before = m.Snapshot()
	if err := as.StoreByte(base, 1); err != nil {
		t.Fatal(err)
	}
	got = attributionCounts(m.Snapshot().Sub(before))
	for name, want := range map[string]uint64{
		"pt_table_copy": 1, "tlb_flush": 1, "page_ref_inc": addr.EntriesPerTable,
		"page_copy": 1, "page_fault": 1,
	} {
		if got[name] != want {
			t.Errorf("split fault %s = %d, want %d", name, got[name], want)
		}
	}
	child2.Teardown()
}
