package core

// Cross-feature tests: file-backed mappings, mprotect, and mremap
// interacting with the fork engines' shared page tables.

import (
	"bytes"
	"testing"

	"repro/internal/mem/addr"
	"repro/internal/mem/vm"
)

func TestFileBackedAcrossFork(t *testing.T) {
	for _, mode := range forkModes() {
		t.Run(mode.String(), func(t *testing.T) {
			as := newSpace()
			defer as.Teardown()
			content := make([]byte, 4*addr.PageSize)
			for i := range content {
				content[i] = byte(i % 97)
			}
			b := &sliceBacking{name: "bin", data: content}
			// Only the first half is pre-faulted; the rest demand-faults
			// after the fork.
			v, err := as.Mmap(0, uint64(len(content)), rw, vm.MapPrivate, b, 0)
			if err != nil {
				t.Fatal(err)
			}
			half := make([]byte, 2*addr.PageSize)
			if err := as.ReadAt(half, v); err != nil {
				t.Fatal(err)
			}

			child := mustForkOpts(as, mode, ForkOptions{})
			defer child.Teardown()

			// Child demand-faults the unfaulted upper half from the file.
			got := make([]byte, len(content))
			if err := child.ReadAt(got, v); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, content) {
				t.Error("child file-backed read mismatch")
			}
			// Child's private write does not reach parent or file.
			if err := child.StoreByte(v, 0xEA); err != nil {
				t.Fatal(err)
			}
			if pb, _ := as.LoadByte(v); pb != content[0] {
				t.Error("child write leaked to parent")
			}
			if content[0] == 0xEA {
				t.Error("child write leaked to backing")
			}
			if err := CheckInvariants(as, child); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestDemandFaultIntoSharedRegionSplits(t *testing.T) {
	// An unfaulted page inside a shared 2 MiB region: the child's first
	// *read* must not install the page into the shared table.
	as := newSpace()
	defer as.Teardown()
	base := mustMmap(t, as, addr.PTECoverage, rw, vm.MapPrivate)
	// Fault only one page pre-fork so a leaf table exists and is shared.
	if err := as.StoreByte(base, 0x21); err != nil {
		t.Fatal(err)
	}
	child := mustForkOpts(as, ForkOnDemand, ForkOptions{})
	defer child.Teardown()

	// Child reads a never-faulted page in the same region.
	if _, err := child.LoadByte(base + addr.V(100*addr.PageSize)); err != nil {
		t.Fatal(err)
	}
	// Parent must not see the child's demand-zero page.
	pl, li := as.Walker().FindPTE(base + addr.V(100*addr.PageSize))
	if pl != nil && pl.Entry(li).Present() {
		t.Error("child demand paging leaked into parent's shared table")
	}
	if err := CheckInvariants(as, child); err != nil {
		t.Fatal(err)
	}
}

func TestMprotectOnSharedTable(t *testing.T) {
	// mprotect by one sharer must split the table, leaving the other
	// sharer's permissions intact.
	as := newSpace()
	defer as.Teardown()
	base := mustMmap(t, as, addr.PTECoverage, rw, vm.MapPrivate|vm.MapPopulate)
	fillPattern(t, as, base, addr.PTECoverage, 0x66)
	child := mustForkOpts(as, ForkOnDemand, ForkOptions{})
	defer child.Teardown()

	if err := child.Mprotect(base, addr.PTECoverage, vm.ProtRead); err != nil {
		t.Fatal(err)
	}
	if err := child.StoreByte(base, 1); err == nil {
		t.Error("child write after its mprotect succeeded")
	}
	// The parent still has write permission.
	if err := as.StoreByte(base, 0x67); err != nil {
		t.Errorf("parent write failed after child mprotect: %v", err)
	}
	if b, _ := child.LoadByte(base); b != 0x66 {
		t.Errorf("child sees parent write or lost data: %#x", b)
	}
	if err := CheckInvariants(as, child); err != nil {
		t.Fatal(err)
	}
}

func TestMremapFileBackedKeepsOffsets(t *testing.T) {
	as := newSpace()
	defer as.Teardown()
	content := make([]byte, 4*addr.PageSize)
	for i := range content {
		content[i] = byte(i >> 8)
	}
	b := &sliceBacking{name: "f", data: content}
	v, err := as.Mmap(0, uint64(len(content)), rw, vm.MapPrivate, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	nv, err := as.Mremap(v+addr.V(addr.PageSize), 2*addr.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	// Demand faults at the new location must read the right file pages.
	got := make([]byte, 2*addr.PageSize)
	if err := as.ReadAt(got, nv); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content[addr.PageSize:3*addr.PageSize]) {
		t.Error("mremap lost file offset correspondence")
	}
}

func TestForkEmptyAddressSpace(t *testing.T) {
	for _, mode := range forkModes() {
		as := newSpace()
		child := mustForkOpts(as, mode, ForkOptions{})
		if child.MappedBytes() != 0 {
			t.Errorf("%v: empty fork has mappings", mode)
		}
		child.Teardown()
		as.Teardown()
		if n := as.Allocator().Allocated(); n != 0 {
			t.Errorf("%v: leak %d", mode, n)
		}
	}
}

func TestForkManySmallVMAs(t *testing.T) {
	// Many small VMAs sharing few leaf tables: the VMA count must not
	// change fork cost semantics.
	as := newSpace()
	defer as.Teardown()
	var bases []addr.V
	for i := 0; i < 32; i++ {
		b := mustMmap(t, as, 2*addr.PageSize, rw, vm.MapPrivate|vm.MapPopulate)
		if err := as.StoreByte(b, byte(i)); err != nil {
			t.Fatal(err)
		}
		bases = append(bases, b)
	}
	child := mustForkOpts(as, ForkOnDemand, ForkOptions{})
	defer child.Teardown()
	if child.VMACount() != as.VMACount() {
		t.Errorf("VMA counts differ: %d vs %d", child.VMACount(), as.VMACount())
	}
	for i, b := range bases {
		if got, _ := child.LoadByte(b); got != byte(i) {
			t.Errorf("vma %d byte = %d", i, got)
		}
	}
	// One child write in the shared region splits exactly once even
	// though many VMAs map through that table.
	if err := child.StoreByte(bases[0], 0xFF); err != nil {
		t.Fatal(err)
	}
	if got := child.TableSplits.Load(); got != 1 {
		t.Errorf("splits = %d, want 1", got)
	}
	if err := CheckInvariants(as, child); err != nil {
		t.Fatal(err)
	}
}
