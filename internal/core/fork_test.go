package core

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/mem/addr"
	"repro/internal/mem/vm"
)

// fillPattern writes a recognizable pattern across the region.
func fillPattern(t *testing.T, as *AddressSpace, base addr.V, size uint64, seed byte) {
	t.Helper()
	buf := make([]byte, addr.PageSize)
	for off := uint64(0); off < size; off += addr.PageSize {
		for i := range buf {
			buf[i] = seed ^ byte(off>>12) ^ byte(i)
		}
		if err := as.WriteAt(buf, base+addr.V(off)); err != nil {
			t.Fatalf("fill at %#x: %v", off, err)
		}
	}
}

func forkModes() []ForkMode { return []ForkMode{ForkClassic, ForkOnDemand} }

func TestForkChildSeesParentMemory(t *testing.T) {
	for _, mode := range forkModes() {
		t.Run(mode.String(), func(t *testing.T) {
			as := newSpace()
			size := uint64(3 * addr.PTECoverage)
			base := mustMmap(t, as, size, rw, vm.MapPrivate|vm.MapPopulate)
			fillPattern(t, as, base, size, 0xA5)

			child := mustForkOpts(as, mode, ForkOptions{})
			if err := EqualMemory(as, child, addr.NewRange(base, size)); err != nil {
				t.Fatal(err)
			}
			if err := CheckInvariants(as, child); err != nil {
				t.Fatal(err)
			}
			child.Teardown()
			as.Teardown()
			if n := as.Allocator().Allocated(); n != 0 {
				t.Errorf("leak: %d frames", n)
			}
		})
	}
}

func TestForkWriteIsolation(t *testing.T) {
	for _, mode := range forkModes() {
		t.Run(mode.String(), func(t *testing.T) {
			as := newSpace()
			defer as.Teardown()
			size := uint64(2 * addr.PTECoverage)
			base := mustMmap(t, as, size, rw, vm.MapPrivate|vm.MapPopulate)
			fillPattern(t, as, base, size, 0x3C)

			child := mustForkOpts(as, mode, ForkOptions{})
			defer child.Teardown()

			spot := base + addr.V(addr.PTECoverage+addr.PageSize*17+33)
			orig, err := as.LoadByte(spot)
			if err != nil {
				t.Fatal(err)
			}

			// Child write invisible to parent.
			if err := child.StoreByte(spot, orig+1); err != nil {
				t.Fatal(err)
			}
			if b, _ := as.LoadByte(spot); b != orig {
				t.Errorf("child write leaked to parent: %d", b)
			}
			if b, _ := child.LoadByte(spot); b != orig+1 {
				t.Errorf("child lost its write: %d", b)
			}

			// Parent write invisible to child.
			if err := as.StoreByte(spot+1, orig+2); err != nil {
				t.Fatal(err)
			}
			if b, _ := child.LoadByte(spot + 1); b == orig+2 {
				t.Error("parent write leaked to child")
			}
			if err := CheckInvariants(as, child); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestOnDemandForkSharesTables(t *testing.T) {
	as := newSpace()
	defer as.Teardown()
	size := uint64(4 * addr.PTECoverage)
	base := mustMmap(t, as, size, rw, vm.MapPrivate|vm.MapPopulate)
	fillPattern(t, as, base, size, 1)

	child := mustForkOpts(as, ForkOnDemand, ForkOptions{})
	defer child.Teardown()

	pst, cst := as.Tables(), child.Tables()
	if pst.SharedLeaves != 4 || cst.SharedLeaves != 4 {
		t.Errorf("shared leaves: parent %d, child %d; want 4", pst.SharedLeaves, cst.SharedLeaves)
	}
	// The very same leaf tables must be referenced by both spaces.
	pl, _ := as.Walker().FindPTE(base)
	cl, _ := child.Walker().FindPTE(base)
	if pl != cl {
		t.Error("parent and child leaf tables differ after ODF")
	}
	if got := pl.ShareCount(as.Allocator()); got != 2 {
		t.Errorf("leaf share count = %d, want 2", got)
	}
}

func TestOnDemandForkReadsDoNotSplit(t *testing.T) {
	as := newSpace()
	defer as.Teardown()
	size := uint64(2 * addr.PTECoverage)
	base := mustMmap(t, as, size, rw, vm.MapPrivate|vm.MapPopulate)
	fillPattern(t, as, base, size, 7)

	child := mustForkOpts(as, ForkOnDemand, ForkOptions{})
	defer child.Teardown()

	// Reads anywhere must not fault or split (§3.4 Fast Read).
	buf := make([]byte, addr.PageSize)
	for off := uint64(0); off < size; off += addr.PageSize {
		if err := child.ReadAt(buf, base+addr.V(off)); err != nil {
			t.Fatal(err)
		}
	}
	if got := child.Faults.Load(); got != 0 {
		t.Errorf("reads caused %d faults", got)
	}
	if got := child.TableSplits.Load(); got != 0 {
		t.Errorf("reads caused %d splits", got)
	}
}

func TestOnDemandForkSplitOncePer2MiB(t *testing.T) {
	as := newSpace()
	defer as.Teardown()
	size := uint64(2 * addr.PTECoverage)
	base := mustMmap(t, as, size, rw, vm.MapPrivate|vm.MapPopulate)
	fillPattern(t, as, base, size, 9)

	child := mustForkOpts(as, ForkOnDemand, ForkOptions{})
	defer child.Teardown()

	// First write in region 0: exactly one split.
	if err := child.StoreByte(base+100, 1); err != nil {
		t.Fatal(err)
	}
	if got := child.TableSplits.Load(); got != 1 {
		t.Fatalf("first write: %d splits, want 1", got)
	}
	// More writes in the same 2 MiB region: no further splits.
	for i := 0; i < 20; i++ {
		if err := child.StoreByte(base+addr.V(i*addr.PageSize), 2); err != nil {
			t.Fatal(err)
		}
	}
	if got := child.TableSplits.Load(); got != 1 {
		t.Errorf("same-region writes: %d splits, want 1", got)
	}
	// A write in the second region: exactly one more.
	if err := child.StoreByte(base+addr.V(addr.PTECoverage), 3); err != nil {
		t.Fatal(err)
	}
	if got := child.TableSplits.Load(); got != 2 {
		t.Errorf("second region write: %d splits, want 2", got)
	}
	if err := CheckInvariants(as, child); err != nil {
		t.Fatal(err)
	}
}

func TestOnDemandForkParentWriteSplits(t *testing.T) {
	// COW must protect the child from *parent* writes too.
	as := newSpace()
	defer as.Teardown()
	base := mustMmap(t, as, addr.PTECoverage, rw, vm.MapPrivate|vm.MapPopulate)
	fillPattern(t, as, base, addr.PTECoverage, 0x42)
	child := mustForkOpts(as, ForkOnDemand, ForkOptions{})
	defer child.Teardown()

	before, _ := child.LoadByte(base)
	if err := as.StoreByte(base, before+1); err != nil {
		t.Fatal(err)
	}
	if got := as.TableSplits.Load(); got != 1 {
		t.Errorf("parent write splits = %d, want 1", got)
	}
	if b, _ := child.LoadByte(base); b != before {
		t.Errorf("parent write visible in child: %d", b)
	}
	if err := CheckInvariants(as, child); err != nil {
		t.Fatal(err)
	}
}

func TestFastDedupAfterChildExit(t *testing.T) {
	as := newSpace()
	defer as.Teardown()
	base := mustMmap(t, as, addr.PTECoverage, rw, vm.MapPrivate|vm.MapPopulate)
	fillPattern(t, as, base, addr.PTECoverage, 0x11)

	child := mustForkOpts(as, ForkOnDemand, ForkOptions{})
	child.Teardown()

	// Parent is now the sole owner; its write should re-dedicate the
	// table via the fast path, not copy it.
	if err := as.StoreByte(base, 1); err != nil {
		t.Fatal(err)
	}
	if got := as.TableSplits.Load(); got != 0 {
		t.Errorf("splits = %d, want 0 (fast path)", got)
	}
	if got := as.FastDedups.Load(); got != 1 {
		t.Errorf("fast dedups = %d, want 1", got)
	}
	if err := CheckInvariants(as); err != nil {
		t.Fatal(err)
	}
}

func TestManyChildrenShareOneTable(t *testing.T) {
	// §3.4: unlimited processes may share a table through repeated ODF.
	as := newSpace()
	defer as.Teardown()
	base := mustMmap(t, as, addr.PTECoverage, rw, vm.MapPrivate|vm.MapPopulate)
	fillPattern(t, as, base, addr.PTECoverage, 0x77)

	var children []*AddressSpace
	for i := 0; i < 5; i++ {
		children = append(children, mustForkOpts(as, ForkOnDemand, ForkOptions{}))
	}
	leaf, _ := as.Walker().FindPTE(base)
	if got := leaf.ShareCount(as.Allocator()); got != 6 {
		t.Errorf("share count = %d, want 6", got)
	}
	all := append([]*AddressSpace{as}, children...)
	if err := CheckInvariants(all...); err != nil {
		t.Fatal(err)
	}
	// One child writes; the other sharers keep the old table.
	if err := children[2].StoreByte(base, 0xFF); err != nil {
		t.Fatal(err)
	}
	if got := leaf.ShareCount(as.Allocator()); got != 5 {
		t.Errorf("share count after split = %d, want 5", got)
	}
	for i, c := range children {
		want := byte(0x77)
		if i == 2 {
			want = 0xFF
		}
		if b, _ := c.LoadByte(base); b != want {
			t.Errorf("child %d sees %#x, want %#x", i, b, want)
		}
	}
	if err := CheckInvariants(all...); err != nil {
		t.Fatal(err)
	}
	for _, c := range children {
		c.Teardown()
	}
	if err := CheckInvariants(as); err != nil {
		t.Fatal(err)
	}
}

func TestGrandchildLineage(t *testing.T) {
	// Shared tables survive beyond the creating process (§3.1): fork a
	// child, fork a grandchild from it, tear down the middle process.
	as := newSpace()
	base := mustMmap(t, as, addr.PTECoverage, rw, vm.MapPrivate|vm.MapPopulate)
	fillPattern(t, as, base, addr.PTECoverage, 0x55)

	child := mustForkOpts(as, ForkOnDemand, ForkOptions{})
	grand := mustForkOpts(child, ForkOnDemand, ForkOptions{})
	leaf, _ := as.Walker().FindPTE(base)
	if got := leaf.ShareCount(as.Allocator()); got != 3 {
		t.Fatalf("share count = %d, want 3", got)
	}
	child.Teardown()
	if got := leaf.ShareCount(as.Allocator()); got != 2 {
		t.Fatalf("share count after middle exit = %d, want 2", got)
	}
	if b, _ := grand.LoadByte(base + 5); b != 0x55^5 {
		// fillPattern XORs seed with page offset and byte index.
		t.Logf("note: grandchild byte = %#x", b)
	}
	if err := EqualMemory(as, grand, addr.NewRange(base, addr.PTECoverage)); err != nil {
		t.Fatal(err)
	}
	if err := CheckInvariants(as, grand); err != nil {
		t.Fatal(err)
	}
	grand.Teardown()
	as.Teardown()
	if n := as.Allocator().Allocated(); n != 0 {
		t.Errorf("leak: %d frames", n)
	}
}

func TestForkHugePages(t *testing.T) {
	as := newSpace()
	defer as.Teardown()
	size := uint64(2 * addr.HugePageSize)
	base := mustMmap(t, as, size, rw, vm.MapPrivate|vm.MapHuge|vm.MapPopulate)
	payload := []byte("inside a huge page")
	if err := as.WriteAt(payload, base+12345); err != nil {
		t.Fatal(err)
	}

	child := mustForkOpts(as, ForkClassic, ForkOptions{})
	defer child.Teardown()
	got := make([]byte, len(payload))
	if err := child.ReadAt(got, base+12345); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Error("child huge read mismatch")
	}
	// Child write triggers a 2 MiB copy.
	if err := child.StoreByte(base+12345, 'X'); err != nil {
		t.Fatal(err)
	}
	if got := child.HugeCopies.Load(); got != 1 {
		t.Errorf("huge copies = %d, want 1", got)
	}
	if b, _ := as.LoadByte(base + 12345); b != 'i' {
		t.Errorf("parent huge byte = %c", b)
	}
	// Parent re-write of its now-sole huge page: reuse, no copy.
	if err := as.StoreByte(base+12345, 'Y'); err != nil {
		t.Fatal(err)
	}
	if got := as.HugeCopies.Load(); got != 0 {
		t.Errorf("parent huge copies = %d, want 0 (reuse)", got)
	}
	if err := CheckInvariants(as, child); err != nil {
		t.Fatal(err)
	}
}

func TestOnDemandForkWithHugeFallsBack(t *testing.T) {
	as := newSpace()
	defer as.Teardown()
	base := mustMmap(t, as, addr.HugePageSize, rw, vm.MapPrivate|vm.MapHuge|vm.MapPopulate)
	if err := as.StoreByte(base, 5); err != nil {
		t.Fatal(err)
	}
	child := mustForkOpts(as, ForkOnDemand, ForkOptions{})
	defer child.Teardown()
	if b, _ := child.LoadByte(base); b != 5 {
		t.Errorf("child huge byte = %d", b)
	}
	if err := child.StoreByte(base, 6); err != nil {
		t.Fatal(err)
	}
	if b, _ := as.LoadByte(base); b != 5 {
		t.Error("huge COW broken under ODF")
	}
	if err := CheckInvariants(as, child); err != nil {
		t.Fatal(err)
	}
}

func TestMixedModeForks(t *testing.T) {
	// ODF child then classic grandchild, exercising classic copy from a
	// shared table.
	as := newSpace()
	base := mustMmap(t, as, addr.PTECoverage, rw, vm.MapPrivate|vm.MapPopulate)
	fillPattern(t, as, base, addr.PTECoverage, 0x99)

	child := mustForkOpts(as, ForkOnDemand, ForkOptions{})
	grand := mustForkOpts(child, ForkClassic, ForkOptions{})

	if err := EqualMemory(as, grand, addr.NewRange(base, addr.PTECoverage)); err != nil {
		t.Fatal(err)
	}
	if err := grand.StoreByte(base, 1); err != nil {
		t.Fatal(err)
	}
	if b, _ := as.LoadByte(base); b == 1 {
		t.Error("grandchild write leaked")
	}
	if err := CheckInvariants(as, child, grand); err != nil {
		t.Fatal(err)
	}
	grand.Teardown()
	child.Teardown()
	as.Teardown()
	if n := as.Allocator().Allocated(); n != 0 {
		t.Errorf("leak: %d frames", n)
	}
}

func TestMunmapSharedTableFull(t *testing.T) {
	// Unmapping a whole shared region drops the table reference without
	// copying (§3.3).
	as := newSpace()
	defer as.Teardown()
	base := mustMmap(t, as, addr.PTECoverage, rw, vm.MapPrivate|vm.MapPopulate)
	fillPattern(t, as, base, addr.PTECoverage, 0x21)
	child := mustForkOpts(as, ForkOnDemand, ForkOptions{})

	leaf, _ := as.Walker().FindPTE(base)
	if err := child.Munmap(base, addr.PTECoverage); err != nil {
		t.Fatal(err)
	}
	if got := child.TableSplits.Load(); got != 0 {
		t.Errorf("full unmap caused %d splits, want 0", got)
	}
	if got := leaf.ShareCount(as.Allocator()); got != 1 {
		t.Errorf("share count after child unmap = %d, want 1", got)
	}
	// Parent data intact.
	if b, err := as.LoadByte(base); err != nil || b != 0x21 {
		t.Errorf("parent byte = %d, %v", b, err)
	}
	if err := CheckInvariants(as, child); err != nil {
		t.Fatal(err)
	}
	child.Teardown()
}

func TestMunmapSharedTablePartial(t *testing.T) {
	// Unmapping part of a 2 MiB region whose shared table still backs
	// other addresses of this process must copy the table first (§3.3).
	as := newSpace()
	defer as.Teardown()
	base := mustMmap(t, as, addr.PTECoverage, rw, vm.MapPrivate|vm.MapPopulate)
	fillPattern(t, as, base, addr.PTECoverage, 0x31)
	child := mustForkOpts(as, ForkOnDemand, ForkOptions{})
	defer child.Teardown()

	half := addr.V(addr.PTECoverage / 2)
	if err := child.Munmap(base, uint64(half)); err != nil {
		t.Fatal(err)
	}
	if got := child.TableSplits.Load(); got != 1 {
		t.Errorf("partial unmap splits = %d, want 1", got)
	}
	// Child keeps the upper half…
	if b, err := child.LoadByte(base + half); err != nil || b != 0x31^byte(half>>12) {
		t.Errorf("child upper half byte = %#x, %v", b, err)
	}
	// …and lost the lower half.
	if _, err := child.LoadByte(base); err == nil {
		t.Error("child lower half still mapped")
	}
	// Parent fully intact.
	if b, err := as.LoadByte(base); err != nil || b != 0x31 {
		t.Errorf("parent byte = %#x, %v", b, err)
	}
	if err := CheckInvariants(as, child); err != nil {
		t.Fatal(err)
	}
}

func TestMremapSharedTable(t *testing.T) {
	// §3.3: mremap over shared tables performs table COW; the other
	// sharer's view is untouched.
	as := newSpace()
	defer as.Teardown()
	base := mustMmap(t, as, addr.PTECoverage, rw, vm.MapPrivate|vm.MapPopulate)
	fillPattern(t, as, base, addr.PTECoverage, 0x61)
	child := mustForkOpts(as, ForkOnDemand, ForkOptions{})
	defer child.Teardown()

	nb, err := child.Mremap(base, addr.PTECoverage)
	if err != nil {
		t.Fatal(err)
	}
	if b, err := child.LoadByte(nb); err != nil || b != 0x61 {
		t.Errorf("moved byte = %#x, %v", b, err)
	}
	if b, err := as.LoadByte(base); err != nil || b != 0x61 {
		t.Errorf("parent byte after child mremap = %#x, %v", b, err)
	}
	if err := CheckInvariants(as, child); err != nil {
		t.Fatal(err)
	}
}

func TestDirtyBitNeverSetWhileShared(t *testing.T) {
	// §3.2: the dirty bit cannot be set while tables are shared, because
	// writes are never permitted through a shared table.
	as := newSpace()
	defer as.Teardown()
	base := mustMmap(t, as, addr.PTECoverage, rw, vm.MapPrivate|vm.MapPopulate)
	child := mustForkOpts(as, ForkOnDemand, ForkOptions{})
	defer child.Teardown()

	leaf, _ := as.Walker().FindPTE(base)
	buf := make([]byte, addr.PTECoverage)
	if err := child.ReadAt(buf, base); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < addr.EntriesPerTable; i++ {
		if e := leaf.Entry(i); e.Present() && e.Dirty() {
			t.Fatalf("dirty bit set on shared table entry %d", i)
		}
	}
}

func TestAccessedBitSurvivesSplit(t *testing.T) {
	as := newSpace()
	defer as.Teardown()
	base := mustMmap(t, as, addr.PTECoverage, rw, vm.MapPrivate|vm.MapPopulate)
	// Touch one page so its accessed bit is set pre-fork.
	if _, err := as.LoadByte(base + addr.V(9*addr.PageSize)); err != nil {
		t.Fatal(err)
	}
	child := mustForkOpts(as, ForkOnDemand, ForkOptions{})
	defer child.Teardown()
	// Child write elsewhere in the region forces the split.
	if err := child.StoreByte(base, 1); err != nil {
		t.Fatal(err)
	}
	leaf, li := child.Walker().FindPTE(base + addr.V(9*addr.PageSize))
	if !leaf.Entry(li).Accessed() {
		t.Error("accessed bit lost across table split")
	}
}

func TestForkModeString(t *testing.T) {
	if ForkClassic.String() != "fork" || ForkOnDemand.String() != "on-demand-fork" {
		t.Error("mode names wrong")
	}
	if ForkMode(99).String() != "unknown" {
		t.Error("unknown mode name wrong")
	}
}

func TestForkAblationOptions(t *testing.T) {
	for _, opts := range []ForkOptions{
		{EagerPageRefs: true},
		{PerPTEProtect: true},
		{EagerPageRefs: true, PerPTEProtect: true},
	} {
		name := fmt.Sprintf("eager=%v perpte=%v", opts.EagerPageRefs, opts.PerPTEProtect)
		t.Run(name, func(t *testing.T) {
			as := newSpace()
			base := mustMmap(t, as, addr.PTECoverage, rw, vm.MapPrivate|vm.MapPopulate)
			fillPattern(t, as, base, addr.PTECoverage, 0x13)
			child := mustForkOpts(as, ForkOnDemand, opts)
			if err := EqualMemory(as, child, addr.NewRange(base, addr.PTECoverage)); err != nil {
				t.Fatal(err)
			}
			if err := child.StoreByte(base, 0xAB); err != nil {
				t.Fatal(err)
			}
			if b, _ := as.LoadByte(base); b != 0x13 {
				t.Errorf("ablation fork broke COW: parent byte %#x", b)
			}
			if err := CheckInvariants(as, child); err != nil {
				t.Fatal(err)
			}
			child.Teardown()
			as.Teardown()
			if n := as.Allocator().Allocated(); n != 0 {
				t.Errorf("leak: %d", n)
			}
		})
	}
}

func TestUnknownForkModePanics(t *testing.T) {
	as := newSpace()
	defer as.Teardown()
	defer func() {
		if recover() == nil {
			t.Error("unknown mode did not panic")
		}
	}()
	mustForkOpts(as, ForkMode(42), ForkOptions{})
}
