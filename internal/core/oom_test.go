package core

import (
	"errors"
	"testing"

	"repro/internal/mem/addr"
	"repro/internal/mem/vm"
)

func TestOOMOnPopulate(t *testing.T) {
	as := newSpace()
	defer as.Teardown()
	as.Allocator().SetLimit(16)
	_, err := as.Mmap(0, 64*addr.PageSize, rw, vm.MapPrivate|vm.MapPopulate, nil, 0)
	if !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("populate err = %v, want OOM", err)
	}
}

func TestOOMOnDemandFault(t *testing.T) {
	as := newSpace()
	defer as.Teardown()
	base := mustMmap(t, as, 64*addr.PageSize, rw, vm.MapPrivate) // no populate
	as.Allocator().SetLimit(as.Allocator().Allocated() + 4)
	var sawOOM bool
	for i := 0; i < 64; i++ {
		err := as.StoreByte(base+addr.V(i*addr.PageSize), 1)
		if err != nil {
			if !errors.Is(err, ErrOutOfMemory) {
				t.Fatalf("fault err = %v, want OOM", err)
			}
			sawOOM = true
			break
		}
	}
	if !sawOOM {
		t.Fatal("no OOM under frame limit")
	}
	// Raising the limit repairs the situation: the same access succeeds.
	as.Allocator().SetLimit(0)
	if err := as.StoreByte(base+addr.V(63*addr.PageSize), 1); err != nil {
		t.Errorf("post-reclaim write failed: %v", err)
	}
}

func TestOOMOnCOWSplit(t *testing.T) {
	as := newSpace()
	base := mustMmap(t, as, addr.PTECoverage, rw, vm.MapPrivate|vm.MapPopulate)
	fillPattern(t, as, base, addr.PTECoverage, 0x5A)
	child := mustForkOpts(as, ForkOnDemand, ForkOptions{})
	// The split needs a table frame plus a COW data frame.
	as.Allocator().SetLimit(as.Allocator().Allocated())
	err := child.StoreByte(base, 1)
	if !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("COW err = %v, want OOM", err)
	}
	// Memory is still consistent: reads work, parent value intact.
	if b, rerr := child.LoadByte(base); rerr != nil || b != 0x5A {
		t.Errorf("read after OOM = %#x, %v", b, rerr)
	}
	as.Allocator().SetLimit(0)
	if err := child.StoreByte(base, 1); err != nil {
		t.Errorf("write after limit lifted: %v", err)
	}
	if err := CheckInvariants(as, child); err != nil {
		t.Error(err)
	}
	child.Teardown()
	as.Teardown()
}
