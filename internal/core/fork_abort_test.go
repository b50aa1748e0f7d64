package core

import (
	"errors"
	"testing"

	"repro/internal/failpoint"
	"repro/internal/mem/addr"
	"repro/internal/mem/vm"
)

// The fork-abort suite pins the transactional guarantee of
// ForkWithOptions: a fork that fails mid-copy — from a real frame
// limit or an injected failpoint — must leave the parent passing
// CheckInvariants with its pre-fork frame budget intact, and a retry
// once the pressure lifts must produce a byte-identical child.

// preparedParent maps four PTE ranges (so the copy walk crosses
// several PMD slots) and fills them with a pattern.
func preparedParent(t *testing.T) (*AddressSpace, addr.V, uint64) {
	t.Helper()
	as := newSpace()
	size := uint64(4 * addr.PTECoverage)
	base := mustMmap(t, as, size, rw, vm.MapPrivate|vm.MapPopulate)
	fillPattern(t, as, base, size, 0xC3)
	return as, base, size
}

func checkAbortedFork(t *testing.T, as *AddressSpace, child *AddressSpace, err error, preFrames int64) {
	t.Helper()
	if !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("fork err = %v, want ErrOutOfMemory", err)
	}
	if child != nil {
		t.Fatal("aborted fork returned a non-nil child")
	}
	if got := as.Allocator().Allocated(); got != preFrames {
		t.Errorf("allocated frames after abort = %d, want pre-fork %d", got, preFrames)
	}
	if err := CheckInvariants(as); err != nil {
		t.Errorf("parent invariants after abort: %v", err)
	}
}

// retryAndVerify lifts whatever blocked the fork and checks a clean
// retry yields a byte-identical child.
func retryAndVerify(t *testing.T, as *AddressSpace, mode ForkMode, opts ForkOptions, base addr.V, size uint64) {
	t.Helper()
	child, err := ForkWithOptions(as, mode, opts)
	if err != nil {
		t.Fatalf("retry fork: %v", err)
	}
	defer child.Teardown()
	if err := EqualMemory(as, child, addr.NewRange(base, size)); err != nil {
		t.Errorf("retried child diverges: %v", err)
	}
	if err := CheckInvariants(as, child); err != nil {
		t.Error(err)
	}
}

// TestForkAbortClassicFrameLimit is the regression for the original
// leak: a classic fork that trips the frame limit partway through the
// table copy used to strand refcounts and partial tables.
func TestForkAbortClassicFrameLimit(t *testing.T) {
	as, base, size := preparedParent(t)
	defer as.Teardown()
	pre := as.Allocator().Allocated()

	// Room for the first table or two, not the whole copy: the walk
	// dies mid-flight with real allocation pressure.
	as.Allocator().SetLimit(pre + 2)
	child, err := ForkWithOptions(as, ForkClassic, ForkOptions{})
	checkAbortedFork(t, as, child, err, pre)

	// The parent's memory is untouched by the aborted fork.
	if b, rerr := as.LoadByte(base); rerr != nil || b != 0xC3 {
		t.Errorf("parent read after abort = %#x, %v", b, rerr)
	}

	as.Allocator().SetLimit(0)
	retryAndVerify(t, as, ForkClassic, ForkOptions{}, base, size)
}

// forkAbortFailpoint runs one injected-abort cycle for a given engine,
// failpoint, and option set.
func forkAbortFailpoint(t *testing.T, mode ForkMode, point string, opts ForkOptions) {
	t.Helper()
	as, base, size := preparedParent(t)
	defer as.Teardown()
	fp := failpoint.New(1)
	as.Allocator().SetFailpoints(fp)
	pre := as.Allocator().Allocated()

	if err := fp.Set(point, "once"); err != nil {
		t.Fatal(err)
	}
	child, err := ForkWithOptions(as, mode, opts)
	checkAbortedFork(t, as, child, err, pre)
	if fp.Fires(point) != 1 {
		t.Fatalf("failpoint %s fired %d times, want 1", point, fp.Fires(point))
	}

	// once disarms itself, so the retry runs clean.
	retryAndVerify(t, as, mode, opts, base, size)
}

func TestForkAbortOnDemandWalk(t *testing.T) {
	forkAbortFailpoint(t, ForkOnDemand, failpoint.ForkWalk, ForkOptions{})
}

func TestForkAbortOnDemandShare(t *testing.T) {
	forkAbortFailpoint(t, ForkOnDemand, failpoint.ForkShare, ForkOptions{})
}

func TestForkAbortClassicRefcount(t *testing.T) {
	forkAbortFailpoint(t, ForkClassic, failpoint.ForkRefcount, ForkOptions{})
}

// forkAbortFanOut aborts a fanned-out fork from inside a range task.
// The parent maps two 2 MiB regions onDemandChunkSlots regions apart,
// so either engine's chunking yields two tasks and the fork runs them
// on two participants. Whichever participant hits the failpoint traps
// the panic in participate; execute must re-raise it after the join,
// or the partial child would be returned as a successful fork.
func forkAbortFanOut(t *testing.T, mode ForkMode, point string) {
	t.Helper()
	as, m := newMeteredSpace()
	defer as.Teardown()
	region := uint64(addr.PTECoverage)
	var bases []addr.V
	for _, slot := range []uint64{0, onDemandChunkSlots} {
		v, err := as.Mmap(mmapBase+addr.V(slot*region), region, rw, vm.MapPrivate|vm.MapPopulate, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		fillPattern(t, as, v, region, 0xC3)
		bases = append(bases, v)
	}
	fp := failpoint.New(1)
	as.Allocator().SetFailpoints(fp)
	pre := as.Allocator().Allocated()
	opts := ForkOptions{Parallelism: 4}

	if err := fp.Set(point, "once"); err != nil {
		t.Fatal(err)
	}
	before := m.Snapshot()
	child, err := ForkWithOptions(as, mode, opts)
	if d := m.Snapshot().Sub(before); d.Fork.ParallelForks != 1 || d.Fork.ParallelTasks != 2 {
		t.Fatalf("aborting fork ran %d fan-outs with %d tasks, want 1 with 2",
			d.Fork.ParallelForks, d.Fork.ParallelTasks)
	}
	checkAbortedFork(t, as, child, err, pre)
	if fp.Fires(point) != 1 {
		t.Fatalf("failpoint %s fired %d times, want 1", point, fp.Fires(point))
	}

	for _, base := range bases {
		retryAndVerify(t, as, mode, opts, base, region)
	}
}

func TestForkAbortParallelOnDemand(t *testing.T) {
	forkAbortFanOut(t, ForkOnDemand, failpoint.ForkShare)
}

func TestForkAbortParallelClassic(t *testing.T) {
	forkAbortFanOut(t, ForkClassic, failpoint.ForkRefcount)
}

// TestForkAbortRepeated drives many aborted forks in a row and then a
// clean one: nothing accumulates across aborts.
func TestForkAbortRepeated(t *testing.T) {
	as, base, size := preparedParent(t)
	defer as.Teardown()
	fp := failpoint.New(7)
	as.Allocator().SetFailpoints(fp)
	pre := as.Allocator().Allocated()

	for i := 0; i < 20; i++ {
		point := failpoint.ForkWalk
		if i%2 == 1 {
			point = failpoint.ForkShare
		}
		if err := fp.Set(point, "once"); err != nil {
			t.Fatal(err)
		}
		child, err := ForkWithOptions(as, ForkOnDemand, ForkOptions{})
		checkAbortedFork(t, as, child, err, pre)
	}
	retryAndVerify(t, as, ForkOnDemand, ForkOptions{}, base, size)
}
