package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/mem/addr"
	"repro/internal/mem/vm"
)

// parOpts selects fan-out over workers participants. The package's
// tests lower the fan-out threshold (helpers_test.go), so the parallel
// engine is exercised even on the small regions tests use.
func parOpts(workers int) ForkOptions {
	return ForkOptions{Parallelism: workers}
}

func TestForkParallelMatchesSequential(t *testing.T) {
	for _, mode := range forkModes() {
		for _, workers := range []int{2, 4, 8} {
			t.Run(fmt.Sprintf("%s/workers=%d", mode, workers), func(t *testing.T) {
				as := newSpace()
				defer as.Teardown()
				size := uint64(6 * addr.PTECoverage)
				base := mustMmap(t, as, size, rw, vm.MapPrivate|vm.MapPopulate)
				fillPattern(t, as, base, size, 0xC3)

				seq := mustForkOpts(as, mode, ForkOptions{})
				par := mustForkOpts(as, mode, parOpts(workers))
				r := addr.NewRange(base, size)
				if err := EqualMemory(as, par, r); err != nil {
					t.Fatalf("parallel child diverges from parent: %v", err)
				}
				if err := EqualMemory(seq, par, r); err != nil {
					t.Fatalf("parallel child diverges from sequential child: %v", err)
				}
				if err := CheckInvariants(as, seq, par); err != nil {
					t.Fatal(err)
				}
				par.Teardown()
				seq.Teardown()
			})
		}
	}
}

// TestForkParallelProfileCounts pins the semantic equivalence of the
// fan-out: a parallel fork must perform exactly the same per-page and
// per-table accounting work as a sequential one — batching may merge
// metric charges, never change their totals. The shard events are left
// out: which shard serves a table allocation depends on the worker.
func TestForkParallelProfileCounts(t *testing.T) {
	for _, mode := range forkModes() {
		t.Run(mode.String(), func(t *testing.T) {
			counts := func(workers int) map[string]uint64 {
				as, m := newMeteredSpace()
				defer as.Teardown()
				size := uint64(5 * addr.PTECoverage)
				base := mustMmap(t, as, size, rw, vm.MapPrivate|vm.MapPopulate)
				fillPattern(t, as, base, size, 0x11)
				before := m.Snapshot()
				child := mustForkOpts(as, mode, parOpts(workers))
				defer child.Teardown()
				return attributionCounts(m.Snapshot().Sub(before))
			}
			seq, par := counts(1), counts(4)
			for _, name := range []string{
				"copy_one_pte", "page_ref_inc", "compound_head",
				"pt_share_inc", "upper_level_walk", "tlb_flush",
			} {
				if got, want := par[name], seq[name]; got != want {
					t.Errorf("%s: parallel fork charged %d, sequential %d", name, got, want)
				}
			}
			if seq["upper_level_walk"] == 0 || seq["tlb_flush"] != 1 {
				t.Errorf("sequential fork counts %v: want upper-level walks and one TLB flush", seq)
			}
		})
	}
}

func TestForkParallelismValidation(t *testing.T) {
	as := newSpace()
	defer as.Teardown()
	base := mustMmap(t, as, uint64(addr.PTECoverage), rw, vm.MapPrivate|vm.MapPopulate)
	_ = base

	t.Run("negative panics", func(t *testing.T) {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("ForkWithOptions accepted Parallelism=-1")
			}
			msg := fmt.Sprint(r)
			if !strings.Contains(msg, "Parallelism") {
				t.Errorf("panic message %q does not name the knob", msg)
			}
		}()
		mustForkOpts(as, ForkClassic, ForkOptions{Parallelism: -1})
	})

	t.Run("zero is sequential default", func(t *testing.T) {
		child := mustForkOpts(as, ForkClassic, ForkOptions{})
		defer child.Teardown()
		if err := CheckInvariants(as, child); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("huge values clamp", func(t *testing.T) {
		child := mustForkOpts(as, ForkClassic, ForkOptions{Parallelism: 1 << 20})
		defer child.Teardown()
		if err := CheckInvariants(as, child); err != nil {
			t.Fatal(err)
		}
	})
}

// TestForkParallelBelowThreshold checks that a small address space with
// Parallelism set forks correctly on the forking goroutine alone: the
// production threshold keeps tiny forks off the pool.
func TestForkParallelBelowThreshold(t *testing.T) {
	defer func(v int) { fanOutMinSlots = v }(fanOutMinSlots)
	fanOutMinSlots = parallelThreshold
	for _, mode := range forkModes() {
		t.Run(mode.String(), func(t *testing.T) {
			as, m := newMeteredSpace()
			defer as.Teardown()
			size := uint64(2 * addr.PTECoverage) // 2 slots << parallelThreshold
			base := mustMmap(t, as, size, rw, vm.MapPrivate|vm.MapPopulate)
			fillPattern(t, as, base, size, 0x77)
			before := m.Snapshot()
			child := mustForkOpts(as, mode, ForkOptions{Parallelism: 8})
			defer child.Teardown()
			if d := m.Snapshot().Sub(before); d.Fork.ParallelForks != 0 || d.Fork.ParallelTasks != 0 {
				t.Errorf("fork below the threshold fanned out: %d forks, %d tasks",
					d.Fork.ParallelForks, d.Fork.ParallelTasks)
			}
			if err := EqualMemory(as, child, addr.NewRange(base, size)); err != nil {
				t.Fatal(err)
			}
			if err := CheckInvariants(as, child); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestConcurrentForkFaultStress forks the parent from several
// goroutines (each fork itself fanned out) while sibling children
// fault-write into the leaves they still share with the parent. Run
// under -race this exercises every cross-goroutine edge of the
// parallel engine: shared leaf locks, share counters, the sharded
// allocator, and the metrics counters.
func TestConcurrentForkFaultStress(t *testing.T) {
	for _, mode := range forkModes() {
		t.Run(mode.String(), func(t *testing.T) {
			as, _ := newMeteredSpace()
			alloc := as.alloc
			size := uint64(8 * addr.PTECoverage)
			base := mustMmap(t, as, size, rw, vm.MapPrivate|vm.MapPopulate)
			fillPattern(t, as, base, size, 0x5A)

			// Siblings created up front; they share leaves with the parent
			// (on-demand) or hold COW pages (classic).
			const siblings = 3
			sibs := make([]*AddressSpace, siblings)
			for i := range sibs {
				sibs[i] = mustForkOpts(as, mode, parOpts(2))
			}

			const forkers = 4
			const forksEach = 4
			kids := make([][]*AddressSpace, forkers)
			var wg sync.WaitGroup
			for g := 0; g < forkers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for it := 0; it < forksEach; it++ {
						kids[g] = append(kids[g], mustForkOpts(as, mode, parOpts(2)))
					}
				}(g)
			}
			for i, sib := range sibs {
				wg.Add(1)
				go func(i int, sib *AddressSpace) {
					defer wg.Done()
					// Fault-write a byte into every 2 MiB region, twice, so
					// leaf splits and COW copies race with the forks above.
					for pass := 0; pass < 2; pass++ {
						for off := uint64(0); off < size; off += uint64(addr.PTECoverage) / 2 {
							v := base + addr.V(off)
							if err := sib.StoreByte(v, byte(i+1)); err != nil {
								t.Errorf("sibling %d write at %#x: %v", i, off, err)
								return
							}
						}
					}
				}(i, sib)
			}
			wg.Wait()

			all := []*AddressSpace{as}
			all = append(all, sibs...)
			for _, ks := range kids {
				all = append(all, ks...)
			}
			if err := CheckInvariants(all...); err != nil {
				t.Fatal(err)
			}
			// The parent was never written post-fill, so every kid forked
			// mid-stress must still read identical memory.
			r := addr.NewRange(base, size)
			for _, ks := range kids {
				for _, k := range ks {
					if err := EqualMemory(as, k, r); err != nil {
						t.Fatal(err)
					}
				}
			}
			for _, s := range all {
				s.Teardown()
			}
			if n := alloc.Allocated(); n != 0 {
				t.Errorf("leak: %d frames still allocated", n)
			}
		})
	}
}
