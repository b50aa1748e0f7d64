package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mem/addr"
	"repro/internal/mem/phys"
	"repro/internal/mem/vm"
)

// shadowSpace pairs a simulated address space with a plain-Go shadow of
// its memory contents, so random operation sequences can be verified
// byte-for-byte.
type shadowSpace struct {
	as     *AddressSpace
	shadow map[addr.V]byte // sparse: unset means zero
	base   addr.V
	size   uint64
}

func (s *shadowSpace) cloneShadow() map[addr.V]byte {
	m := make(map[addr.V]byte, len(s.shadow))
	for k, v := range s.shadow {
		m[k] = v
	}
	return m
}

// TestQuickForkLineage drives random fork/write/verify/exit sequences
// over a process tree and checks, after every step, that each live
// process sees exactly its own shadow memory, that the share/refcount
// invariants hold, and that no frames leak at the end.
func TestQuickForkLineage(t *testing.T) {
	const (
		regions = 3
		size    = regions * addr.PTECoverage
	)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		alloc := phys.NewAllocator()
		root := NewAddressSpace(alloc)
		base, err := root.Mmap(0, size, rw, vm.MapPrivate|vm.MapPopulate, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		live := []*shadowSpace{{
			as: root, shadow: map[addr.V]byte{}, base: base, size: size,
		}}

		checkOne := func(s *shadowSpace) error {
			// Verify a sample of addresses, including all shadow-written.
			for a, want := range s.shadow {
				got, err := s.as.LoadByte(a)
				if err != nil {
					return fmt.Errorf("read %v: %v", a, err)
				}
				if got != want {
					return fmt.Errorf("at %v got %#x want %#x", a, got, want)
				}
			}
			for i := 0; i < 8; i++ {
				a := s.base + addr.V(rng.Int63n(int64(s.size)))
				want := s.shadow[a]
				got, err := s.as.LoadByte(a)
				if err != nil {
					return fmt.Errorf("read %v: %v", a, err)
				}
				if got != want {
					return fmt.Errorf("sample at %v got %#x want %#x", a, got, want)
				}
			}
			return nil
		}

		for op := 0; op < 60 && len(live) > 0; op++ {
			s := live[rng.Intn(len(live))]
			switch rng.Intn(10) {
			case 0, 1: // fork (both modes)
				if len(live) >= 8 {
					continue
				}
				mode := ForkClassic
				if rng.Intn(2) == 0 {
					mode = ForkOnDemand
				}
				child := mustForkOpts(s.as, mode, ForkOptions{})
				live = append(live, &shadowSpace{
					as: child, shadow: s.cloneShadow(), base: s.base, size: s.size,
				})
			case 2: // exit (keep at least one process)
				if len(live) > 1 {
					s.as.Teardown()
					for i, e := range live {
						if e == s {
							live = append(live[:i], live[i+1:]...)
							break
						}
					}
				}
			default: // write a few bytes
				for k := 0; k < 4; k++ {
					a := s.base + addr.V(rng.Int63n(int64(s.size)))
					b := byte(rng.Intn(256))
					if err := s.as.StoreByte(a, b); err != nil {
						t.Logf("seed %d: write failed: %v", seed, err)
						return false
					}
					s.shadow[a] = b
				}
			}

			if op%7 == 0 {
				spaces := make([]*AddressSpace, len(live))
				for i, e := range live {
					spaces[i] = e.as
				}
				if err := CheckInvariants(spaces...); err != nil {
					t.Logf("seed %d op %d: %v", seed, op, err)
					return false
				}
				for _, e := range live {
					if err := checkOne(e); err != nil {
						t.Logf("seed %d op %d: %v", seed, op, err)
						return false
					}
				}
			}
		}
		for _, e := range live {
			if err := checkOne(e); err != nil {
				t.Logf("seed %d final: %v", seed, err)
				return false
			}
			e.as.Teardown()
		}
		if n := alloc.Allocated(); n != 0 {
			t.Logf("seed %d: leaked %d frames", seed, n)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 12}
	if testing.Short() {
		cfg.MaxCount = 3
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestQuickUnmapRemapLineage mixes munmap and mremap into fork
// lineages, the operations §3.3 singles out.
func TestQuickUnmapRemapLineage(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		alloc := phys.NewAllocator()
		parent := NewAddressSpace(alloc)
		size := uint64(2 * addr.PTECoverage)
		base, err := parent.Mmap(0, size, rw, vm.MapPrivate|vm.MapPopulate, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		// Stamp each page with its index.
		for pg := uint64(0); pg < size/addr.PageSize; pg += 16 {
			if err := parent.StoreByte(base+addr.V(pg*addr.PageSize), byte(pg)); err != nil {
				t.Fatal(err)
			}
		}
		child := mustForkOpts(parent, ForkOnDemand, ForkOptions{})

		// Child randomly unmaps or remaps sub-ranges; the parent's view
		// must be completely unaffected.
		for i := 0; i < 6; i++ {
			pg := rng.Int63n(int64(size/addr.PageSize - 8))
			n := uint64(rng.Int63n(8) + 1)
			target := base + addr.V(pg)*addr.PageSize
			if child.FindVMA(target) == nil {
				continue
			}
			if rng.Intn(2) == 0 {
				_ = child.Munmap(target, n*addr.PageSize)
			} else {
				vma := child.FindVMA(target)
				if vma != nil && vma.Range.ContainsRange(addr.NewRange(target, n*addr.PageSize)) {
					if _, err := child.Mremap(target, n*addr.PageSize); err != nil {
						t.Logf("seed %d: mremap: %v", seed, err)
						return false
					}
				}
			}
		}
		for pg := uint64(0); pg < size/addr.PageSize; pg += 16 {
			b, err := parent.LoadByte(base + addr.V(pg*addr.PageSize))
			if err != nil || b != byte(pg) {
				t.Logf("seed %d: parent page %d = %d, %v", seed, pg, b, err)
				return false
			}
		}
		if err := CheckInvariants(parent, child); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		child.Teardown()
		parent.Teardown()
		if n := alloc.Allocated(); n != 0 {
			t.Logf("seed %d: leaked %d frames", seed, n)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 15}
	if testing.Short() {
		cfg.MaxCount = 4
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
