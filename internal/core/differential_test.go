package core

// Differential testing: the two fork engines must be observationally
// equivalent — any program behaves identically whichever engine its
// forks use. Random operation sequences are replayed against a
// classic-fork lineage and an on-demand-fork lineage (with and without
// the huge-page extension), and every process's memory is compared
// byte-for-byte at the end.

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mem/addr"
	"repro/internal/mem/phys"
	"repro/internal/mem/vm"
)

// lineage replays operations against one engine configuration.
type lineage struct {
	alloc *phys.Allocator
	mode  ForkMode
	opts  ForkOptions
	procs []*AddressSpace
	base  addr.V
	size  uint64
}

func newLineage(mode ForkMode, opts ForkOptions, size uint64, flags vm.MapFlags) (*lineage, error) {
	l := &lineage{alloc: phys.NewAllocator(), mode: mode, opts: opts, size: size}
	root := NewAddressSpace(l.alloc)
	base, err := root.Mmap(0, size, rw, flags|vm.MapPopulate, nil, 0)
	if err != nil {
		return nil, err
	}
	l.base = base
	l.procs = append(l.procs, root)
	return l, nil
}

// op codes driven by the random stream; both lineages consume the same
// stream, so they perform identical logical operations.
func (l *lineage) step(rng *rand.Rand) error {
	switch pick := rng.Intn(10); {
	case pick < 2: // fork
		if len(l.procs) < 5 {
			src := l.procs[rng.Intn(len(l.procs))]
			l.procs = append(l.procs, mustForkOpts(src, l.mode, l.opts))
		} else {
			rng.Intn(len(l.procs)) // keep streams aligned
		}
	case pick == 2: // exit a non-root process
		if len(l.procs) > 1 {
			i := rng.Intn(len(l.procs)-1) + 1
			l.procs[i].Teardown()
			l.procs = append(l.procs[:i], l.procs[i+1:]...)
		}
	case pick == 3: // madvise a small aligned chunk
		p := l.procs[rng.Intn(len(l.procs))]
		off := uint64(rng.Intn(int(l.size/addr.HugePageSize))) * addr.HugePageSize
		n := addr.HugePageSize
		if err := p.MadviseDontneed(l.base+addr.V(off), uint64(n)); err != nil {
			return fmt.Errorf("madvise: %w", err)
		}
	default: // writes and reads
		p := l.procs[rng.Intn(len(l.procs))]
		for k := 0; k < 6; k++ {
			v := l.base + addr.V(rng.Int63n(int64(l.size)))
			if rng.Intn(2) == 0 {
				if err := p.StoreByte(v, byte(rng.Intn(256))); err != nil {
					return fmt.Errorf("write: %w", err)
				}
			} else if _, err := p.LoadByte(v); err != nil {
				return fmt.Errorf("read: %w", err)
			}
		}
	}
	return nil
}

func (l *lineage) teardown() {
	for _, p := range l.procs {
		p.Teardown()
	}
}

func runDifferential(t *testing.T, seed int64, flags vm.MapFlags, opts ForkOptions) bool {
	t.Helper()
	const size = 2 * addr.PTECoverage
	classic, err := newLineage(ForkClassic, ForkOptions{}, size, flags)
	if err != nil {
		t.Fatal(err)
	}
	odf, err := newLineage(ForkOnDemand, opts, size, flags)
	if err != nil {
		t.Fatal(err)
	}
	defer classic.teardown()
	defer odf.teardown()

	rngA := rand.New(rand.NewSource(seed))
	rngB := rand.New(rand.NewSource(seed))
	for op := 0; op < 50; op++ {
		if err := classic.step(rngA); err != nil {
			t.Logf("seed %d classic op %d: %v", seed, op, err)
			return false
		}
		if err := odf.step(rngB); err != nil {
			t.Logf("seed %d odf op %d: %v", seed, op, err)
			return false
		}
	}
	if len(classic.procs) != len(odf.procs) {
		t.Logf("seed %d: process counts diverged", seed)
		return false
	}
	for i := range classic.procs {
		if err := EqualMemory(classic.procs[i], odf.procs[i],
			addr.NewRange(classic.base, size)); err != nil {
			t.Logf("seed %d process %d: %v", seed, i, err)
			return false
		}
	}
	if err := CheckInvariants(odf.procs...); err != nil {
		t.Logf("seed %d: %v", seed, err)
		return false
	}
	return true
}

func TestDifferentialClassicVsOnDemand(t *testing.T) {
	f := func(seed int64) bool {
		return runDifferential(t, seed, vm.MapPrivate, ForkOptions{})
	}
	cfg := &quick.Config{MaxCount: 8}
	if testing.Short() {
		cfg.MaxCount = 2
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestDifferentialHugePages(t *testing.T) {
	f := func(seed int64) bool {
		return runDifferential(t, seed, vm.MapPrivate|vm.MapHuge,
			ForkOptions{ShareHugePMD: true})
	}
	cfg := &quick.Config{MaxCount: 6}
	if testing.Short() {
		cfg.MaxCount = 2
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
