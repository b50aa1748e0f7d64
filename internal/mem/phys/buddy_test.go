package phys

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBuddyAlignment(t *testing.T) {
	a := NewAllocator()
	for i := 0; i < 4; i++ {
		h := a.AllocHuge()
		if uint64(h)%(1<<HugeOrder) != 0 {
			t.Fatalf("huge block %d not naturally aligned", h)
		}
		a.Put(h)
	}
}

func TestBuddyCoalescing(t *testing.T) {
	a := NewAllocator()
	// Allocate a full maximal block's worth of single frames, free them
	// all; the buddy system must coalesce back to maximal blocks only.
	n := 1 << MaxOrder
	fs := make([]Frame, 0, n)
	for i := 0; i < n; i++ {
		fs = append(fs, a.Alloc())
	}
	for _, f := range fs {
		a.Put(f)
	}
	free := a.FreeBlocks()
	for o := 0; o < MaxOrder; o++ {
		if free[o] != 0 {
			t.Errorf("order %d has %d free blocks after full coalesce", o, free[o])
		}
	}
	if free[MaxOrder] == 0 {
		t.Error("no maximal blocks after full coalesce")
	}
	// A huge allocation must now succeed without growing the arena.
	before := a.Stats().Extent
	h := a.AllocHuge()
	if a.Stats().Extent != before {
		t.Error("huge allocation grew arena despite coalesced space")
	}
	a.Put(h)
}

func TestBuddyMixedOrders(t *testing.T) {
	a := NewAllocator()
	h := a.AllocHuge()
	f := a.Alloc()
	// The single frame must not fall inside the huge block.
	if f >= h && f < h+(1<<HugeOrder) {
		t.Fatalf("single frame %d allocated inside huge block [%d,%d)", f, h, h+(1<<HugeOrder))
	}
	a.Put(f)
	a.Put(h)
	if a.Allocated() != 0 {
		t.Error("leak")
	}
}

func TestBuddySplitReuse(t *testing.T) {
	a := NewAllocator()
	// Free a huge block, then allocate singles: they must be carved from
	// the freed block (no growth).
	h := a.AllocHuge()
	a.Put(h)
	before := a.Stats().Extent
	for i := 0; i < 1<<MaxOrder; i++ {
		a.Alloc()
	}
	if a.Stats().Extent != before {
		t.Error("single allocations grew arena despite free huge block")
	}
}

// TestRefillTakesOtherShardsFrames parks every frame of a freed huge
// block in a shard no P maps to (P ids stay below GOMAXPROCS, and the
// shard array is doubled past that), so each refill finds the core
// empty while free frames sit in another shard. Refills must take those
// frames instead of growing the arena.
func TestRefillTakesOtherShardsFrames(t *testing.T) {
	a := NewAllocator()
	a.shards = make([]shard, 2*len(a.shards))
	far := &a.shards[len(a.shards)-1]
	a.Put(a.AllocHuge())
	before := a.Stats().Extent
	a.mu.Lock()
	for i := 0; i < 1<<MaxOrder; i++ {
		far.cache = append(far.cache, a.allocBlock(0))
	}
	a.mu.Unlock()
	for i := 0; i < 1<<MaxOrder; i++ {
		a.Alloc()
	}
	if got := a.Stats().Extent; got != before {
		t.Fatalf("arena grew from %d to %d frames while another shard cached free frames", before, got)
	}
}

// Property: random alloc/free sequences never hand out overlapping
// blocks, and freeing everything always coalesces back to maximal
// blocks.
func TestQuickBuddyConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := NewAllocator()
		type block struct {
			head Frame
			n    Frame
		}
		var live []block
		owner := make(map[Frame]bool)
		for op := 0; op < 300; op++ {
			if rng.Intn(2) == 0 || len(live) == 0 {
				var b block
				if rng.Intn(8) == 0 {
					b = block{a.AllocHuge(), 1 << HugeOrder}
				} else {
					b = block{a.Alloc(), 1}
				}
				for i := Frame(0); i < b.n; i++ {
					if owner[b.head+i] {
						t.Logf("seed %d: frame %d double-allocated", seed, b.head+i)
						return false
					}
					owner[b.head+i] = true
				}
				live = append(live, b)
			} else {
				i := rng.Intn(len(live))
				b := live[i]
				live = append(live[:i], live[i+1:]...)
				for j := Frame(0); j < b.n; j++ {
					delete(owner, b.head+j)
				}
				a.Put(b.head)
			}
		}
		for _, b := range live {
			a.Put(b.head)
		}
		if a.Allocated() != 0 {
			return false
		}
		free := a.FreeBlocks()
		for o := 0; o < MaxOrder; o++ {
			if free[o] != 0 {
				t.Logf("seed %d: %d stray order-%d blocks", seed, free[o], o)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestLimitAndTryAlloc(t *testing.T) {
	a := NewAllocator()
	a.SetLimit(2)
	f1, err := a.TryAlloc()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.TryAlloc(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.TryAlloc(); err != ErrNoMemory {
		t.Errorf("over-limit TryAlloc err = %v", err)
	}
	a.Put(f1)
	if _, err := a.TryAlloc(); err != nil {
		t.Errorf("TryAlloc after free: %v", err)
	}
	a.SetLimit(0)
	if _, err := a.TryAlloc(); err != nil {
		t.Errorf("unlimited TryAlloc: %v", err)
	}
}

func TestAllocPanicsAtLimit(t *testing.T) {
	a := NewAllocator()
	a.SetLimit(1)
	a.Alloc()
	defer func() {
		if recover() == nil {
			t.Error("Alloc over limit did not panic")
		}
	}()
	a.Alloc()
}
