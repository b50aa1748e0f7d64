package phys

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/metrics"
)

// TestShardCountersCharged exercises every shard event kind on one
// goroutine: a refill on the first (cold) allocation, fast-path hits
// from the refilled batch, and a drain once frees pile past the cache
// high-water mark.
func TestShardCountersCharged(t *testing.T) {
	m := metrics.New()
	a := NewAllocator()
	a.SetMetrics(m)
	const n = 4 * shardMax
	frames := make([]Frame, 0, n)
	for i := 0; i < n; i++ {
		frames = append(frames, a.Alloc())
	}
	for _, f := range frames {
		a.Put(f)
	}
	hits := m.Alloc.ShardHits.Load()
	refills := m.Alloc.ShardRefills.Load()
	if refills == 0 {
		t.Error("no shard refills charged")
	}
	if hits == 0 {
		t.Error("no shard fast-path hits charged")
	}
	if got := m.Alloc.ShardDrains.Load(); got == 0 {
		t.Error("no shard drains charged")
	}
	if hits+refills != n {
		t.Errorf("hits (%d) + refills (%d) != allocations (%d)", hits, refills, n)
	}
}

// TestShardConcurrentAllocFree hammers the allocator from many
// goroutines and checks the two exactness properties the sharding must
// not break: no frame is ever handed to two holders at once, and after
// everything is freed the buddy free lists account for every frame,
// fully coalesced.
func TestShardConcurrentAllocFree(t *testing.T) {
	a := NewAllocator()

	var ownedMu sync.Mutex
	owned := make(map[Frame]int) // frame → goroutine currently holding it

	const goroutines = 8
	const iters = 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			var local []Frame
			for i := 0; i < iters; i++ {
				if len(local) == 0 || rng.Intn(3) != 0 {
					f := a.Alloc()
					ownedMu.Lock()
					if prev, dup := owned[f]; dup {
						ownedMu.Unlock()
						t.Errorf("frame %d handed to goroutine %d while held by %d", f, g, prev)
						return
					}
					owned[f] = g
					ownedMu.Unlock()
					local = append(local, f)
				} else {
					j := rng.Intn(len(local))
					f := local[j]
					local[j] = local[len(local)-1]
					local = local[:len(local)-1]
					ownedMu.Lock()
					delete(owned, f)
					ownedMu.Unlock()
					a.Put(f)
				}
			}
			for _, f := range local {
				ownedMu.Lock()
				delete(owned, f)
				ownedMu.Unlock()
				a.Put(f)
			}
		}(g)
	}
	wg.Wait()

	if len(owned) != 0 {
		t.Fatalf("%d frames still marked owned", len(owned))
	}
	if got := a.Allocated(); got != 0 {
		t.Fatalf("Allocated() = %d after freeing everything", got)
	}

	// FreeBlocks flushes the shards; with every frame back in the buddy
	// core the arena must coalesce into maximal blocks exactly covering
	// the grown extent (the first 511 frame numbers are permanently
	// reserved for alignment).
	free := a.FreeBlocks()
	if got := a.ShardCached(); got != 0 {
		t.Fatalf("ShardCached() = %d after FreeBlocks flush", got)
	}
	extent := a.Stats().Extent
	maximal := (extent + 1 - (1 << MaxOrder)) / (1 << MaxOrder)
	for o, n := range free {
		switch {
		case o == MaxOrder && int64(n) != maximal:
			t.Errorf("order %d: %d free blocks, want %d", o, n, maximal)
		case o != MaxOrder && n != 0:
			t.Errorf("order %d: %d uncoalesced free blocks", o, n)
		}
	}
}

// TestShardLimitExactUnderConcurrency checks that the lock-free limit
// reservation admits exactly `limit` frames no matter how many
// goroutines race for them.
func TestShardLimitExactUnderConcurrency(t *testing.T) {
	a := NewAllocator()
	const limit = 100
	a.SetLimit(limit)

	const goroutines = 8
	var wg sync.WaitGroup
	got := make([][]Frame, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				f, err := a.TryAlloc()
				if err != nil {
					return
				}
				got[g] = append(got[g], f)
			}
		}(g)
	}
	wg.Wait()

	total := 0
	for _, fs := range got {
		total += len(fs)
	}
	if total != limit {
		t.Errorf("admitted %d allocations under limit %d", total, limit)
	}
	if a.Allocated() != limit {
		t.Errorf("Allocated() = %d, want %d", a.Allocated(), limit)
	}
	for _, fs := range got {
		for _, f := range fs {
			a.Put(f)
		}
	}
	if a.Allocated() != 0 {
		t.Errorf("Allocated() = %d after freeing", a.Allocated())
	}
}
