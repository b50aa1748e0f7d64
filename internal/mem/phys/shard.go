package phys

// Sharded frame caches in front of the buddy core, modelled on Linux's
// per-CPU pagesets: order-0 allocations are served from a small
// per-shard LIFO cache and only fall back to the globally locked buddy
// allocator to refill or drain a whole batch at a time. This keeps the
// classic-fork hot path (one page-table frame per 2 MiB of address
// space, plus COW data frames at fault time) off the global lock when
// multiple forks run concurrently (the paper's Figure 2 workload).
//
// Lock order: shard.mu → Allocator.mu (the buddy core). A shard lock is
// held across its refill/drain so a batch moves atomically with respect
// to other users of that shard; FlushShards takes each shard in turn.
//
// Accounting stays exact: frames parked in a shard cache are invisible
// to the buddy free lists, so FreeBlocks flushes every shard before
// reporting, and the live-frame counter (`allocated`) is maintained at
// TryAlloc/release time, never by cache movement.

import (
	"runtime"
	"sync"
	_ "unsafe" // go:linkname

	"repro/internal/failpoint"
	"repro/internal/trace"
)

const (
	// shardBatch is how many frames move between a shard cache and the
	// buddy core per refill or drain (Linux's pageset ->batch).
	shardBatch = 32
	// shardMax is the cache size that triggers a drain (->high).
	shardMax = 2 * shardBatch
	// maxShards caps the shard count on very wide machines.
	maxShards = 64
)

// shard is one frame cache. The pad keeps adjacent shards off the same
// cache line so uncontended shards do not false-share.
type shard struct {
	mu    sync.Mutex
	cache []Frame
	_     [64]byte
}

// newShards sizes the shard array to the next power of two at or above
// GOMAXPROCS, so shard selection is a mask.
func newShards() []shard {
	n := 1
	for n < runtime.GOMAXPROCS(0) && n < maxShards {
		n <<= 1
	}
	return make([]shard, n)
}

// procPin and procUnpin are the runtime's P-pinning pair, the one
// sync.Pool uses for its per-P caches. procPin returns the id of the
// P (the scheduler's logical CPU) the goroutine runs on.
//
//go:linkname procPin runtime.procPin
func procPin() int

//go:linkname procUnpin runtime.procUnpin
func procUnpin()

// shardFor picks the shard of the P the calling goroutine runs on, the
// analogue of Linux's per-CPU pageset: every call on one P, at any
// call depth, gets the same shard. The pin is dropped at once — the
// shard's own lock guards it — so a goroutine rescheduled onto another
// P between a free and an alloc moves to that P's shard, as a task
// migrated between CPUs does in Linux. A stale pick costs contention,
// never correctness.
func (a *Allocator) shardFor() *shard {
	p := procPin()
	procUnpin()
	return &a.shards[p&(len(a.shards)-1)]
}

// allocFrame hands out one order-0 frame: shard fast path first,
// batched refill from the buddy core on miss.
func (a *Allocator) allocFrame() Frame {
	s := a.shardFor()
	s.mu.Lock()
	if n := len(s.cache); n > 0 {
		f := s.cache[n-1]
		s.cache = s.cache[:n-1]
		s.mu.Unlock()
		if m := a.met.Load(); m.Enabled() {
			m.Alloc.ShardHits.Inc()
		}
		return f
	}
	// Miss: pull a batch from the buddy core while still holding the
	// shard lock (lock order shard → core), so the whole refill is one
	// critical section per shardBatch allocations. An injected refill
	// failure degrades to a single-frame pull — the allocation itself
	// still succeeds (its frame was already reserved against the limit),
	// the cache just stays cold, exactly like a pageset refill that
	// found the free lists fragmented.
	batch := shardBatch
	if fp := a.fail.Load(); fp.Enabled() && fp.Fire(failpoint.PhysShardRefill) {
		batch = 1
	}
	a.mu.Lock()
	f := a.takeFree(0)
	if !f.Valid() {
		// The core is empty, but other shards may still cache frames
		// (a goroutine that changed P left them behind): take those
		// before growing the arena.
		a.reclaimShards(s)
		f = a.allocBlock(0)
	}
	for i := 1; i < batch; i++ {
		g := a.takeFree(0)
		if !g.Valid() {
			break // a short batch, not a second growth
		}
		s.cache = append(s.cache, g)
	}
	a.mu.Unlock()
	s.mu.Unlock()
	if m := a.met.Load(); m.Enabled() {
		m.Alloc.ShardRefills.Inc()
	}
	if t := a.trc.Load(); t.Enabled() {
		t.Instant(trace.KindAllocRefill, trace.StageNone, trace.ActorApp, shardBatch, 0)
	}
	return f
}

// reclaimShards returns every other shard's cached frames to the buddy
// core. The caller holds s.mu and the core lock; the other shards are
// only TryLocked, so the shard → core lock order is never inverted and
// a busy shard is skipped rather than waited for.
func (a *Allocator) reclaimShards(s *shard) {
	for i := range a.shards {
		o := &a.shards[i]
		if o == s || !o.mu.TryLock() {
			continue
		}
		for _, f := range o.cache {
			a.freeBlock(f, 0)
		}
		o.cache = o.cache[:0]
		o.mu.Unlock()
	}
}

// freeFrame returns one order-0 frame to the caller's shard, draining
// the oldest batch to the buddy core when the cache is full. Draining
// from the front keeps recently freed frames at the LIFO top, so a
// free-then-alloc on one P reuses the same (cache-hot) frame. A frame
// left in another P's shard is not lost to growth: a refill that finds
// the core empty takes other shards' caches before growing the arena.
func (a *Allocator) freeFrame(f Frame) {
	s := a.shardFor()
	s.mu.Lock()
	s.cache = append(s.cache, f)
	if len(s.cache) < shardMax {
		s.mu.Unlock()
		return
	}
	a.mu.Lock()
	for _, b := range s.cache[:shardBatch] {
		a.freeBlock(b, 0)
	}
	a.mu.Unlock()
	n := copy(s.cache, s.cache[shardBatch:])
	s.cache = s.cache[:n]
	s.mu.Unlock()
	if m := a.met.Load(); m.Enabled() {
		m.Alloc.ShardDrains.Inc()
	}
	if t := a.trc.Load(); t.Enabled() {
		t.Instant(trace.KindAllocDrain, trace.StageNone, trace.ActorApp, shardBatch, 0)
	}
}

// FlushShards drains every shard cache back to the buddy core, making
// FreeBlocks and buddy coalescing exact. Tests and teardown paths call
// it; steady-state allocation never needs to.
func (a *Allocator) FlushShards() {
	for i := range a.shards {
		s := &a.shards[i]
		s.mu.Lock()
		if len(s.cache) > 0 {
			a.mu.Lock()
			for _, f := range s.cache {
				a.freeBlock(f, 0)
			}
			a.mu.Unlock()
			s.cache = s.cache[:0]
		}
		s.mu.Unlock()
	}
}

// ShardCached returns the total number of frames currently parked in
// shard caches (diagnostics and tests).
func (a *Allocator) ShardCached() int {
	total := 0
	for i := range a.shards {
		s := &a.shards[i]
		s.mu.Lock()
		total += len(s.cache)
		s.mu.Unlock()
	}
	return total
}

// Shards returns the number of allocator shards.
func (a *Allocator) Shards() int { return len(a.shards) }
