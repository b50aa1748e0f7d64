package phys

// The buddy allocator: the same power-of-two block scheme Linux's page
// allocator uses. Free memory is kept as blocks of 2^order frames on
// per-order free lists; allocating splits larger blocks, and freeing
// coalesces a block with its "buddy" (the neighbour that differs only
// in bit `order` of the frame number) whenever both are free. Huge
// (2 MiB) compound pages are order-9 blocks, so their 512 frames are
// physically contiguous and naturally aligned by construction.
//
// The arena grows in maximal blocks, so frame numbers handed out are
// always naturally aligned for their order and the buddy arithmetic
// stays valid across growth.

// MaxOrder is the largest block order (2 MiB, matching HugeOrder).
const MaxOrder = HugeOrder

// freeOrder is stored in PageInfo as order+1, so the zero value of a
// fresh PageInfo means "not the head of a free block".
const notFree = 0

// buddy holds the allocator's free-block state. It is embedded in
// Allocator and guarded by the allocator's mutex.
type buddy struct {
	// freeLists[o] holds the head frames of free blocks of order o.
	freeLists [MaxOrder + 1][]Frame
}

// blockOf returns the head of the 2^order block containing f.
func blockHead(f Frame, order uint8) Frame {
	return f &^ (Frame(1)<<order - 1)
}

// buddyOf returns the buddy block head of the block at f with the
// given order.
func buddyOf(f Frame, order uint8) Frame {
	return f ^ (Frame(1) << order)
}

// popFree removes and returns a free block of exactly the given order,
// or NoFrame. Caller holds the allocator lock.
func (a *Allocator) popFree(order uint8) Frame {
	list := a.buddy.freeLists[order]
	n := len(list)
	if n == 0 {
		return NoFrame
	}
	f := list[n-1]
	a.buddy.freeLists[order] = list[:n-1]
	a.info(f).freeOrder = notFree
	return f
}

// pushFree adds a free block of the given order. Caller holds the lock.
func (a *Allocator) pushFree(f Frame, order uint8) {
	a.info(f).freeOrder = int8(order) + 1
	a.buddy.freeLists[order] = append(a.buddy.freeLists[order], f)
}

// removeFree unlinks a specific free block (used when its buddy
// coalesces with it). Caller holds the lock. The free lists are small
// slices; removal swaps with the tail.
func (a *Allocator) removeFree(f Frame, order uint8) {
	list := a.buddy.freeLists[order]
	for i, b := range list {
		if b == f {
			list[i] = list[len(list)-1]
			a.buddy.freeLists[order] = list[:len(list)-1]
			a.info(f).freeOrder = notFree
			return
		}
	}
	panic("phys: free block missing from its free list")
}

// takeFree carves a block of the given order out of the smallest free
// block that fits, or returns NoFrame when none does. Caller holds the
// lock.
func (a *Allocator) takeFree(order uint8) Frame {
	for o := order; o <= MaxOrder; o++ {
		f := a.popFree(o)
		if !f.Valid() {
			continue
		}
		// Split down to the requested order, returning the upper halves
		// to the free lists.
		for cur := o; cur > order; cur-- {
			half := cur - 1
			a.pushFree(f+Frame(1)<<half, half)
		}
		return f
	}
	return NoFrame
}

// allocBlock carves out a block of the given order, growing the arena
// when no free block is available. Caller holds the lock.
func (a *Allocator) allocBlock(order uint8) Frame {
	if f := a.takeFree(order); f.Valid() {
		return f
	}
	// Grow the arena by one maximal block. Frame numbers issued by
	// growth are MaxOrder-aligned because the arena base (after the
	// reserved frame 0 region) advances in maximal blocks.
	f := a.grow()
	if order == MaxOrder {
		return f
	}
	for cur := uint8(MaxOrder); cur > order; cur-- {
		half := cur - 1
		a.pushFree(f+Frame(1)<<half, half)
	}
	return f
}

// grow extends the arena by one maximal block and returns its head.
// Caller holds the lock.
func (a *Allocator) grow() Frame {
	// Align the growth point up to a maximal-block boundary; the gap (at
	// most once, below the first block) is left permanently reserved.
	head := blockHead(a.next+Frame(1)<<MaxOrder-1, MaxOrder)
	a.next = head + Frame(1)<<MaxOrder
	a.ensure(a.next - 1)
	return head
}

// freeBlock returns a block to the allocator, coalescing with free
// buddies. Caller holds the lock.
func (a *Allocator) freeBlock(f Frame, order uint8) {
	for order < MaxOrder {
		bud := buddyOf(f, order)
		// The buddy must exist, be entirely within the arena, and be the
		// free head of a block of the same order.
		if bud >= a.next {
			break
		}
		bp := a.info(bud)
		if bp.freeOrder != int8(order)+1 {
			break
		}
		a.removeFree(bud, order)
		if bud < f {
			f = bud
		}
		order++
	}
	a.pushFree(f, order)
}

// FreeBlocks reports the number of free blocks per order (diagnostics
// and tests). Shard caches are drained first so the report — and the
// coalescing it reflects — is exact.
func (a *Allocator) FreeBlocks() [MaxOrder + 1]int {
	a.FlushShards()
	a.mu.Lock()
	defer a.mu.Unlock()
	var out [MaxOrder + 1]int
	for o := range a.buddy.freeLists {
		out[o] = len(a.buddy.freeLists[o])
	}
	return out
}
