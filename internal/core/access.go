package core

import (
	"errors"
	"fmt"
	"runtime"

	"repro/internal/mem/addr"
	"repro/internal/mem/pagetable"
	"repro/internal/trace"
)

// The access layer is the simulated MMU: every application load or
// store walks the paging hierarchy, raises a software page fault when
// the translation is missing or lacks permission, and maintains the
// accessed and dirty bits exactly as hardware does. Reads through
// shared tables proceed without faulting (the paper's "Fast Read");
// the first write per shared 2 MiB region pays the table-copy cost.

// maxFaultRetries bounds fault/retry loops; any repair needs at most a
// split plus a data COW, so more iterations indicate a kernel bug.
const maxFaultRetries = 4

// oomRetries bounds unlock-reclaim-retry rounds when an access runs
// out of frames. Direct reclaim inside the allocator cannot evict
// pages of the space whose lock the faulting goroutine holds (eviction
// try-locks the owner and skips it), so a single self-owning process
// could exhaust its limit with reclaimable cold pages it cannot reach.
// The retry loop below releases the space lock and reclaims in the
// open — the simulated equivalent of the kernel putting a faulting
// task to sleep while reclaim runs against its address space.
const oomRetries = 3

// faultReserveFrames is how many frames one reclaim stall tries to
// free: the worst-case fault needs a data page plus a few page tables.
const faultReserveFrames = 8

// stallReclaim runs direct reclaim with no space lock held, marking
// the stall on the flight recorder (the reclaim pass itself records
// its own scan span). It returns false when the OOM is final: reclaim
// is off, or swap is degraded. A pass that freed nothing still asks for
// a retry, after yielding: eviction skips pages whose owner is locked,
// so another goroutine mid-access on the same space can leave the pass
// empty-handed, as can one that took the frames an earlier pass freed.
func (as *AddressSpace) stallReclaim(try int) bool {
	m := as.trk()
	if m == nil {
		return false
	}
	as.trc.InstantReq(trace.KindOOMStall, trace.StageNone, trace.ActorApp, uint64(try+1), 0, as.curReq.Load())
	if m.ReclaimFrames(faultReserveFrames) {
		return true
	}
	if m.Degraded() {
		return false
	}
	runtime.Gosched()
	return true
}

// ReadAt copies len(p) bytes of the process's memory starting at v
// into p. Unwritten pages read as zeroes.
func (as *AddressSpace) ReadAt(p []byte, v addr.V) error {
	for len(p) > 0 {
		n := addr.PageSize - v.PageOffset()
		if n > len(p) {
			n = len(p)
		}
		if err := as.accessPage(v, p[:n], false); err != nil {
			return err
		}
		p = p[n:]
		v += addr.V(n)
	}
	return nil
}

// WriteAt copies p into the process's memory starting at v.
func (as *AddressSpace) WriteAt(p []byte, v addr.V) error {
	for len(p) > 0 {
		n := addr.PageSize - v.PageOffset()
		if n > len(p) {
			n = len(p)
		}
		if err := as.accessPage(v, p[:n], true); err != nil {
			return err
		}
		p = p[n:]
		v += addr.V(n)
	}
	return nil
}

// LoadByte loads one byte.
func (as *AddressSpace) LoadByte(v addr.V) (byte, error) {
	var b [1]byte
	err := as.ReadAt(b[:], v)
	return b[0], err
}

// StoreByte stores one byte — the paper's Table 1 benchmark operation.
func (as *AddressSpace) StoreByte(v addr.V, b byte) error {
	return as.WriteAt([]byte{b}, v)
}

// Touch performs a minimal one-byte access without moving data, for
// fault-driven benchmarks.
func (as *AddressSpace) Touch(v addr.V, write bool) error {
	for tries := 0; ; tries++ {
		err := as.touchOnce(v, write)
		if err == nil || !errors.Is(err, ErrOutOfMemory) || tries >= oomRetries || !as.stallReclaim(tries) {
			return err
		}
	}
}

func (as *AddressSpace) touchOnce(v addr.V, write bool) (err error) {
	as.mu.Lock()
	defer as.mu.Unlock()
	defer catchOOM(&err)
	if _, ok := as.tlb.Lookup(v, write); ok {
		return nil
	}
	for attempt := 0; attempt < maxFaultRetries; attempt++ {
		tr, ok := as.w.Walk(v)
		if ok && (!write || tr.Writable) {
			as.markAccess(tr, write)
			as.tlb.Insert(v, tr.Frame, tr.Writable, write)
			return nil
		}
		if err := as.handleFaultLocked(v, write); err != nil {
			return err
		}
	}
	return fmt.Errorf("core: access at %v not repaired after %d faults", v, maxFaultRetries)
}

// accessPage performs one intra-page access of len(p) bytes at v,
// stalling in direct reclaim (lock released) when frames run out.
func (as *AddressSpace) accessPage(v addr.V, p []byte, write bool) error {
	for tries := 0; ; tries++ {
		err := as.accessPageOnce(v, p, write)
		if err == nil || !errors.Is(err, ErrOutOfMemory) || tries >= oomRetries || !as.stallReclaim(tries) {
			return err
		}
	}
}

func (as *AddressSpace) accessPageOnce(v addr.V, p []byte, write bool) (err error) {
	as.mu.Lock()
	defer as.mu.Unlock()
	defer catchOOM(&err)
	// TLB fast path: a cached translation skips the page walk entirely.
	if f, ok := as.tlb.Lookup(v, write); ok {
		off := v.PageOffset()
		if write {
			copy(as.alloc.Data(f)[off:], p)
			return nil
		}
		if d := as.alloc.DataIfPresent(f); d != nil {
			copy(p, d[off:])
		} else {
			clear(p)
		}
		return nil
	}
	for attempt := 0; attempt < maxFaultRetries; attempt++ {
		tr, ok := as.w.Walk(v)
		if ok && (!write || tr.Writable) {
			as.markAccess(tr, write)
			as.tlb.Insert(v, tr.Frame, tr.Writable, write)
			if write {
				copy(as.alloc.Data(tr.Frame)[tr.Offset:], p)
				return nil
			}
			if d := as.alloc.DataIfPresent(tr.Frame); d != nil {
				copy(p, d[tr.Offset:])
			} else {
				clear(p)
			}
			return nil
		}
		if err := as.handleFaultLocked(v, write); err != nil {
			return err
		}
	}
	return fmt.Errorf("core: access at %v not repaired after %d faults", v, maxFaultRetries)
}

// markAccess sets the accessed (and on writes, dirty) bits like the
// hardware walker. Under on-demand-fork the CPU keeps marking pages
// mapped by shared tables as accessed (§3.2); the dirty bit can never
// be set while a table is shared because writes are not permitted.
func (as *AddressSpace) markAccess(tr pagetable.Translation, write bool) {
	flags := pagetable.FlagAccessed
	if write {
		flags |= pagetable.FlagDirty
	}
	if tr.Entry&flags != flags {
		tr.Leaf.OrEntry(tr.LeafIndex, flags)
	}
}
