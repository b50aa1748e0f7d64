// Package vm provides virtual memory area (VMA) bookkeeping for the
// simulated kernel: the sorted set of mapped regions in an address
// space, with the split/merge mechanics that munmap, mremap and
// mprotect require. It also holds what a fault reads pages from: the
// Backing of a file-backed VMA, and StorePolicy, the one
// retry/verify/degrade policy of the swap and checkpoint stores
// (backing.go).
//
// Page tables are owned by package core, which consults the VMA set to
// decide, e.g., whether a shared last-level page table still backs
// another mapping of the same process before unmapping (§3.3 of the
// paper).
package vm

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/mem/addr"
)

// Prot is the protection of a mapping.
type Prot uint8

// Protection bits.
const (
	ProtRead  Prot = 1 << iota // readable
	ProtWrite                  // writable
)

// CanRead reports whether the protection allows loads.
func (p Prot) CanRead() bool { return p&ProtRead != 0 }

// CanWrite reports whether the protection allows stores.
func (p Prot) CanWrite() bool { return p&ProtWrite != 0 }

// MapFlags selects mapping behaviour.
type MapFlags uint8

// Mapping flags.
const (
	// MapPrivate gives copy-on-write semantics across fork (the only
	// sharing mode the paper's workloads use).
	MapPrivate MapFlags = 1 << iota
	// MapHuge backs the mapping with 2 MiB pages described directly in
	// PMD entries.
	MapHuge
	// MapPopulate pre-faults every page at mmap time, so that — like the
	// paper's benchmarks, which write the buffer before forking — every
	// page is backed by a distinct physical frame.
	MapPopulate
)

// VMA is one mapped region of an address space.
type VMA struct {
	Range   addr.Range
	Prot    Prot
	Flags   MapFlags
	Backing Backing // nil for anonymous mappings
	FileOff uint64  // file offset of Range.Start for file-backed VMAs
}

// Anonymous reports whether the VMA has no file backing.
func (v *VMA) Anonymous() bool { return v.Backing == nil }

// Huge reports whether the VMA uses 2 MiB pages.
func (v *VMA) Huge() bool { return v.Flags&MapHuge != 0 }

// clone returns a copy of the VMA restricted to r, preserving the file
// offset correspondence.
func (v *VMA) clone(r addr.Range) *VMA {
	nv := *v
	nv.Range = r
	if v.Backing != nil {
		nv.FileOff = v.FileOff + uint64(r.Start-v.Range.Start)
	}
	return &nv
}

// String renders the VMA like a /proc/pid/maps line.
func (v *VMA) String() string {
	perm := "-"
	if v.Prot.CanRead() {
		perm = "r"
	}
	w := "-"
	if v.Prot.CanWrite() {
		w = "w"
	}
	name := "anon"
	if v.Backing != nil {
		name = v.Backing.BackingName()
	}
	huge := ""
	if v.Huge() {
		huge = " huge"
	}
	return fmt.Sprintf("%v %s%sp %s%s", v.Range, perm, w, name, huge)
}

// Set is an ordered, non-overlapping collection of VMAs.
type Set struct {
	vmas []*VMA // sorted by Range.Start
}

// Len returns the number of VMAs.
func (s *Set) Len() int { return len(s.vmas) }

// All returns the VMAs in address order. The slice must not be mutated.
func (s *Set) All() []*VMA { return s.vmas }

// searchIdx returns the index of the first VMA whose end is above v.
func (s *Set) searchIdx(v addr.V) int {
	return sort.Search(len(s.vmas), func(i int) bool {
		return s.vmas[i].Range.End > v
	})
}

// Find returns the VMA containing v, or nil.
func (s *Set) Find(v addr.V) *VMA {
	i := s.searchIdx(v)
	if i < len(s.vmas) && s.vmas[i].Range.Contains(v) {
		return s.vmas[i]
	}
	return nil
}

// Overlapping returns all VMAs intersecting r, in address order.
func (s *Set) Overlapping(r addr.Range) []*VMA {
	var out []*VMA
	for i := s.searchIdx(r.Start); i < len(s.vmas); i++ {
		v := s.vmas[i]
		if v.Range.Start >= r.End {
			break
		}
		if v.Range.Overlaps(r) {
			out = append(out, v)
		}
	}
	return out
}

// MapsAnyIn reports whether any part of r is mapped.
func (s *Set) MapsAnyIn(r addr.Range) bool {
	i := s.searchIdx(r.Start)
	return i < len(s.vmas) && s.vmas[i].Range.Overlaps(r)
}

// Insert adds a VMA. It returns an error if the range is empty,
// unaligned, or overlaps an existing mapping.
func (s *Set) Insert(v *VMA) error {
	if v.Range.Empty() {
		return fmt.Errorf("vm: empty range %v", v.Range)
	}
	if !v.Range.Start.PageAligned() || !v.Range.End.PageAligned() {
		return fmt.Errorf("vm: unaligned range %v", v.Range)
	}
	if s.MapsAnyIn(v.Range) {
		return fmt.Errorf("vm: range %v overlaps existing mapping", v.Range)
	}
	i := s.searchIdx(v.Range.Start)
	s.vmas = append(s.vmas, nil)
	copy(s.vmas[i+1:], s.vmas[i:])
	s.vmas[i] = v
	return nil
}

// RemoveRange unmaps r, splitting any VMA that straddles a boundary.
// It returns the removed pieces (each a VMA whose Range lies within r)
// in address order, so the caller can tear down page tables per piece.
func (s *Set) RemoveRange(r addr.Range) []*VMA {
	var removed []*VMA
	var kept []*VMA
	i := s.searchIdx(r.Start)
	kept = append(kept, s.vmas[:i]...)
	for ; i < len(s.vmas); i++ {
		v := s.vmas[i]
		if v.Range.Start >= r.End || !v.Range.Overlaps(r) {
			kept = append(kept, s.vmas[i:]...)
			break
		}
		if v.Range.Start < r.Start {
			kept = append(kept, v.clone(addr.Range{Start: v.Range.Start, End: r.Start}))
		}
		mid := v.Range.Intersect(r)
		removed = append(removed, v.clone(mid))
		if v.Range.End > r.End {
			kept = append(kept, v.clone(addr.Range{Start: r.End, End: v.Range.End}))
		}
	}
	s.vmas = kept
	return removed
}

// Clear drops all VMAs and returns them (process teardown).
func (s *Set) Clear() []*VMA {
	out := s.vmas
	s.vmas = nil
	return out
}

// Reset empties the set while keeping its slice capacity and the VMA
// structs parked in the backing array, so a recycled set's next
// CloneInto can refill without allocating. Callers of All()/VMAs()
// must not retain the structs across a Reset — they may be
// overwritten by the set's next fill.
func (s *Set) Reset() {
	s.vmas = s.vmas[:0]
}

// Clone returns a deep copy of the set (fork duplicates the VMA list).
func (s *Set) Clone() *Set {
	out := &Set{vmas: make([]*VMA, len(s.vmas))}
	for i, v := range s.vmas {
		nv := *v
		out.vmas[i] = &nv
	}
	return out
}

// CloneInto deep-copies the set into dst, reusing dst's slice capacity
// and any VMA structs parked there by a previous Reset. The
// pool-recycled fork path uses it to duplicate the VMA list with zero
// allocations once warm.
func (s *Set) CloneInto(dst *Set) {
	n := len(s.vmas)
	if cap(dst.vmas) < n {
		dst.vmas = make([]*VMA, n)
	} else {
		dst.vmas = dst.vmas[:n]
	}
	for i, v := range s.vmas {
		if dst.vmas[i] == nil {
			dst.vmas[i] = new(VMA)
		}
		*dst.vmas[i] = *v
	}
}

// TotalBytes returns the sum of all mapped region sizes.
func (s *Set) TotalBytes() uint64 {
	var n uint64
	for _, v := range s.vmas {
		n += v.Range.Size()
	}
	return n
}

// FindGap returns the lowest page-aligned address >= hint where size
// bytes fit without overlapping any VMA, or false if the space is
// exhausted below limit.
func (s *Set) FindGap(hint addr.V, size uint64, limit addr.V) (addr.V, bool) {
	v := addr.V(addr.PageRoundUp(uint64(hint)))
	size = addr.PageRoundUp(size)
	for {
		if uint64(v)+size > uint64(limit) {
			return 0, false
		}
		r := addr.NewRange(v, size)
		i := s.searchIdx(v)
		if i >= len(s.vmas) || !s.vmas[i].Range.Overlaps(r) {
			return v, true
		}
		v = s.vmas[i].Range.End
	}
}

// String renders the whole set, one VMA per line.
func (s *Set) String() string {
	var b strings.Builder
	for _, v := range s.vmas {
		fmt.Fprintln(&b, v)
	}
	return b.String()
}

// Validate checks internal invariants (ordering, non-overlap,
// alignment). Tests call it after mutation sequences.
func (s *Set) Validate() error {
	for i, v := range s.vmas {
		if v.Range.Empty() {
			return fmt.Errorf("vm: empty VMA at index %d", i)
		}
		if !v.Range.Start.PageAligned() || !v.Range.End.PageAligned() {
			return fmt.Errorf("vm: unaligned VMA %v", v.Range)
		}
		if i > 0 && s.vmas[i-1].Range.End > v.Range.Start {
			return fmt.Errorf("vm: overlap between %v and %v",
				s.vmas[i-1].Range, v.Range)
		}
	}
	return nil
}
