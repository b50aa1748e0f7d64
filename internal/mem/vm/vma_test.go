package vm

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mem/addr"
)

func mustInsert(t *testing.T, s *Set, start addr.V, size uint64, prot Prot) *VMA {
	t.Helper()
	v := &VMA{Range: addr.NewRange(start, size), Prot: prot, Flags: MapPrivate}
	if err := s.Insert(v); err != nil {
		t.Fatalf("Insert(%v): %v", v.Range, err)
	}
	return v
}

func TestProtBits(t *testing.T) {
	p := ProtRead | ProtWrite
	if !p.CanRead() || !p.CanWrite() {
		t.Error("prot bits broken")
	}
	if (ProtRead).CanWrite() {
		t.Error("read-only prot reports writable")
	}
}

func TestInsertAndFind(t *testing.T) {
	var s Set
	a := mustInsert(t, &s, 0x10000, 0x4000, ProtRead|ProtWrite)
	b := mustInsert(t, &s, 0x20000, 0x1000, ProtRead)
	if got := s.Find(0x11000); got != a {
		t.Errorf("Find in a = %v", got)
	}
	if got := s.Find(0x20000); got != b {
		t.Errorf("Find in b = %v", got)
	}
	if got := s.Find(0x14000); got != nil {
		t.Errorf("Find past a = %v, want nil", got)
	}
	if got := s.Find(0x8000); got != nil {
		t.Errorf("Find below = %v, want nil", got)
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d", s.Len())
	}
	if err := s.Validate(); err != nil {
		t.Error(err)
	}
}

func TestInsertRejections(t *testing.T) {
	var s Set
	mustInsert(t, &s, 0x10000, 0x4000, ProtRead)
	cases := []struct {
		start addr.V
		size  uint64
	}{
		{0x10000, 0x1000}, // exact overlap
		{0xe000, 0x4000},  // tail overlap
		{0x13000, 0x4000}, // head overlap
		{0x11000, 0x1000}, // contained
		{0x8000, 0x20000}, // contains
		{0x30001, 0x1000}, // unaligned start
		{0x30000, 0x1001}, // unaligned size is OK? end unaligned
		{0x40000, 0},      // empty
	}
	for _, c := range cases {
		v := &VMA{Range: addr.NewRange(c.start, c.size)}
		if err := s.Insert(v); err == nil {
			t.Errorf("Insert(%v, %#x) succeeded, want error", c.start, c.size)
		}
	}
}

func TestInsertOrdering(t *testing.T) {
	var s Set
	mustInsert(t, &s, 0x30000, 0x1000, ProtRead)
	mustInsert(t, &s, 0x10000, 0x1000, ProtRead)
	mustInsert(t, &s, 0x20000, 0x1000, ProtRead)
	all := s.All()
	for i := 1; i < len(all); i++ {
		if all[i-1].Range.Start >= all[i].Range.Start {
			t.Fatalf("set not sorted: %v", s.String())
		}
	}
}

func TestOverlapping(t *testing.T) {
	var s Set
	mustInsert(t, &s, 0x10000, 0x1000, ProtRead)
	mustInsert(t, &s, 0x12000, 0x1000, ProtRead)
	mustInsert(t, &s, 0x20000, 0x1000, ProtRead)
	got := s.Overlapping(addr.NewRange(0x10800, 0x2000))
	if len(got) != 2 {
		t.Fatalf("Overlapping = %d VMAs, want 2", len(got))
	}
	if !s.MapsAnyIn(addr.NewRange(0x10800, 0x100)) {
		t.Error("MapsAnyIn false for mapped range")
	}
	if s.MapsAnyIn(addr.NewRange(0x11000, 0x1000)) {
		t.Error("MapsAnyIn true for gap")
	}
}

func TestRemoveRangeExact(t *testing.T) {
	var s Set
	mustInsert(t, &s, 0x10000, 0x4000, ProtRead)
	removed := s.RemoveRange(addr.NewRange(0x10000, 0x4000))
	if len(removed) != 1 || removed[0].Range.Size() != 0x4000 {
		t.Fatalf("removed = %v", removed)
	}
	if s.Len() != 0 {
		t.Errorf("set not empty: %s", s.String())
	}
}

func TestRemoveRangeSplitsMiddle(t *testing.T) {
	var s Set
	v := mustInsert(t, &s, 0x10000, 0x6000, ProtRead|ProtWrite)
	v.FileOff = 0 // anonymous
	removed := s.RemoveRange(addr.NewRange(0x12000, 0x2000))
	if len(removed) != 1 {
		t.Fatalf("removed %d pieces", len(removed))
	}
	if removed[0].Range != addr.NewRange(0x12000, 0x2000) {
		t.Errorf("removed range = %v", removed[0].Range)
	}
	if s.Len() != 2 {
		t.Fatalf("split produced %d VMAs: %s", s.Len(), s.String())
	}
	left, right := s.All()[0], s.All()[1]
	if left.Range != addr.NewRange(0x10000, 0x2000) {
		t.Errorf("left = %v", left.Range)
	}
	if right.Range != addr.NewRange(0x14000, 0x2000) {
		t.Errorf("right = %v", right.Range)
	}
	if left.Prot != v.Prot || right.Prot != v.Prot {
		t.Error("split lost protection")
	}
	if err := s.Validate(); err != nil {
		t.Error(err)
	}
}

type fakeBacking struct{ name string }

func (f *fakeBacking) BackingName() string           { return f.name }
func (f *fakeBacking) PageAt(uint64) ([]byte, error) { return nil, nil }

func TestRemoveRangePreservesFileOffset(t *testing.T) {
	var s Set
	b := &fakeBacking{name: "f"}
	v := &VMA{
		Range:   addr.NewRange(0x10000, 0x6000),
		Prot:    ProtRead,
		Backing: b,
		FileOff: 0x1000,
	}
	if err := s.Insert(v); err != nil {
		t.Fatal(err)
	}
	removed := s.RemoveRange(addr.NewRange(0x12000, 0x1000))
	if got := removed[0].FileOff; got != 0x3000 {
		t.Errorf("removed FileOff = %#x, want 0x3000", got)
	}
	right := s.All()[1]
	if got := right.FileOff; got != 0x4000 {
		t.Errorf("right FileOff = %#x, want 0x4000", got)
	}
	if !v.Anonymous() == false {
		t.Error("file-backed VMA reports anonymous")
	}
}

func TestRemoveRangeAcrossMultiple(t *testing.T) {
	var s Set
	mustInsert(t, &s, 0x10000, 0x2000, ProtRead)
	mustInsert(t, &s, 0x13000, 0x2000, ProtRead)
	mustInsert(t, &s, 0x16000, 0x2000, ProtRead)
	removed := s.RemoveRange(addr.NewRange(0x11000, 0x6000))
	if len(removed) != 3 {
		t.Fatalf("removed %d pieces, want 3", len(removed))
	}
	if s.Len() != 2 {
		t.Fatalf("kept %d VMAs, want 2: %s", s.Len(), s.String())
	}
	if err := s.Validate(); err != nil {
		t.Error(err)
	}
}

func TestRemoveRangeNoOverlap(t *testing.T) {
	var s Set
	mustInsert(t, &s, 0x10000, 0x1000, ProtRead)
	if removed := s.RemoveRange(addr.NewRange(0x20000, 0x1000)); len(removed) != 0 {
		t.Errorf("removed %v from gap", removed)
	}
	if s.Len() != 1 {
		t.Error("gap removal changed set")
	}
}

func TestClearAndClone(t *testing.T) {
	var s Set
	mustInsert(t, &s, 0x10000, 0x1000, ProtRead)
	mustInsert(t, &s, 0x20000, 0x2000, ProtRead|ProtWrite)
	c := s.Clone()
	if c.Len() != 2 || c.TotalBytes() != 0x3000 {
		t.Fatalf("clone wrong: %s", c.String())
	}
	// Mutating the clone must not affect the original.
	c.RemoveRange(addr.NewRange(0x10000, 0x1000))
	if s.Len() != 2 {
		t.Error("clone mutation leaked into original")
	}
	dropped := s.Clear()
	if len(dropped) != 2 || s.Len() != 0 {
		t.Error("Clear failed")
	}
}

func TestFindGap(t *testing.T) {
	var s Set
	mustInsert(t, &s, 0x10000, 0x2000, ProtRead)
	mustInsert(t, &s, 0x14000, 0x2000, ProtRead)
	got, ok := s.FindGap(0x10000, 0x2000, 0x100000)
	if !ok || got != 0x12000 {
		t.Errorf("FindGap = %#x, %v; want 0x12000", uint64(got), ok)
	}
	got, ok = s.FindGap(0x10000, 0x3000, 0x100000)
	if !ok || got != 0x16000 {
		t.Errorf("FindGap large = %#x, %v; want 0x16000", uint64(got), ok)
	}
	if _, ok := s.FindGap(0x10000, 0x1000, 0x11000); ok {
		t.Error("FindGap past limit succeeded")
	}
}

func TestVMAString(t *testing.T) {
	v := &VMA{Range: addr.NewRange(0x1000, 0x1000), Prot: ProtRead | ProtWrite, Flags: MapHuge}
	s := v.String()
	if s == "" {
		t.Error("empty VMA string")
	}
}

// Property: random insert/remove sequences keep the set valid and the
// total mapped bytes consistent.
func TestQuickSetConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var s Set
		mapped := make(map[addr.V]bool) // page -> mapped
		const maxPage = 256
		for op := 0; op < 100; op++ {
			start := addr.V(rng.Intn(maxPage)) * addr.PageSize
			npages := uint64(rng.Intn(8) + 1)
			r := addr.NewRange(start, npages*addr.PageSize)
			if rng.Intn(2) == 0 {
				v := &VMA{Range: r, Prot: ProtRead}
				if err := s.Insert(v); err == nil {
					for p := r.Start; p < r.End; p += addr.PageSize {
						mapped[p] = true
					}
				}
			} else {
				s.RemoveRange(r)
				for p := r.Start; p < r.End; p += addr.PageSize {
					delete(mapped, p)
				}
			}
			if err := s.Validate(); err != nil {
				return false
			}
		}
		if s.TotalBytes() != uint64(len(mapped))*addr.PageSize {
			return false
		}
		for p := addr.V(0); p < maxPage*addr.PageSize; p += addr.PageSize {
			if (s.Find(p) != nil) != mapped[p] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
