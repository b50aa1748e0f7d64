package phys

import (
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/mem/addr"
	"repro/internal/metrics"
)

func TestAllocDistinctFrames(t *testing.T) {
	a := NewAllocator()
	seen := make(map[Frame]bool)
	for i := 0; i < 1000; i++ {
		f := a.Alloc()
		if !f.Valid() {
			t.Fatal("Alloc returned invalid frame")
		}
		if seen[f] {
			t.Fatalf("frame %d allocated twice", f)
		}
		seen[f] = true
	}
	if got := a.Allocated(); got != 1000 {
		t.Errorf("Allocated = %d, want 1000", got)
	}
}

func TestRefcountLifecycle(t *testing.T) {
	a := NewAllocator()
	f := a.Alloc()
	if got := a.RefCount(f); got != 1 {
		t.Fatalf("fresh refcount = %d, want 1", got)
	}
	a.Get(f)
	if got := a.RefCount(f); got != 2 {
		t.Fatalf("after Get refcount = %d, want 2", got)
	}
	a.Put(f)
	if got := a.Allocated(); got != 1 {
		t.Fatalf("freed while referenced: allocated = %d", got)
	}
	a.Put(f)
	if got := a.Allocated(); got != 0 {
		t.Fatalf("not freed at zero refcount: allocated = %d", got)
	}
}

func TestFrameReuseAfterFree(t *testing.T) {
	a := NewAllocator()
	f := a.Alloc()
	a.Put(f)
	g := a.Alloc()
	if g != f {
		t.Errorf("free list not reused: got %d, want %d", g, f)
	}
	if got := a.RefCount(g); got != 1 {
		t.Errorf("reused frame refcount = %d, want 1", got)
	}
}

func TestNegativeRefcountPanics(t *testing.T) {
	a := NewAllocator()
	f := a.Alloc()
	a.Put(f)
	defer func() {
		if recover() == nil {
			t.Error("Put below zero did not panic")
		}
	}()
	a.Put(f)
}

func TestDataLazyMaterialization(t *testing.T) {
	a := NewAllocator()
	f := a.Alloc()
	if a.DataIfPresent(f) != nil {
		t.Error("fresh frame has materialized data")
	}
	d := a.Data(f)
	if len(d) != addr.PageSize {
		t.Fatalf("data len = %d", len(d))
	}
	for _, b := range d {
		if b != 0 {
			t.Fatal("materialized data not zeroed")
		}
	}
	d[0] = 0xAA
	if got := a.Data(f)[0]; got != 0xAA {
		t.Error("data not stable across calls")
	}
}

func TestDataClearedOnFree(t *testing.T) {
	a := NewAllocator()
	f := a.Alloc()
	a.Data(f)[0] = 0xFF
	a.Put(f)
	g := a.Alloc()
	if g != f {
		t.Fatalf("expected frame reuse")
	}
	if a.DataIfPresent(g) != nil {
		t.Error("reused frame leaked previous data")
	}
}

func TestCopyPage(t *testing.T) {
	a := NewAllocator()
	src, dst := a.Alloc(), a.Alloc()
	a.Data(src)[100] = 7
	if !a.CopyPage(dst, src) {
		t.Error("nonzero copy reported elided")
	}
	if got := a.Data(dst)[100]; got != 7 {
		t.Errorf("copied byte = %d, want 7", got)
	}
	// Copy from a zero (unmaterialized) source is elided: it reports
	// false and leaves the destination logically zero without
	// materializing it.
	zsrc, zdst := a.Alloc(), a.Alloc()
	a.Data(zdst)[5] = 9
	if a.CopyPage(zdst, zsrc) {
		t.Error("zero copy not elided")
	}
	if a.DataIfPresent(zdst) != nil {
		t.Error("elided copy left destination materialized")
	}
	if got := a.Data(zdst)[5]; got != 0 {
		t.Errorf("zero-copy dest byte = %d, want 0", got)
	}
	// A materialized-but-all-zero source elides too.
	msrc, mdst := a.Alloc(), a.Alloc()
	a.Data(msrc) // materialize zeroes
	if a.CopyPage(mdst, msrc) {
		t.Error("all-zero materialized source not elided")
	}
	if !a.PageIsZero(mdst) || !a.PageIsZero(msrc) {
		t.Error("PageIsZero disagrees with elision")
	}
}

func TestCompoundPage(t *testing.T) {
	a := NewAllocator()
	head := a.AllocHuge()
	if !a.IsHuge(head) {
		t.Fatal("head not recognized as huge")
	}
	if got := a.Allocated(); got != 1<<HugeOrder {
		t.Errorf("Allocated = %d, want 512", got)
	}
	// Every tail must resolve to the head.
	for i := Frame(1); i < 1<<HugeOrder; i++ {
		if got := a.CompoundHead(head + i); got != head {
			t.Fatalf("CompoundHead(tail %d) = %d, want %d", i, got, head)
		}
	}
	if got := a.CompoundHead(head); got != head {
		t.Errorf("CompoundHead(head) = %d", got)
	}
	// Get/Put on a tail operates on the head count.
	a.Get(head + 3)
	if got := a.RefCount(head); got != 2 {
		t.Errorf("head refcount = %d, want 2", got)
	}
	a.Put(head + 100)
	a.Put(head)
	if got := a.Allocated(); got != 0 {
		t.Errorf("compound not freed: %d", got)
	}
}

func TestCompoundReuse(t *testing.T) {
	a := NewAllocator()
	h1 := a.AllocHuge()
	a.Put(h1)
	h2 := a.AllocHuge()
	if h2 != h1 {
		t.Errorf("huge free list not reused: %d vs %d", h2, h1)
	}
	if got := a.RefCount(h2); got != 1 {
		t.Errorf("reused huge refcount = %d", got)
	}
}

func TestCopyHugePage(t *testing.T) {
	a := NewAllocator()
	src, dst := a.AllocHuge(), a.AllocHuge()
	a.Data(src + 511)[4095] = 0x5A
	a.CopyHugePage(dst, src)
	if got := a.Data(dst + 511)[4095]; got != 0x5A {
		t.Errorf("huge copy lost tail byte: %d", got)
	}
}

func TestPTShareCounter(t *testing.T) {
	a := NewAllocator()
	f := a.AllocPageTable()
	if !a.IsPageTable(f) {
		t.Fatal("page-table flag missing")
	}
	a.PTShareInit(f, 1)
	if got := a.PTShareGet(f); got != 2 {
		t.Errorf("PTShareGet = %d, want 2", got)
	}
	if got := a.PTSharePut(f); got != 1 {
		t.Errorf("PTSharePut = %d, want 1", got)
	}
	if got := a.PTShareCount(f); got != 1 {
		t.Errorf("PTShareCount = %d, want 1", got)
	}
}

func TestPTShareNegativePanics(t *testing.T) {
	a := NewAllocator()
	f := a.AllocPageTable()
	a.PTShareInit(f, 0)
	defer func() {
		if recover() == nil {
			t.Error("negative share count did not panic")
		}
	}()
	a.PTSharePut(f)
}

// TestProfilerCharges checks the Figure 3 reference-count events the
// allocator charges: one RefIncs per Get or TouchRef, and one charge of
// len(frames) per GetBatch.
func TestProfilerCharges(t *testing.T) {
	m := metrics.New()
	a := NewAllocator()
	a.SetMetrics(m)
	f := a.Alloc()
	a.Get(f)
	if got := m.Alloc.RefIncs.Load(); got != 1 {
		t.Errorf("RefIncs after Get = %d, want 1", got)
	}
	a.TouchRef(f)
	if got := m.Alloc.RefIncs.Load(); got != 2 {
		t.Errorf("RefIncs after TouchRef = %d, want 2", got)
	}
	a.GetBatch([]Frame{f, f, f})
	if got := m.Alloc.RefIncs.Load(); got != 5 {
		t.Errorf("RefIncs after GetBatch of 3 = %d, want 5", got)
	}
	if got := a.RefCount(f); got != 5 {
		t.Errorf("refcount = %d, want 5", got)
	}
}

func TestStatsAndPeak(t *testing.T) {
	a := NewAllocator()
	fs := make([]Frame, 10)
	for i := range fs {
		fs[i] = a.Alloc()
	}
	for _, f := range fs {
		a.Put(f)
	}
	st := a.Stats()
	if st.Allocated != 0 {
		t.Errorf("Allocated = %d", st.Allocated)
	}
	if st.Peak != 10 {
		t.Errorf("Peak = %d, want 10", st.Peak)
	}
	// The buddy allocator grows the arena in maximal (512-frame) blocks.
	if st.Extent < 10 {
		t.Errorf("Extent = %d, want >= 10", st.Extent)
	}
	if a.Peak() != 10 {
		t.Errorf("Peak() = %d", a.Peak())
	}
}

func TestConcurrentAllocFree(t *testing.T) {
	a := NewAllocator()
	var wg sync.WaitGroup
	const workers, per = 8, 500
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := make([]Frame, 0, per)
			for i := 0; i < per; i++ {
				local = append(local, a.Alloc())
			}
			for _, f := range local {
				a.Get(f)
				a.Put(f)
				a.Put(f)
			}
		}()
	}
	wg.Wait()
	if got := a.Allocated(); got != 0 {
		t.Errorf("leak after concurrent churn: %d", got)
	}
}

// Property: any interleaving of Get/Put pairs leaves the allocator with
// zero live frames and never corrupts counts.
func TestQuickRefcountBalance(t *testing.T) {
	f := func(gets []uint8) bool {
		a := NewAllocator()
		fr := a.Alloc()
		n := 0
		for _, g := range gets {
			k := int(g % 8)
			for i := 0; i < k; i++ {
				a.Get(fr)
				n++
			}
		}
		for i := 0; i < n; i++ {
			a.Put(fr)
		}
		if a.RefCount(fr) != 1 {
			return false
		}
		a.Put(fr)
		return a.Allocated() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestChunkGrowth(t *testing.T) {
	a := NewAllocator()
	// Allocate past one chunk boundary to exercise arena growth.
	n := chunkSize + 10
	fs := make([]Frame, 0, n)
	for i := 0; i < n; i++ {
		fs = append(fs, a.Alloc())
	}
	// Metadata for high frames must be addressable and correct.
	last := fs[len(fs)-1]
	if got := a.RefCount(last); got != 1 {
		t.Errorf("high frame refcount = %d", got)
	}
	for _, f := range fs {
		a.Put(f)
	}
	if a.Allocated() != 0 {
		t.Error("leak after chunk growth churn")
	}
}

func TestInfoPanicsOnInvalid(t *testing.T) {
	a := NewAllocator()
	defer func() {
		if recover() == nil {
			t.Error("Info(NoFrame) did not panic")
		}
	}()
	a.Info(NoFrame)
}
