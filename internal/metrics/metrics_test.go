package metrics

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if got := c.Load(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	var g Gauge
	g.Set(7)
	g.Add(-3)
	if got := g.Load(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
}

func TestHistogramZeroObservations(t *testing.T) {
	var h Histogram
	s := h.Snapshot()
	if s.Count != 0 || s.SumNS != 0 || s.MaxNS != 0 || s.Counts != nil {
		t.Fatalf("empty histogram snapshot not zero: %+v", s)
	}
	if s.Mean() != 0 {
		t.Fatalf("empty Mean = %v, want 0", s.Mean())
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := s.Quantile(q); got != 0 {
			t.Fatalf("empty Quantile(%v) = %d, want 0", q, got)
		}
	}
	if b := s.Log2Buckets(); b != [HistBuckets + 1]uint64{} {
		t.Fatalf("empty histogram has log2 buckets %v", b)
	}
}

func TestHistogramBucketPlacement(t *testing.T) {
	var h Histogram
	// Sub-nanosecond and negative observations clamp into bucket 0.
	h.Observe(0)
	h.Observe(-5 * time.Nanosecond)
	h.Observe(1) // 1ns → bucket 0 ([1,2))
	h.Observe(1024)
	h.Observe(1500) // both in bucket 10 ([1024,2048))
	s := h.Snapshot()
	if s.Count != 5 {
		t.Fatalf("count = %d, want 5", s.Count)
	}
	b := s.Log2Buckets()
	if b[0] != 3 {
		t.Fatalf("bucket 0 = %d, want 3", b[0])
	}
	if b[10] != 2 {
		t.Fatalf("bucket 10 = %d, want 2", b[10])
	}
	if s.MaxNS != 1500 {
		t.Fatalf("max = %d, want 1500", s.MaxNS)
	}
	if s.SumNS != 1+1024+1500 {
		t.Fatalf("sum = %d, want %d", s.SumNS, 1+1024+1500)
	}
	if want := slotOf(1500) + 1; len(s.Counts) != want {
		t.Fatalf("counts not trimmed after the last used slot: len %d, want %d", len(s.Counts), want)
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	var h Histogram
	big := 5 * time.Second // beyond the 2^30 ns log₂ range, inside the slots'
	h.Observe(big)
	h.Observe(time.Duration(1) << 62) // beyond the slots' 2^36 ns range
	s := h.Snapshot()
	if got := s.Log2Buckets()[HistBuckets]; got != 2 {
		t.Fatalf("overflow bucket = %d, want 2", got)
	}
	if got := s.Counts[overflowSlot]; got != 1 {
		t.Fatalf("overflow slot = %d, want 1", got)
	}
	if s.MaxNS != uint64(1)<<62 {
		t.Fatalf("max = %d, want %d", s.MaxNS, uint64(1)<<62)
	}
	// A finite slot keeps 5 significant bits even past the log₂ range;
	// a rank in the overflow slot reports the recorded max, since the
	// slot has no finite upper edge.
	if got := s.Quantile(0.5); got < uint64(big) || float64(got) > float64(big)*(1+1.0/subCount) {
		t.Fatalf("p50 = %d, want within 2^-5 above %d", got, uint64(big))
	}
	if got := s.Quantile(1); got != s.MaxNS {
		t.Fatalf("overflow quantile = %d, want max %d", got, s.MaxNS)
	}
	// Rendering labels the overflow bucket +inf.
	var snap Snapshot
	snap.Fault.WriteLatency = s
	if !strings.Contains(snap.Render(), "fault.write.latency.bucket{le_ns=+inf} 2") {
		t.Fatalf("render missing +inf bucket:\n%s", snap.Render())
	}
}

// TestHistogramSlotIndexing pins the hdrhistogram layout: every value
// lands in a slot whose bounds hold it, whose upper edge is within
// 2^-5 of it, and whose predecessor lies wholly below it; every power
// of two starts a slot.
func TestHistogramSlotIndexing(t *testing.T) {
	vals := []uint64{0, 1, 31, 32, 33, 63, 64, 100, 1023, 1024, 1 << 20, 1<<36 - 1}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		vals = append(vals, uint64(rng.Int63n(1<<36)))
	}
	for _, v := range vals {
		i := slotOf(v)
		if i >= overflowSlot {
			t.Fatalf("value %d: slot %d is the overflow slot", v, i)
		}
		lo, hi := slotLow(i), slotLow(i+1)-1
		if v < lo || v > hi {
			t.Fatalf("value %d: slot %d holds [%d, %d]", v, i, lo, hi)
		}
		if float64(hi-v) > float64(v)/subCount {
			t.Fatalf("value %d: upper edge %d exceeds the error bound", v, hi)
		}
		if i > 0 && slotLow(i) <= slotLow(i-1) {
			t.Fatalf("value %d: slot %d starts at %d, not above slot %d's %d", v, i, lo, i-1, slotLow(i-1))
		}
	}
	for k := 0; k < rangeBits; k++ {
		if v := uint64(1) << k; slotLow(slotOf(v)) != v {
			t.Fatalf("2^%d does not start a slot", k)
		}
	}
	if got := slotOf(1 << rangeBits); got != overflowSlot {
		t.Fatalf("2^%d lands in slot %d, want the overflow slot", rangeBits, got)
	}
}

// TestHistogramLog2Rollup checks the exposition buckets against a
// direct log₂ count of the same values: bucket i holds the values
// below 2^(i+1) not counted by an earlier bucket.
func TestHistogramLog2Rollup(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var h Histogram
	var want [HistBuckets + 1]uint64
	for i := 0; i < 20000; i++ {
		v := uint64(rng.Int63n(1 << uint(1+rng.Intn(40))))
		if i < 64 {
			v = uint64(1)<<(i/2) - uint64(i%2) // 2^k and 2^k−1 edges
		}
		h.Observe(time.Duration(v))
		b := HistBuckets
		for j := 0; j < HistBuckets; j++ {
			if v < BucketBound(j) {
				b = j
				break
			}
		}
		want[b]++
	}
	if got := h.Snapshot().Log2Buckets(); got != want {
		t.Fatalf("log2 rollup\n got %v\nwant %v", got, want)
	}
}

// TestHistogramQuantileBoundedError is the accuracy property: over
// random populations (0, 1, 2^k±1, values past 2^30, and one overflow
// sample), every reported quantile lies between the exact order
// statistic of its rank and min(max, that statistic·(1+2^-5)).
func TestHistogramQuantileBoundedError(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(5000)
		var h Histogram
		vals := make([]uint64, 0, n+1)
		for i := 0; i < n; i++ {
			var v uint64
			switch rng.Intn(4) {
			case 0:
				v = uint64(1)<<rng.Intn(36) + uint64(rng.Intn(3)) - 1 // 2^k−1, 2^k, 2^k+1
			case 1:
				v = 1<<30 + uint64(rng.Int63n(1<<35)) // past the log₂ range
			default:
				v = uint64(rng.Int63n(1 << uint(rng.Intn(37))))
			}
			vals = append(vals, v)
		}
		if n >= 1000 {
			// One sample above every 0.999 rank: the overflow slot.
			vals = append(vals, 1<<40+uint64(rng.Intn(1000)))
		}
		for _, v := range vals {
			h.Observe(time.Duration(v))
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		s := h.Snapshot()
		for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
			rank := max(int(q*float64(len(vals))), 1)
			exact := vals[rank-1]
			got := s.Quantile(q)
			bound := min(float64(s.MaxNS), float64(exact)*(1+1.0/subCount))
			if got < exact || float64(got) > bound {
				t.Fatalf("seed %d n %d: Quantile(%v) = %d, exact %d, bound %.0f", seed, len(vals), q, got, exact, bound)
			}
		}
		if got := s.Quantile(1); got != vals[len(vals)-1] {
			t.Fatalf("seed %d: Quantile(1) = %d, want max %d", seed, got, vals[len(vals)-1])
		}
	}
}

// TestHistogramQuantileSingleObservation: with one observation every
// quantile is exactly that observation (the slot's upper edge is
// clamped to the max).
func TestHistogramQuantileSingleObservation(t *testing.T) {
	var h Histogram
	h.Observe(1500 * time.Nanosecond) // slot [1472, 1503]
	s := h.Snapshot()
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := s.Quantile(q); got != 1500 {
			t.Fatalf("single-observation Quantile(%v) = %d, want 1500", q, got)
		}
	}
}

// TestHistogramQuantileMaxClamp pins the MaxNS clamp: no quantile
// reports past the largest observation, including when every
// observation was 0 ns (MaxNS == 0).
func TestHistogramQuantileMaxClamp(t *testing.T) {
	var h Histogram
	// Two observations at the bottom of the slot [1024, 1055]: its
	// upper edge would overshoot without the clamp.
	h.Observe(1024)
	h.Observe(1025)
	s := h.Snapshot()
	if got := s.Quantile(0.99); got != 1025 {
		t.Fatalf("p99 = %d, want the slot edge 1055 clamped to max 1025", got)
	}
	if got := s.Quantile(1); got != s.MaxNS {
		t.Fatalf("p100 = %d, want max %d", got, s.MaxNS)
	}

	var z Histogram
	z.Observe(0)
	z.Observe(0)
	zs := z.Snapshot()
	if got := zs.Quantile(0.99); got != 0 {
		t.Fatalf("all-zero p99 = %d, want 0", got)
	}
}

// TestHistogramQuantileNearestRank pins the rank rule on a known
// population: rank ⌊q·n⌋ (at least 1), reported as its slot's upper
// edge.
func TestHistogramQuantileNearestRank(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Observe(time.Duration(1000 + i*10)) // 1000, 1010, …, 1990
	}
	s := h.Snapshot()
	for _, c := range []struct {
		q    float64
		want uint64
	}{
		{0, 1007},    // rank 1: 1000 in [992, 1007]
		{0.5, 1503},  // rank 50: 1490 in [1472, 1503]
		{0.99, 1983}, // rank 99: 1980 in [1952, 1983]
		{1, 1990},    // rank 100: 1990 in [1984, 2015], clamped to max
	} {
		if got := s.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%v) = %d, want %d", c.q, got, c.want)
		}
	}
}

// TestHistogramSubLengths: slot slices of different lengths subtract
// slot by slot, and the delta is trimmed again.
func TestHistogramSubLengths(t *testing.T) {
	var h Histogram
	h.Observe(100)
	prev := h.Snapshot()
	h.Observe(1 << 20)
	cur := h.Snapshot()
	d := cur.Sub(prev)
	if d.Count != 1 || d.SumNS != 1<<20 || len(d.Counts) != len(cur.Counts) || d.Counts[slotOf(100)] != 0 {
		t.Fatalf("longer − shorter: %+v", d)
	}
	if z := prev.Sub(prev); z.Count != 0 || z.Counts != nil {
		t.Fatalf("self delta not empty: %+v", z)
	}
	if got := d.Quantile(0.5); got != 1<<20 {
		t.Fatalf("delta p50 = %d, want %d", got, 1<<20)
	}
}

// TestHistogramConcurrent exercises Observe racing Snapshot; run under
// -race this proves the atomics cover every field.
func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	const (
		writers = 4
		perG    = 2000
	)
	total := func(s HistogramSnapshot) (n uint64) {
		for _, c := range s.Counts {
			n += c
		}
		return n
	}
	var writersWG, readerWG sync.WaitGroup
	stop := make(chan struct{})
	readerWG.Add(1)
	go func() { // concurrent reader
		defer readerWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := h.Snapshot()
			// count and slots are read independently, so they may
			// skew during concurrent writes, but never go negative or
			// exceed the final total.
			if n := total(s); n > writers*perG {
				t.Errorf("slot total %d exceeds writes", n)
				return
			}
		}
	}()
	for g := 0; g < writers; g++ {
		writersWG.Add(1)
		go func(g int) {
			defer writersWG.Done()
			for i := 0; i < perG; i++ {
				h.ObserveTagged(time.Duration(g*1000+i), uint64(i))
			}
		}(g)
	}
	writersWG.Wait()
	close(stop)
	readerWG.Wait()
	s := h.Snapshot()
	if s.Count != writers*perG {
		t.Fatalf("final count = %d, want %d", s.Count, writers*perG)
	}
	if n := total(s); n != writers*perG {
		t.Fatalf("final slot total = %d, want %d", n, writers*perG)
	}
}

func TestRegistryNilAndDisabled(t *testing.T) {
	var r *Registry
	if r.Enabled() {
		t.Fatal("nil registry reports enabled")
	}
	r.SetEnabled(true) // must not panic
	if s := r.Snapshot(); !reflect.DeepEqual(s, Snapshot{}) {
		t.Fatalf("nil registry snapshot not zero: %+v", s)
	}
	live := New()
	if !live.Enabled() {
		t.Fatal("fresh registry should be enabled")
	}
	live.SetEnabled(false)
	if live.Enabled() {
		t.Fatal("disable did not take")
	}
	live.SetEnabled(true)
	if !live.Enabled() {
		t.Fatal("re-enable did not take")
	}
}

func TestSnapshotSub(t *testing.T) {
	r := New()
	r.Fork.Forks[EngineOnDemand].Add(3)
	r.Fork.TablesShared.Add(100)
	r.Fault.WriteFaults.Add(7)
	r.Fault.WriteLatency.Observe(2048)
	prev := r.Snapshot()
	prev.Alloc.FramesInUse = 10

	r.Fork.Forks[EngineOnDemand].Add(2)
	r.Fork.TablesShared.Add(50)
	r.Fault.WriteFaults.Add(1)
	r.Fault.WriteLatency.Observe(4096)
	cur := r.Snapshot()
	cur.Alloc.FramesInUse = 25

	d := cur.Sub(prev)
	if d.Fork.OnDemand().Forks != 2 {
		t.Fatalf("delta forks = %d, want 2", d.Fork.OnDemand().Forks)
	}
	if d.Fork.TablesShared != 50 {
		t.Fatalf("delta tables shared = %d, want 50", d.Fork.TablesShared)
	}
	if d.Fault.WriteFaults != 1 {
		t.Fatalf("delta write faults = %d, want 1", d.Fault.WriteFaults)
	}
	if d.Fault.WriteLatency.Count != 1 || d.Fault.WriteLatency.SumNS != 4096 {
		t.Fatalf("delta write latency = %+v", d.Fault.WriteLatency)
	}
	if d.Alloc.FramesInUse != 25 {
		t.Fatalf("gauge should keep current value, got %d", d.Alloc.FramesInUse)
	}
	if d.Fork.Classic().Forks != 0 {
		t.Fatalf("untouched engine delta = %d, want 0", d.Fork.Classic().Forks)
	}
}

func TestRenderDeterministicOrder(t *testing.T) {
	var s Snapshot
	out1 := s.Render()
	out2 := s.Render()
	if out1 != out2 {
		t.Fatal("Render is not deterministic for identical snapshots")
	}
	for _, want := range []string{
		"fork.classic.forks 0",
		"fork.ondemand.forks 0",
		"fault.read.count 0",
		"alloc.frames_in_use 0",
		"tlb.hits 0",
	} {
		if !strings.Contains(out1, want) {
			t.Fatalf("render missing %q:\n%s", want, out1)
		}
	}
}

// BenchmarkHistogramObserve is the hot-path cost of one observation:
// the slot index plus four atomic operations, no allocation.
func BenchmarkHistogramObserve(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		h.Observe(time.Duration(i&0xfffff) * 37)
		i++
	}
}
