package slo

import (
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/metrics"
)

// pinSamples is a fixed population: 0, 2^k−1, 2^k and 2^k+1 for
// k < 34, then log-uniform latencies from 1 µs to about 8 s.
func pinSamples() []time.Duration {
	rng := rand.New(rand.NewSource(14))
	var out []time.Duration
	for k := 0; k < 34; k++ {
		v := time.Duration(1) << k
		out = append(out, v-1, v, v+1)
	}
	for i := 0; i < 9973; i++ {
		v := time.Duration(1000) << uint(rng.Intn(22))
		out = append(out, v+time.Duration(rng.Int63n(int64(v))))
	}
	return out
}

// TestSummarizePinned pins Summarize to the figures the committed SLO
// records were computed with: the same nearest-rank rule over the same
// sub-bucket layout, the percentile divided by 100 at run time.
func TestSummarizePinned(t *testing.T) {
	samples := pinSamples()
	summarize := func(ds []time.Duration) LatencySummary {
		var h metrics.Histogram
		for _, d := range ds {
			h.Observe(d)
		}
		return Summarize(h.Snapshot())
	}
	var sub []time.Duration
	for i, d := range samples {
		if i%7 == 0 {
			sub = append(sub, d)
		}
	}
	for _, c := range []struct {
		name string
		got  LatencySummary
		want LatencySummary
	}{
		{"all", summarize(samples), LatencySummary{Count: 10075, MeanUS: 272432.1172853598,
			P50US: 1933.311, P90US: 905969.663, P99US: 3.690987519e+06, P999US: 4.227858431e+06, MaxUS: 8.589934593e+06}},
		{"every 7th", summarize(sub), LatencySummary{Count: 1440, MeanUS: 270588.3228048611,
			P50US: 1802.239, P90US: 973078.527, P99US: 3.690987519e+06, P999US: 4.227858431e+06, MaxUS: 4.294967297e+06}},
		{"1000", summarize(samples[102:1102]), LatencySummary{Count: 1000, MeanUS: 271825.193612,
			P50US: 2424.831, P90US: 889192.447, P99US: 3.690987519e+06, P999US: 4.093640703e+06, MaxUS: 4.136772999e+06}},
		{"one", summarize([]time.Duration{1234567}), LatencySummary{Count: 1, MeanUS: 1234.567,
			P50US: 1234.567, P90US: 1234.567, P99US: 1234.567, P999US: 1234.567, MaxUS: 1234.567}},
		{"empty", summarize(nil), LatencySummary{}},
	} {
		if c.got != c.want {
			t.Errorf("%s:\n got %+v\nwant %+v", c.name, c.got, c.want)
		}
	}
}

// TestWorstInsert pins the exact worst-N tracker.
func TestWorstInsert(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var ws []WorstSample
	all := make([]float64, 0, 1000)
	for i := 0; i < 1000; i++ {
		v := rng.Float64() * 1e6
		ws = insertWorst(ws, WorstSample{LatencyUS: v, Seq: i})
		all = append(all, v)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(all)))
	if len(ws) != WorstN {
		t.Fatalf("kept %d, want %d", len(ws), WorstN)
	}
	for i, w := range ws {
		if w.LatencyUS != all[i] {
			t.Fatalf("worst[%d] = %f, want %f", i, w.LatencyUS, all[i])
		}
	}
}
