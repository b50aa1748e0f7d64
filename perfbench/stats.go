package main

import (
	"math"
	"sort"
)

// tailLadder is the set of percentiles the tail rule chooses from,
// highest first, in parts per 10,000 so the rule is exact.
var tailLadder = []int{9999, 9990, 9900, 9000, 5000}

// tailPercentile is the percentile rule: the highest percentile of the
// ladder that has at least ten samples beyond it, given n samples. A
// tail estimated from fewer than ten samples is one outlier wide, so it
// is never reported. It returns 0 when n < 20 (not even the median
// qualifies).
func tailPercentile(n int) float64 {
	for _, pp := range tailLadder {
		rank := (n*pp + 9999) / 10000 // nearest rank: ceil(n·p)
		if n-rank >= 10 {
			return float64(pp) / 100
		}
	}
	return 0
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// sorted, or 0 when it is empty.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// sortedCopy returns xs sorted ascending without modifying xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantiles summarises one set of exact samples.
type quantiles struct {
	n        int
	p50      float64
	p99      float64
	tailPct  float64 // the percentile rule's choice for n
	tail     float64 // the value at tailPct
	reported float64 // p99 when it has ten samples beyond it, else tail
}

func summarize(xs []float64) quantiles {
	s := sortedCopy(xs)
	q := quantiles{n: len(s)}
	if q.n == 0 {
		return q
	}
	q.p50 = percentile(s, 50)
	q.p99 = percentile(s, 99)
	q.tailPct = tailPercentile(q.n)
	q.tail = percentile(s, q.tailPct)
	q.reported = q.p99
	if q.tailPct < 99 {
		q.reported = q.tail
	}
	return q
}

// interval is a closed span of time in nanoseconds since the trace
// origin.
type interval struct{ start, end int64 }

// covered returns how much of parent the union of children covers.
// Children are clipped to parent; overlapping children count once.
func covered(parent interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total int64
	var cur interval
	open := false
	for _, c := range clipped {
		switch {
		case !open:
			cur, open = c, true
		case c.start <= cur.end:
			if c.end > cur.end {
				cur.end = c.end
			}
		default:
			total += cur.end - cur.start
			cur = c
		}
	}
	if open {
		total += cur.end - cur.start
	}
	return total
}

// selfTime is a span's duration minus the part of it its child spans
// cover.
func selfTime(parent interval, children []interval) int64 {
	return parent.end - parent.start - covered(parent, children)
}
