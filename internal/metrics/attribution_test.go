package metrics

import "testing"

// TestAttributionSumsWeightsAndOrders checks the Figure 3 view of the
// counters: per-item counts summed over deltas, unit-cost weighting,
// the derived items (huge copies are 512 page copies; forks and splits
// are TLB flushes), zero items dropped, and descending-cost order.
func TestAttributionSumsWeightsAndOrders(t *testing.T) {
	var a, b Snapshot
	a.Alloc.RefIncs = 10
	a.Fork.PTEsCopied = 10
	a.Fork.Engines[EngineClassic].Forks = 1
	b.Alloc.RefIncs = 6
	b.Fault.HugeCopies = 1
	b.Fault.TableSplits = 2

	got := map[string]CostRow{}
	var total uint64
	rows := Attribution(a, b)
	for i, r := range rows {
		got[r.Name] = r
		total += r.Cost
		if i > 0 && r.Cost > rows[i-1].Cost {
			t.Errorf("row %d (%s) costs more than row %d", i, r.Name, i-1)
		}
	}
	for name, want := range map[string][2]uint64{ // {count, cost}
		"compound_head": {16, 16 * 63},
		"page_ref_inc":  {16, 16 * 29},
		"copy_one_pte":  {10, 10 * 5},
		"page_copy":     {512, 512 * 80},
		"pt_table_copy": {2, 2 * 64},
		"tlb_flush":     {3, 3 * 30},
	} {
		if r := got[name]; r.Count != want[0] || r.Cost != want[1] {
			t.Errorf("%s = %d events / %d cost, want %d / %d", name, r.Count, r.Cost, want[0], want[1])
		}
	}
	if len(rows) != 6 {
		t.Errorf("%d rows, want only the 6 charged items: %+v", len(rows), rows)
	}
	var pct float64
	for _, r := range rows {
		pct += r.Percent
	}
	if pct < 99.99 || pct > 100.01 {
		t.Errorf("percentages sum to %.3f", pct)
	}
	if rows[0].Name != "page_copy" {
		t.Errorf("top row = %s, want page_copy", rows[0].Name)
	}
}

func TestRenderAttribution(t *testing.T) {
	if got := RenderAttribution(Attribution(Snapshot{})); got != "(no profile samples)\n" {
		t.Errorf("empty attribution = %q", got)
	}
	var s Snapshot
	s.Alloc.RefIncs = 2
	want := "function                     events           cost        %\n" +
		"compound_head                     2            126   68.48%\n" +
		"page_ref_inc                      2             58   31.52%\n"
	if got := RenderAttribution(Attribution(s)); got != want {
		t.Errorf("render =\n%s\nwant\n%s", got, want)
	}
}
