package main

import (
	"encoding/binary"
	"encoding/json"
	"os"
	"testing"
	"time"

	"repro/internal/apps/serve"
	"repro/internal/kernel"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{100000, 99.99}, {99999, 99.9}, {10000, 99.9}, {9999, 99},
		{1000, 99}, {999, 90}, {100, 90}, {99, 50}, {20, 50}, {19, 0},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestSummarizeReportsTailWithCount(t *testing.T) {
	xs := make([]float64, 500)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 500 … 1, unsorted input
	}
	q := summarize(xs)
	if q.n != 500 || q.p50 != 250 || q.p99 != 495 {
		t.Fatalf("n=%d p50=%g p99=%g, want 500 250 495", q.n, q.p50, q.p99)
	}
	// 500 samples leave 5 beyond p99: the rule falls back to p90.
	if q.tailPct != 90 || q.tail != 450 || q.reported != 450 {
		t.Fatalf("tail p%g=%g reported=%g, want p90=450 reported 450", q.tailPct, q.tail, q.reported)
	}
	if xs[0] != 500 {
		t.Fatal("summarize reordered its input")
	}
}

func TestSelfTimeSubtractsCoveredUnion(t *testing.T) {
	parent := interval{0, 100}
	children := []interval{
		{10, 30}, {20, 40}, // overlap: 10..40 counts once
		{90, 120}, // clipped to 90..100
		{-5, 5},   // clipped to 0..5
		{50, 50},  // empty
	}
	if got := covered(parent, children); got != 45 {
		t.Fatalf("covered = %d, want 45", got)
	}
	if got := selfTime(parent, children); got != 55 {
		t.Fatalf("selfTime = %d, want 55", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Fatalf("selfTime without children = %d, want 100", got)
	}
}

func TestLedgerResidueIsRootSelfTime(t *testing.T) {
	spans := []span{
		{id: 7, op: 7, name: "kv.request", iv: interval{0, 10_000}},
		{id: childBit | 1, parent: 7, op: 7, name: "gen.late", iv: interval{0, 1_000}},
		{id: childBit | 2, parent: 7, op: 7, name: "serve.handle", iv: interval{4_000, 6_000}},
		// A grandchild does not reduce the root's self time twice.
		{id: childBit | 3, parent: childBit | 2, op: 7, name: "fork.pause", iv: interval{4_000, 5_000}},
		{id: 8, op: 8, name: "snapshot", iv: interval{0, 50_000}},
	}
	got := ledgerResidues(spans, "kv.request")
	if len(got) != 1 || got[0] != 7 {
		t.Fatalf("residues = %v, want [7] µs", got)
	}
	self := selfTimes(spans)
	if self[childBit|2] != 1_000 {
		t.Fatalf("serve.handle self = %d ns, want 1000", self[childBit|2])
	}
}

// stallApp answers every request, stalling on the first one.
type stallApp struct {
	first bool
	stall time.Duration
}

func (a *stallApp) Name() string { return "stall" }
func (a *stallApp) Warm() error  { return nil }
func (a *stallApp) Handle(req []byte) ([]byte, error) {
	if !a.first {
		a.first = true
		time.Sleep(a.stall)
	}
	return []byte{serve.StatusOK}, nil
}
func (a *stallApp) Snapshot() error                  { return nil }
func (a *stallApp) Snapshotter() *kernel.Snapshotter { return nil }
func (a *stallApp) Close() error                     { return nil }

// TestOpenLoopTimesFromScheduledSend checks that a stall is charged to
// the requests queued behind it: they are sent on schedule (the loop
// stays open) and their latency runs from the scheduled send.
func TestOpenLoopTimesFromScheduledSend(t *testing.T) {
	const stall = 60 * time.Millisecond
	srv, err := serve.Listen(&stallApp{stall: stall}, serve.BinaryCodec{}, "")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	recs, err := runOpenLoop(genConfig{
		addr: srv.Addr(), conns: 1, rate: 100, dur: 100 * time.Millisecond,
		next:    func(int) func() genReq { return func() genReq { return genReq{set: true} } },
		payload: func(genReq) []byte { return serve.EncodeSet([]byte("k"), []byte("v")) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 10 {
		t.Fatalf("%d requests scheduled, want 10", len(recs))
	}
	for i, r := range recs {
		if r.fail != "" {
			t.Fatalf("request %d failed: %s", i, r.fail)
		}
		if late := r.sent.Sub(r.sched); late > 20*time.Millisecond {
			t.Errorf("request %d sent %v late: the generator waited for a reply", i, late)
		}
	}
	// Request 1 was due 10 ms after request 0 and answered after the
	// 60 ms stall: about 50 ms from its schedule.
	if lat := recs[1].recv.Sub(recs[1].sched); lat < stall-15*time.Millisecond {
		t.Errorf("request 1 latency %v, want ≥ %v (timed from its scheduled send)", lat, stall-15*time.Millisecond)
	}
	if got := recs[1].latencyUS(); got != float64(recs[1].recv.Sub(recs[1].sched))/1e3 {
		t.Errorf("latencyUS = %g, not recv − sched", got)
	}
}

func TestStripOpIDRoundTrip(t *testing.T) {
	inner := serve.EncodeTenant(3, withOpID(42, serve.EncodeGet([]byte("key"))))
	op, req, err := stripOpID(inner, 4)
	if err != nil || op != 42 {
		t.Fatalf("op=%d err=%v, want 42", op, err)
	}
	want := serve.EncodeTenant(3, serve.EncodeGet([]byte("key")))
	if string(req) != string(want) {
		t.Fatalf("stripped request %q, want %q", req, want)
	}
	if _, _, err := stripOpID(make([]byte, 7), 0); err == nil {
		t.Fatal("short request accepted")
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics the
// program reports in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not present:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: %s/%s in BENCHMARK.json, %s/%s in the program",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

// mapApp is a kv App over a Go map: it leaves out the kernel and the
// store, so a phase against it costs only the generator and the serve
// tier's sockets and codec.
type mapApp struct {
	off  int // tenant id bytes in front of the kv request
	vals map[string][]byte
}

func (a *mapApp) Name() string { return "map" }
func (a *mapApp) Warm() error  { return nil }
func (a *mapApp) Handle(req []byte) ([]byte, error) {
	p := req[a.off:]
	n := int(binary.LittleEndian.Uint32(p[1:]))
	key := string(req[:a.off]) + string(p[5:5+n]) // tenants hold separate keys
	if p[0] == 'S' {
		a.vals[key] = append([]byte(nil), p[5+n:]...)
		return []byte{serve.StatusOK}, nil
	}
	return append([]byte{serve.StatusOK}, a.vals[key]...), nil
}
func (a *mapApp) Snapshot() error                  { return nil }
func (a *mapApp) Snapshotter() *kernel.Snapshotter { return nil }
func (a *mapApp) Close() error                     { return nil }

// BenchmarkGeneratorCPU reports the process CPU per request of the
// open-loop generator and the serve tier at each open-loop workload's
// rate and request mix, against mapApp: the part of cpu_us_per_op that
// is not the served system's. Run it with
//
//	go test -run '^$' -bench GeneratorCPU
func BenchmarkGeneratorCPU(b *testing.B) {
	const seed = 1
	kv := &kvBench{seed: seed, vals: values(seed, 0, kvKeys, kvValueLen)}
	sv := &svBench{seed: seed, ids: []uint32{1, 2, 3, 4, 5, 6, 7, 8}, vals: map[uint32][][]byte{}}
	for _, id := range sv.ids {
		sv.vals[id] = values(seed, id, svKeys, svValueLen)
	}
	for _, c := range []struct {
		name    string
		codec   serve.Codec
		off     int
		cfg     genConfig
		next    func(int64) func(int) func() genReq
		tenants []uint32
		keys    int
	}{
		{"kv-snapshot", serve.BinaryCodec{}, 0, kv.gen(""), kv.requests, []uint32{0}, kvKeys},
		{"serverless-pressure", serve.TenantBinaryCodec{}, 4, sv.gen(""), sv.requests, sv.ids, svKeys},
	} {
		b.Run(c.name, func(b *testing.B) {
			app := &mapApp{off: c.off, vals: map[string][]byte{}}
			for _, tn := range c.tenants {
				for key := 0; key < c.keys; key++ {
					req := c.cfg.payload(genReq{tenant: tn, key: key, set: true})
					if c.off > 0 {
						req = serve.EncodeTenant(tn, req)
					}
					app.Handle(req)
				}
			}
			srv, err := serve.Listen(app, c.codec, "")
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			var cpu time.Duration
			ops := 0
			for i := 0; i < b.N; i++ {
				cfg := c.cfg
				cfg.addr, cfg.dur, cfg.next = srv.Addr(), 2*time.Second, c.next(int64(i))
				cpu0 := processCPU()
				recs, err := runOpenLoop(cfg)
				cpu += processCPU() - cpu0
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range recs {
					if r.fail != "" {
						b.Fatalf("request failed: %s", r.fail)
					}
				}
				ops += len(recs)
			}
			b.ReportMetric(float64(cpu)/1e3/float64(ops), "cpu-us/req")
		})
	}
}
