package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/apps/kvstore"
	"repro/internal/apps/serve"
	"repro/internal/core"
	"repro/internal/kernel"
)

// kv-snapshot: the paper's Redis case (§5.3.3). One store in a 256 MiB
// arena serves an open loop over loopback TCP while a BGSAVE-style
// loop forks it every 40 ms.
const (
	kvArenaBytes = 256 << 20
	kvKeys       = 5000
	kvValueLen   = 1024
	kvTableCap   = 16384
	kvRate       = 480 // requests per second, all connections
	kvConns      = 2
	kvSetPct     = 20
	kvSnapEvery  = 40 * time.Millisecond
	kvWarmup     = 1000 // in-process requests before the instance is ready
	// forkBand widens a fork window: requests just after a fork pay
	// its deferred PTE-table and page copies.
	forkBand = time.Millisecond
)

// fillValue writes the value a key holds under (seed, space, key): any
// GET hit can be checked against it. space separates tenants, or
// versions of a key.
func fillValue(buf []byte, seed int64, space uint32, key int) {
	x := uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(space)<<40 ^ uint64(key)
	var w [8]byte
	for i := 0; i < len(buf); i += 8 {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		binary.LittleEndian.PutUint64(w[:], z^z>>31)
		copy(buf[i:], w[:])
	}
}

func value(seed int64, space uint32, key, n int) []byte {
	b := make([]byte, n)
	fillValue(b, seed, space, key)
	return b
}

// values returns the values of keys 0..n-1 under (seed, space), made
// once so that neither SETs nor GET checks regenerate them per request.
func values(seed int64, space uint32, n, valueLen int) [][]byte {
	vals := make([][]byte, n)
	for i := range vals {
		vals[i] = value(seed, space, i, valueLen)
	}
	return vals
}

// populate loads every key of vals through the app's public Handle.
func populate(app serve.App, vals [][]byte) error {
	for i, v := range vals {
		resp, err := app.Handle(serve.EncodeSet(kvstore.Key(i), v))
		if err != nil {
			return fmt.Errorf("populate key %d: %w", i, err)
		}
		if len(resp) != 1 || resp[0] != serve.StatusOK {
			return fmt.Errorf("populate key %d: status %v", i, resp)
		}
	}
	return nil
}

type kvBench struct {
	seed  int64
	k     *kernel.Kernel
	app   *serve.KVApp
	vals  [][]byte // every key's value; SETs rewrite the same bytes
	phase int64
}

func setupKV(seed int64) (bench, error) {
	k := kernel.New()
	app, err := serve.NewKV(k, serve.KVConfig{Config: kvstore.Config{
		ArenaBytes: kvArenaBytes, TableCap: kvTableCap, Mode: core.ForkOnDemand,
	}})
	if err != nil {
		return nil, err
	}
	b := &kvBench{seed: seed, k: k, app: app, vals: values(seed, 0, kvKeys, kvValueLen)}
	if err := populate(app, b.vals); err != nil {
		app.Close()
		return nil, err
	}
	next := b.requests(-1)(0)
	for i := 0; i < kvWarmup; i++ {
		r := next()
		resp, err := app.Handle(b.payload(r))
		if err != nil {
			app.Close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		if checkKV(b.gen(""), r, resp) != "" {
			app.Close()
			return nil, fmt.Errorf("warm-up: key %d failed verification", r.key)
		}
	}
	return b, nil
}

// requests returns the seeded request stream of each connection in a
// phase: uniform keys, kvSetPct% SETs.
func (b *kvBench) requests(phase int64) func(conn int) func() genReq {
	return func(conn int) func() genReq {
		rng := rand.New(rand.NewSource(b.seed*1_000_003 + phase*1_009 + int64(conn)))
		return func() genReq {
			return genReq{key: rng.Intn(kvKeys), set: rng.Intn(100) < kvSetPct}
		}
	}
}

func (b *kvBench) payload(r genReq) []byte {
	if r.set {
		return serve.EncodeSet(kvstore.Key(r.key), b.vals[r.key])
	}
	return serve.EncodeGet(kvstore.Key(r.key))
}

func (b *kvBench) gen(addr string) genConfig {
	return genConfig{
		addr: addr, conns: kvConns, rate: kvRate,
		payload: b.payload,
		verify: func(r genReq, val []byte) bool {
			return bytes.Equal(val, b.vals[r.key])
		},
	}
}

func (b *kvBench) measure(d time.Duration, tr *tracer) (*outcome, error) {
	b.phase++
	var app serve.App = b.app
	var wrap *opApp
	if tr != nil {
		wrap = newOpApp(b.app, 0, tr)
		app = wrap
	}
	srv, err := serve.Listen(app, serve.BinaryCodec{}, "")
	if err != nil {
		return nil, err
	}
	c0, g0 := kernelCounts(b.k), readHost()
	loop := startSnapshots(b.k, b.app, tr)
	cfg := b.gen(srv.Addr())
	cfg.dur, cfg.next, cfg.tr = d, b.requests(b.phase), tr
	recs, err := runOpenLoop(cfg)
	snaps := loop.finish()
	srv.Close()
	if err != nil {
		return nil, err
	}
	out := newOutcome()
	out.elapsed = d
	addRequests(out, recs, wrap, tr, "kv.request")
	out.counts = kernelCounts(b.k).sub(c0)
	out.host = hostSince(g0)
	snaps.addTo(out, recs)
	return out, nil
}

func (b *kvBench) close() error {
	b.app.Close()
	return checkClean(b.k)
}

func (b *kvBench) kernel() *kernel.Kernel { return b.k }

// checkClean is the teardown check: with every process gone the
// kernel's invariants hold and no process or frame is left.
func checkClean(k *kernel.Kernel) error {
	k.SetSwapEnabled(false)
	if err := k.CheckInvariants(); err != nil {
		return err
	}
	if n := k.NumProcesses(); n != 0 {
		return fmt.Errorf("%d processes leaked", n)
	}
	if n := k.Allocator().Allocated(); n != 0 {
		return fmt.Errorf("%d frames leaked", n)
	}
	return nil
}

// addRequests folds an open-loop phase's records into out: latencies
// of verified successes, failures by class, generator lateness, and in
// a traced phase the root span per request plus the server-side split.
func addRequests(out *outcome, recs []record, wrap *opApp, tr *tracer, root string) {
	var handles map[uint64]handleRec
	if wrap != nil {
		handles = wrap.records()
	}
	for i := range recs {
		r := &recs[i]
		if r.fail != "" {
			out.fail(r.fail)
			continue
		}
		lat := r.latencyUS()
		out.ok(lat)
		out.timings["gen.late"] = append(out.timings["gen.late"], r.lateUS())
		if tr == nil {
			continue
		}
		tr.root(root, r.op, r.sched, r.recv)
		tr.add("gen.late", r.op, r.op, r.sched, r.sent)
		h, ok := handles[r.op]
		if !ok {
			continue
		}
		hd := float64(h.end.Sub(h.start)) / 1e3
		out.timings["serve.handle"] = append(out.timings["serve.handle"], hd)
		out.timings["serve.outside"] = append(out.timings["serve.outside"], lat-hd)
		kv := "kvstore.get"
		if h.set {
			kv = "kvstore.set"
		}
		out.timings[kv] = append(out.timings[kv], hd-float64(h.forkPause)/1e3)
		if h.forkPause > 0 {
			out.timings["fork.pause"] = append(out.timings["fork.pause"], float64(h.forkPause)/1e3)
		}
	}
}

// handleRec is the server-side view of one traced request.
type handleRec struct {
	start, end time.Time
	set        bool
	forkPause  time.Duration // clone fork of a serverless invocation
}

// opApp wraps the served App in a traced phase: it strips the op id the
// client put at byte off of each request, times the real Handle, and
// records a span under the client's root span. Untraced phases serve
// the App unwrapped.
type opApp struct {
	serve.App
	off int
	tr  *tracer
	// lanes, when set, is the dispatcher whose lane fork times give each
	// invocation's clone fork pause.
	lanes *serve.Dispatcher
	seen  map[uint32]int

	mu   sync.Mutex
	recs map[uint64]handleRec
}

func newOpApp(app serve.App, off int, tr *tracer) *opApp {
	return &opApp{App: app, off: off, tr: tr, seen: map[uint32]int{}, recs: map[uint64]handleRec{}}
}

func (a *opApp) Handle(req []byte) ([]byte, error) {
	op, inner, err := stripOpID(req, a.off)
	if err != nil {
		return nil, err
	}
	h := handleRec{set: len(inner) > a.off && inner[a.off] == 'S'}
	h.start = time.Now()
	resp, herr := a.App.Handle(inner)
	h.end = time.Now()
	id := a.tr.add("serve.handle", op, op, h.start, h.end)
	if a.lanes != nil {
		// Handle calls are serialized by the server, so the newest fork
		// time of this tenant's lane is this request's.
		tenant := binary.LittleEndian.Uint32(inner)
		if l := a.lanes.Lane(tenant); l != nil {
			if n := l.ForkTimes.N(); n > a.seen[tenant] {
				a.seen[tenant] = n
				ms := l.ForkTimes.Values()[n-1]
				h.forkPause = time.Duration(ms * float64(time.Millisecond))
				// Only the pause length is known; the fork follows
				// admission at the start of the invocation.
				a.tr.add("fork.pause", op, id, h.start, h.start.Add(h.forkPause))
			}
		}
	}
	a.mu.Lock()
	a.recs[op] = h
	a.mu.Unlock()
	return resp, herr
}

func (a *opApp) records() map[uint64]handleRec {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.recs
}

// snapLoop forks the store BGSAVE-style: every kvSnapEvery, at most
// one child at a time, each child's serializer running to exit before
// the next fork.
type snapLoop struct {
	stop chan struct{}
	done chan struct{}
	res  snapResult
}

type snapResult struct {
	windows []interval // fork pauses, ns since the Unix epoch
	pauses  []float64  // µs
	childMS []float64
	starts  []time.Time
	fails   int
}

func startSnapshots(k *kernel.Kernel, app serve.App, tr *tracer) *snapLoop {
	s := &snapLoop{stop: make(chan struct{}), done: make(chan struct{})}
	base := k.NumProcesses()
	go func() {
		defer close(s.done)
		next := time.Now().Add(kvSnapEvery)
		t := time.NewTimer(time.Until(next))
		defer t.Stop()
		for seq := uint64(1); ; seq++ {
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
			t0 := time.Now()
			err := app.Snapshot()
			t1 := time.Now()
			if err != nil {
				s.res.fails++
			} else {
				// Wait for the serializer child to exit: polling the
				// process count is the public view of it, at the
				// granularity kvstore.WaitSnapshots uses.
				for k.NumProcesses() > base {
					time.Sleep(time.Millisecond)
				}
				t2 := time.Now()
				s.res.windows = append(s.res.windows, interval{t0.UnixNano(), t1.UnixNano()})
				s.res.pauses = append(s.res.pauses, float64(t1.Sub(t0))/1e3)
				s.res.childMS = append(s.res.childMS, float64(t2.Sub(t1))/1e6)
				s.res.starts = append(s.res.starts, t0)
				op := uint64(1)<<50 | seq
				tr.root("snapshot", op, t0, t2)
				tr.add("fork.pause", op, op, t0, t1)
				tr.add("snapshot.child", op, op, t1, t2)
			}
			next = t0.Add(kvSnapEvery)
			t.Reset(time.Until(next))
		}
	}()
	return s
}

func (s *snapLoop) finish() snapResult {
	close(s.stop)
	<-s.done
	return s.res
}

// addTo adds the snapshot layer to out: fork pauses, child lifetimes,
// cadence, failed forks, and the requests that overlapped a fork
// window widened by forkBand.
func (r snapResult) addTo(out *outcome, recs []record) {
	out.timings["fork.pause"] = append(out.timings["fork.pause"], r.pauses...)
	out.timings["snapshot.child_ms"] = r.childMS
	for i := 0; i < r.fails; i++ {
		out.fail("snapshot")
	}
	if n := len(r.starts); n > 1 {
		out.values["snapshot.cadence_ms"] = float64(r.starts[n-1].Sub(r.starts[0])) / 1e6 / float64(n-1)
	}
	for i := range recs {
		rec := &recs[i]
		if rec.fail != "" {
			continue
		}
		from, to := rec.sched.UnixNano(), rec.recv.UnixNano()
		for _, w := range r.windows {
			if from <= w.end+int64(forkBand) && to >= w.start {
				out.timings["forkwin"] = append(out.timings["forkwin"], rec.latencyUS())
				break
			}
		}
	}
}
