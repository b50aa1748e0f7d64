package serve

import (
	"errors"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/apps/kvstore"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/mem/addr"
	"repro/internal/mem/vm"
)

// TestStressServeSnapshotReclaim is the serving tier's race surface in
// one pot, meant for `go test -race`: concurrent TCP clients hammer
// the kv server while the timer snapshotter forks the serving process
// (its child serializers scanning the table from background
// goroutines), on-demand snapshots interleave, and kswapd reclaims
// under a tight frame limit. Afterwards: clean shutdown, no goroutine
// leaks, kernel invariants intact.
func TestStressServeSnapshotReclaim(t *testing.T) {
	k := kernel.New()
	k.SetSwapEnabled(true)
	defer k.SetSwapEnabled(false)
	// Arena pages (4096 for the 16 MiB arena) plus headroom for snapshot
	// children's COW pins; a hog process below drives free frames under
	// the low watermark. Not too tight: frames shared with live snapshot
	// children are unreclaimable, and a fork that cannot allocate fails.
	const limit = 6144
	k.Allocator().SetLimit(limit)
	t.Cleanup(func() { k.Allocator().SetLimit(0) })
	const lowWM, highWM = 1024, 1536
	if err := k.SetSwapWatermarks(lowWM, highWM); err != nil {
		t.Fatal(err)
	}

	cfg := KVConfig{
		Config: kvstore.Config{
			ArenaBytes:    1 << 24,
			TableCap:      1 << 12,
			Mode:          core.ForkOnDemand,
			SnapshotEvery: 25 * time.Millisecond,
		},
		Keys:     2000,
		ValueLen: 32,
	}
	app, err := NewKV(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Warm(); err != nil {
		t.Fatal(err)
	}
	srv, err := Listen(app, BinaryCodec{}, "")
	if err != nil {
		t.Fatal(err)
	}
	// Prime the process-wide fork worker pool (it lives for the life of
	// the process) before taking the goroutine baseline, so the leak
	// check below sees only goroutines this test is responsible for.
	if err := app.Snapshot(); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()

	const clients = 8
	const perClient = 250
	var wg sync.WaitGroup
	errCh := make(chan error, clients+1)
	stop := make(chan struct{})
	// A memory hog keeps dirtying its own arena so free frames cross the
	// low watermark and kswapd steals pages out from under the server —
	// COW breaks on the serving path reuse sole-owner frames, so snapshot
	// churn alone never sustains pressure.
	hog := k.NewProcess()
	// Size the hog from the frames actually free after warm-up: enough
	// to dip well below the low watermark, with a few hundred frames of
	// slack left so forks and COW breaks never hit hard OOM.
	hogPages := int(int64(limit)-k.Allocator().Allocated()) - 700
	if hogPages < lowWM {
		t.Fatalf("hog of %d pages cannot reach the %d-frame watermark", hogPages, lowWM)
	}
	hogBase, err := hog.Mmap(uint64(hogPages)*addr.PageSize, rwProt, vm.MapPrivate)
	if err != nil {
		t.Fatal(err)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := []byte{0xA5}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			va := hogBase + addr.V((i%hogPages)*addr.PageSize)
			if err := hog.WriteAt(buf, va); err != nil {
				errCh <- err
				return
			}
			if i%64 == 63 { // stay polite on a single-CPU host
				time.Sleep(time.Millisecond)
			}
		}
	}()

	// Serve only once the machine is in reclaim, so every request below
	// runs under memory pressure: wait for kswapd's first steal rather
	// than racing the clients against the hog.
	pressureBy := time.Now().Add(30 * time.Second)
	for rec := k.MetricsSnapshot().Reclaim; rec.PgStealKswapd+rec.PgStealDirect == 0; rec = k.MetricsSnapshot().Reclaim {
		if time.Now().After(pressureBy) {
			t.Fatal("the hog never pushed the machine into reclaim")
		}
		select {
		case err := <-errCh:
			t.Fatal(err)
		case <-time.After(time.Millisecond):
		}
	}

	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", srv.Addr())
			if err != nil {
				errCh <- err
				return
			}
			defer conn.Close()
			br, bw := newReader(conn), newWriter(conn)
			cd := BinaryCodec{}
			rng := rand.New(rand.NewSource(int64(id)))
			val := make([]byte, 32)
			for i := 0; i < perClient; i++ {
				var payload []byte
				switch rng.Intn(3) {
				case 0:
					payload = EncodeSet(kvstore.Key(rng.Intn(cfg.Keys)), val)
				case 1:
					payload = EncodeGet(kvstore.Key(rng.Intn(cfg.Keys)))
				default:
					payload = EncodeDel(kvstore.Key(rng.Intn(cfg.Keys)))
				}
				if err := cd.WriteRequest(bw, payload); err != nil {
					errCh <- err
					return
				}
				if err := bw.Flush(); err != nil {
					errCh <- err
					return
				}
				if _, flags, err := cd.ReadResponse(br); err != nil {
					errCh <- err
					return
				} else if flags&FlagAppError != 0 {
					errCh <- errors.New("stress: app error response")
					return
				}
			}
		}(c)
	}
	// On-demand snapshots interleaved with the timer's, from their own
	// goroutine (SnapshotNow is single-caller like the store itself).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(100 * time.Millisecond):
				if err := app.Snapshot(); err != nil {
					errCh <- err
					return
				}
			}
		}
	}()
	// Wait for the clients by polling served count (so a wedged client
	// surfaces its error instead of hanging wg.Wait), then stop the
	// on-demand loop and join everything.
	deadline := time.Now().Add(120 * time.Second)
	for srv.Served() < uint64(clients*perClient) && time.Now().Before(deadline) {
		select {
		case err := <-errCh:
			t.Fatal(err)
		case <-time.After(5 * time.Millisecond):
		}
	}
	if srv.Served() < uint64(clients*perClient) {
		t.Fatalf("served %d of %d requests before deadline", srv.Served(), clients*perClient)
	}
	close(stop)
	waited := make(chan struct{})
	go func() { wg.Wait(); close(waited) }()
	select {
	case <-waited:
	case <-time.After(30 * time.Second):
		t.Fatal("stress goroutines did not finish")
	}
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}

	if err := srv.Close(); err != nil {
		t.Fatalf("server close: %v", err)
	}
	snaps := app.Snapshotter().Snapshots()
	if snaps == 0 {
		t.Error("no snapshot forks during stress")
	}
	if errs := app.Snapshotter().Totals().ForkErrs; errs > 0 {
		t.Errorf("%d snapshot forks failed under memory pressure", errs)
	}
	if err := app.Close(); err != nil {
		t.Fatal(err)
	}
	hog.Exit()
	if n := k.NumProcesses(); n != 0 {
		t.Errorf("%d processes alive after close", n)
	}
	if err := k.CheckInvariants(); err != nil {
		t.Errorf("invariants after stress: %v", err)
	}
	rec := k.MetricsSnapshot().Reclaim
	if rec.PgStealKswapd+rec.PgStealDirect == 0 {
		t.Error("no pages reclaimed: the stress never reached memory pressure")
	}
	k.SetSwapEnabled(false) // retire kswapd before the leak check

	// Goroutine-leak check: everything the tier started must wind down.
	for end := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(end) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: %d -> %d\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Logf("stress: %d requests, %d snapshot forks", srv.Served(), snaps)
}
