package slo

import (
	"fmt"
	"net"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/apps/serve"
	"repro/internal/metrics"
)

// ForkLog records snapshot-fork windows so the generator can tag
// samples whose scheduled-send→receive window overlapped a fork. The
// harness brackets every fork it drives with Begin/End; the generator
// queries Overlaps per sample. On a single-CPU host this client-side
// window test is the reliable way to attribute fork pauses: a fork
// that delays a request usually runs to completion while the client
// goroutine is parked, so sampling "is a fork in flight right now"
// at send or receive almost never fires.
type ForkLog struct {
	// Band extends every fork window past its End by this much. The
	// fork syscall returning does not end fork-attributable cost: for
	// on-demand fork the page-table copies are deferred to the writes
	// that follow, and for classic fork requests queued behind the
	// pause are still draining — both land in the just-after window.
	Band time.Duration

	mu    sync.Mutex
	spans []forkSpan
	cur   time.Time // zero when no fork is in flight
}

type forkSpan struct{ start, end time.Time }

// Begin marks a fork starting now.
func (l *ForkLog) Begin() {
	l.mu.Lock()
	l.cur = time.Now()
	l.mu.Unlock()
}

// End closes the window opened by the last Begin.
func (l *ForkLog) End() {
	l.mu.Lock()
	l.spans = append(l.spans, forkSpan{l.cur, time.Now()})
	l.cur = time.Time{}
	l.mu.Unlock()
}

// Len returns the number of completed fork windows.
func (l *ForkLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.spans)
}

// Overlaps reports whether [from, to] intersects any fork window,
// including a fork still in flight.
func (l *ForkLog) Overlaps(from, to time.Time) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.cur.IsZero() && !l.cur.After(to) {
		return true
	}
	// Recent spans are the only candidates: scan from the tail.
	for i := len(l.spans) - 1; i >= 0; i-- {
		s := l.spans[i]
		if s.end.Add(l.Band).Before(from) {
			return false
		}
		if !s.start.After(to) {
			return true
		}
	}
	return false
}

// WorstSample is one of the exact worst-N requests of a run.
type WorstSample struct {
	LatencyUS      float64 `json:"latency_us"`
	ForkCoincident bool    `json:"fork_coincident"`
	Conn           int     `json:"conn"`
	Seq            int     `json:"seq"`
}

// WorstN is how many exact worst samples a run keeps.
const WorstN = 10

// Config parameterizes one generator run against a serve.Server.
type Config struct {
	Addr  string
	Codec serve.Codec
	// NewRequest returns conn c's request generator; seq is the
	// request index on that connection.
	NewRequest func(conn int) func(seq int) []byte
	Conns      int
	// Rate is the aggregate offered rate in requests/second across all
	// connections, issued at fixed isochronous intervals. <= 0 sends
	// each request as soon as the previous response arrives (closed
	// loop) — the calibration regime.
	Rate float64
	// Requests is the total measured request count (split across conns).
	Requests int
	// Warmup is the per-connection unmeasured priming request count.
	Warmup int
	// Forks enables fork-window tagging when non-nil.
	Forks *ForkLog
	// Epoch, when non-nil, is the serving process's snapshot epoch
	// probe (odd while a fork is in flight); sampled before send and
	// after receive as a second tagging signal.
	Epoch func() uint64
}

// Summary is one generator run's outcome.
type Summary struct {
	Offered  float64 // requests/second offered (0 when closed-loop)
	Achieved float64 // requests/second completed
	Elapsed  time.Duration
	All      metrics.HistogramSnapshot // every sample
	Fork     metrics.HistogramSnapshot // samples whose window overlapped a fork
	Quiet    metrics.HistogramSnapshot // the rest
	Worst    []WorstSample
}

// Run drives the configured load and returns the merged summary.
func Run(cfg Config) (*Summary, error) {
	if cfg.Conns <= 0 {
		cfg.Conns = 1
	}
	perConn := cfg.Requests / cfg.Conns
	if perConn == 0 {
		return nil, fmt.Errorf("slo: %d requests across %d conns leaves empty connections", cfg.Requests, cfg.Conns)
	}
	var interarrival time.Duration
	if cfg.Rate > 0 {
		interarrival = time.Duration(float64(time.Second) / cfg.Rate * float64(cfg.Conns))
	}

	// The connections record into shared atomic histograms; only the
	// exact worst-N lists are kept per connection and merged.
	var all, fork, quiet metrics.Histogram
	type connResult struct {
		worst []WorstSample
		err   error
	}
	results := make([]connResult, cfg.Conns)
	conns := make([]net.Conn, cfg.Conns)
	for c := range conns {
		conn, err := net.Dial("tcp", cfg.Addr)
		if err != nil {
			for _, pc := range conns[:c] {
				pc.Close()
			}
			return nil, fmt.Errorf("slo: dial %s: %w", cfg.Addr, err)
		}
		conns[c] = conn
		defer conn.Close()
	}

	var wg sync.WaitGroup
	start := time.Now().Add(time.Millisecond) // common epoch for all schedules
	for c := 0; c < cfg.Conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := &results[c]
			br, bw := serve.NewReader(conns[c]), serve.NewWriter(conns[c])
			next := cfg.NewRequest(c)
			roundTrip := func(payload []byte) (serve.ResponseFlags, error) {
				if err := cfg.Codec.WriteRequest(bw, payload); err != nil {
					return 0, err
				}
				if err := bw.Flush(); err != nil {
					return 0, err
				}
				_, flags, err := cfg.Codec.ReadResponse(br)
				return flags, err
			}
			for i := 0; i < cfg.Warmup; i++ {
				if _, err := roundTrip(next(-1 - i)); err != nil {
					r.err = fmt.Errorf("conn %d warmup: %w", c, err)
					return
				}
			}
			// Conn c's schedule is offset so the aggregate arrival
			// process is evenly interleaved.
			offset := time.Duration(0)
			if interarrival > 0 {
				offset = interarrival * time.Duration(c) / time.Duration(cfg.Conns)
			}
			for i := 0; i < perConn; i++ {
				sched := time.Now()
				if interarrival > 0 {
					sched = start.Add(offset + time.Duration(i)*interarrival)
					waitUntil(sched)
				}
				var e1 uint64
				if cfg.Epoch != nil {
					e1 = cfg.Epoch()
				}
				flags, err := roundTrip(next(i))
				if err != nil {
					r.err = fmt.Errorf("conn %d request %d: %w", c, i, err)
					return
				}
				recv := time.Now()
				tagged := flags&serve.FlagForkCoincident != 0
				if cfg.Epoch != nil {
					if e2 := cfg.Epoch(); e1&1 == 1 || e1 != e2 {
						tagged = true
					}
				}
				if cfg.Forks != nil && cfg.Forks.Overlaps(sched, recv) {
					tagged = true
				}
				lat := recv.Sub(sched)
				all.Observe(lat)
				if tagged {
					fork.Observe(lat)
				} else {
					quiet.Observe(lat)
				}
				r.worst = insertWorst(r.worst, WorstSample{
					LatencyUS:      float64(lat) / float64(time.Microsecond),
					ForkCoincident: tagged,
					Conn:           c,
					Seq:            i,
				})
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	out := &Summary{Offered: cfg.Rate, Elapsed: elapsed,
		All: all.Snapshot(), Fork: fork.Snapshot(), Quiet: quiet.Snapshot()}
	for c := range results {
		r := &results[c]
		if r.err != nil {
			return nil, r.err
		}
		for _, w := range r.worst {
			out.Worst = insertWorst(out.Worst, w)
		}
	}
	if elapsed > 0 {
		out.Achieved = float64(out.All.Count) / elapsed.Seconds()
	}
	return out, nil
}

// waitUntil holds the isochronous schedule: coarse timer sleep until
// close to the deadline, then a cooperative yield spin. Timer wakeups
// on a loaded single-CPU host are ~1ms-granular, which would put a
// milliseconds-wide client-side floor under every latency sample;
// the yield spin burns only otherwise-idle cycles (Gosched lets the
// server run) and brings send error down to scheduler-quantum scale.
func waitUntil(sched time.Time) {
	const spin = time.Millisecond
	if d := time.Until(sched); d > spin {
		time.Sleep(d - spin)
	}
	for !time.Now().After(sched) {
		runtime.Gosched()
	}
}

// insertWorst keeps ws as the WorstN largest samples, sorted
// descending by latency.
func insertWorst(ws []WorstSample, w WorstSample) []WorstSample {
	i := sort.Search(len(ws), func(i int) bool { return ws[i].LatencyUS < w.LatencyUS })
	if i >= WorstN {
		return ws
	}
	ws = append(ws, WorstSample{})
	copy(ws[i+1:], ws[i:])
	ws[i] = w
	if len(ws) > WorstN {
		ws = ws[:WorstN]
	}
	return ws
}
