package main

import (
	"encoding/binary"
	"errors"
	"net"
	"strings"
	"sync"
	"time"

	"repro/internal/apps/serve"
)

// The open-loop generator. It differs from internal/slo's generator in
// the ways an honest benchmark needs: every request is sent on its
// schedule whether or not earlier replies have arrived (requests
// pipeline on a connection), an application error or a transport error
// is a failed request rather than a latency sample or an aborted run,
// and pacing blocks on a timer instead of spinning so the generator
// does not take a core from the server.

// genReq is one generated request: which tenant's lane (tenant mode
// only), which key, and whether it writes.
type genReq struct {
	tenant uint32
	key    int
	set    bool
}

// record is the fate of one scheduled request.
type record struct {
	req   genReq
	op    uint64 // trace op id (0 when untraced)
	sched time.Time
	sent  time.Time
	recv  time.Time
	fail  string // "" for a verified success, else the failure class
}

// latencyUS is the time from the scheduled send to the reply.
func (r *record) latencyUS() float64 { return float64(r.recv.Sub(r.sched)) / 1e3 }

// lateUS is how late the generator sent the request.
func (r *record) lateUS() float64 { return float64(r.sent.Sub(r.sched)) / 1e3 }

// genConfig describes one open-loop phase.
type genConfig struct {
	addr   string
	conns  int
	rate   float64 // total requests per second across connections
	dur    time.Duration
	tenant bool // frame requests with TenantBinaryCodec
	// next returns connection conn's request stream.
	next func(conn int) func() genReq
	// payload builds the kv request payload for r.
	payload func(r genReq) []byte
	// verify checks a GET hit's value for r.
	verify func(r genReq, val []byte) bool
	// tr, when set, gives every request an op id carried in its bytes.
	tr *tracer
}

// schedule returns the send times of one connection: isochronous at
// rate/conns, connections phase-shifted evenly.
func schedule(start time.Time, conn, conns int, rate float64, dur time.Duration) []time.Time {
	interval := time.Duration(float64(conns) / rate * float64(time.Second))
	offset := interval * time.Duration(conn) / time.Duration(conns)
	var out []time.Time
	for t := offset; t < dur; t += interval {
		out = append(out, start.Add(t))
	}
	return out
}

// runOpenLoop drives one phase and returns every scheduled request's
// record. It returns an error only when it cannot set up a connection
// or its pacer; anything later is a failed request.
func runOpenLoop(cfg genConfig) ([]record, error) {
	conns := make([]net.Conn, cfg.conns)
	for i := range conns {
		c, err := net.Dial("tcp", cfg.addr)
		if err != nil {
			for _, o := range conns[:i] {
				o.Close()
			}
			return nil, err
		}
		conns[i] = c
	}
	paces := make([]*pacer, cfg.conns)
	for i := range paces {
		p, err := newPacer()
		if err != nil {
			for _, c := range conns {
				c.Close()
			}
			for _, o := range paces[:i] {
				o.close()
			}
			return nil, err
		}
		paces[i] = p
	}
	start := time.Now().Add(2 * time.Millisecond)
	scheds := make([][]time.Time, cfg.conns)
	total := 0
	for i := range scheds {
		scheds[i] = schedule(start, i, cfg.conns, cfg.rate, cfg.dur)
		total += len(scheds[i])
	}
	all := make([]record, total)
	rest := all
	var wg sync.WaitGroup
	for i := range conns {
		sched := scheds[i]
		recs := rest[:len(sched):len(sched)]
		rest = rest[len(sched):]
		next := cfg.next(i)
		for j := range recs {
			recs[j].req = next()
			recs[j].sched = sched[j]
			if cfg.tr != nil {
				recs[j].op = uint64(i)<<40 | uint64(j+1)
			}
		}
		wg.Add(1)
		go func(c net.Conn, pace *pacer, recs []record) {
			defer wg.Done()
			defer c.Close()
			defer pace.close()
			runConn(c, pace, cfg, recs, start.Add(cfg.dur+10*time.Second))
		}(conns[i], paces[i], recs)
	}
	wg.Wait()
	return all, nil
}

// runConn sends recs on c at their scheduled times from this goroutine
// while a reader goroutine matches replies in order.
func runConn(c net.Conn, pace *pacer, cfg genConfig, recs []record, deadline time.Time) {
	_ = c.SetDeadline(deadline) // a hung server fails the remaining requests instead of the run
	br, bw := serve.NewReader(c), serve.NewWriter(c)
	codec := serve.Codec(serve.BinaryCodec{})
	// Sized to the number of sends: the writer never blocks on the
	// reader, which is what keeps the loop open.
	inflight := make(chan *record, len(recs))
	var rwg sync.WaitGroup
	rwg.Add(1)
	go func() {
		defer rwg.Done()
		broken := false
		for r := range inflight {
			if broken {
				r.fail = "transport"
				continue
			}
			resp, flags, err := codec.ReadResponse(br)
			r.recv = time.Now()
			switch {
			case err != nil:
				broken = true
				r.fail = "transport"
			case flags&serve.FlagAppError != 0:
				r.fail = classifyAppError(string(resp))
			default:
				r.fail = checkKV(cfg, r.req, resp)
			}
		}
	}()
	var werr error
	for i := range recs {
		r := &recs[i]
		if werr == nil {
			werr = pace.sleepUntil(r.sched)
		}
		if werr == nil {
			r.sent = time.Now()
			payload := cfg.payload(r.req)
			if r.op != 0 {
				payload = withOpID(r.op, payload)
			}
			if cfg.tenant {
				werr = serve.TenantBinaryCodec{Tenant: r.req.tenant}.WriteRequest(bw, payload)
			} else {
				werr = codec.WriteRequest(bw, payload)
			}
			if werr == nil {
				werr = bw.Flush()
			}
		}
		if werr != nil {
			r.sent = time.Now()
			r.recv = r.sent
			r.fail = "transport"
			continue
		}
		inflight <- r
	}
	close(inflight)
	rwg.Wait()
}

// checkKV validates a kv response: SETs must succeed, GETs must hit
// (every key is populated) with exactly the generator's value.
func checkKV(cfg genConfig, r genReq, resp []byte) string {
	status, val, err := serve.DecodeKVResponse(resp)
	if err != nil || status != serve.StatusOK {
		return "verify"
	}
	if !r.set && !cfg.verify(r, val) {
		return "verify"
	}
	return ""
}

// classifyAppError maps an application error's text (all the client
// sees) to a failure class.
func classifyAppError(msg string) string {
	switch {
	case strings.Contains(msg, "quota exceeded"):
		return "quota"
	case strings.Contains(msg, "out of memory"):
		return "nomem"
	default:
		return "app"
	}
}

// withOpID prefixes a request payload with its trace op id; opApp
// strips it server-side before the real Handle sees the request.
func withOpID(op uint64, payload []byte) []byte {
	p := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint64(p, op)
	copy(p[8:], payload)
	return p
}

// errShortOpID reports a traced request too short to carry its op id.
var errShortOpID = errors.New("perfbench: request shorter than its op id")

// stripOpID removes the op id that withOpID put at offset off.
func stripOpID(req []byte, off int) (uint64, []byte, error) {
	if len(req) < off+8 {
		return 0, nil, errShortOpID
	}
	op := binary.LittleEndian.Uint64(req[off:])
	out := make([]byte, 0, len(req)-8)
	out = append(out, req[:off]...)
	return op, append(out, req[off+8:]...), nil
}
