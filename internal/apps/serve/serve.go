// Package serve is the network tier of the reproduction: it runs the
// paper's applications (the Redis-like store, the Apache-prefork
// httpd) as real TCP servers, so that snapshot forks pause request
// handling the way they pause Redis in §5.3.3 — through the server
// process's address-space lock — and the pause is observed by real
// clients over real sockets rather than inferred by a queueing model.
//
// The pieces:
//
//   - App: the unified application surface. Anything that can serve a
//     request, snapshot itself by forking, and report its Snapshotter
//     plugs into both the TCP tier (Server) and the in-process
//     experiment driver (RunLoop).
//   - Codec: the wire protocol. BinaryCodec frames length-prefixed
//     request/response payloads for the kv store; HTTPCodec speaks
//     keep-alive HTTP/1.1 for the httpd app. Both carry a per-response
//     fork-coincidence flag, the tagging instrument of the SLO
//     harness (internal/slo).
//   - Server: a TCP listener with one goroutine per connection.
//     Handling is serialized across connections — the apps are
//     single-threaded, like Redis — but the snapshotter forks on its
//     own goroutine, so a fork genuinely stalls in-flight requests.
package serve

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/kernel"
)

// App is the unified application surface of the serving tier.
//
// Handle is not required to be safe for concurrent use (the paper's
// servers are single-threaded); Server serializes calls. Snapshotter
// returns the app's snapshot engine — its fork epoch is how responses
// are tagged fork-coincident. An app multiplexing several lineages
// (Dispatcher) may return nil, in which case responses are never
// tagged.
type App interface {
	// Name identifies the app ("kv", "httpd") in results and schemas.
	Name() string
	// Warm performs the pre-experiment data load.
	Warm() error
	// Handle serves one request payload and returns the response
	// payload. A returned error is reported to the client as an
	// application-level failure; it does not tear down the server.
	Handle(req []byte) ([]byte, error)
	// Snapshot takes one on-demand snapshot (BGSAVE-style), pausing the
	// serving process for the fork's duration.
	Snapshot() error
	// Snapshotter exposes the app's snapshot engine.
	Snapshotter() *kernel.Snapshotter
	// Close stops background snapshotting and releases the app's
	// processes.
	Close() error
}

// ErrServerClosed reports an operation on a closed Server.
var ErrServerClosed = errors.New("serve: server closed")

// Server exposes an App over TCP.
type Server struct {
	app   App
	codec Codec
	ln    net.Listener

	handleMu sync.Mutex // serializes Handle across connections
	wg       sync.WaitGroup
	connMu   sync.Mutex
	conns    map[net.Conn]struct{}
	closed   atomic.Bool
	served   atomic.Uint64

	// obs, when set, tags every request with a correlation id stamped
	// onto the app's serving address space for the handling window.
	obs atomic.Pointer[Obs]
}

// SetObserver installs the request-observability hook. Safe to call
// while serving; nil detaches.
func (s *Server) SetObserver(o *Obs) { s.obs.Store(o) }

// Listen starts serving app with the given codec on addr ("" means an
// ephemeral localhost port). The returned server is accepting; stop it
// with Close.
func Listen(app App, codec Codec, addr string) (*Server, error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	s := &Server{
		app:   app,
		codec: codec,
		ln:    ln,
		conns: make(map[net.Conn]struct{}),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listening address ("127.0.0.1:port").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// App returns the application being served.
func (s *Server) App() App { return s.app }

// Served returns the number of requests answered so far.
func (s *Server) Served() uint64 { return s.served.Load() }

// Close stops accepting, closes every live connection, and waits for
// the per-connection goroutines to drain. It does not close the App.
func (s *Server) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return ErrServerClosed
	}
	err := s.ln.Close()
	s.connMu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.connMu.Unlock()
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			// Closed listener or a terminal accept error either way:
			// connections already accepted keep draining.
			return
		}
		s.connMu.Lock()
		if s.closed.Load() {
			s.connMu.Unlock()
			c.Close()
			return
		}
		s.conns[c] = struct{}{}
		s.connMu.Unlock()
		s.wg.Add(1)
		go s.serveConn(c)
	}
}

func (s *Server) serveConn(c net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.connMu.Lock()
		delete(s.conns, c)
		s.connMu.Unlock()
		c.Close()
	}()
	br := newReader(c)
	bw := newWriter(c)
	snap := s.app.Snapshotter()
	for {
		req, err := s.codec.ReadRequest(br)
		if err != nil {
			return // clean EOF and read errors both end the connection
		}
		// Request correlation: mint an id at codec receive and stamp it
		// onto the serving address space for the handling window, so
		// the forks and faults this request triggers carry it into the
		// trace and the exemplars. Apps without a single snapshotter
		// (Dispatcher) run their own per-lane observer instead.
		obs := s.obs.Load()
		var rid uint64
		var ridStart time.Time
		if obs != nil {
			rid = obs.Begin()
			ridStart = time.Now()
			if snap != nil {
				snap.Process().Space().SetRequest(rid)
			}
		}
		// Seqlock-style fork-coincidence probe: the epoch is odd while a
		// snapshot fork is in flight, and changes across one. Either
		// signal means this request overlapped a fork pause.
		var e1, e2 uint64
		if snap != nil {
			e1 = snap.Epoch()
		}
		s.handleMu.Lock()
		resp, herr := s.app.Handle(req)
		s.handleMu.Unlock()
		if snap != nil {
			e2 = snap.Epoch()
		}
		if rid != 0 {
			if snap != nil {
				snap.Process().Space().SetRequest(0)
			}
			obs.End(rid, 0, ridStart, herr != nil)
		}

		var flags ResponseFlags
		if e1&1 == 1 || e1 != e2 {
			flags |= FlagForkCoincident
		}
		if herr != nil {
			flags |= FlagAppError
			resp = []byte(herr.Error())
		}
		if err := s.codec.WriteResponse(bw, resp, flags); err != nil {
			return
		}
		// Count before the flush that delivers the answer, so a client
		// holding its response never reads a count that misses it.
		s.served.Add(1)
		if err := bw.Flush(); err != nil {
			s.served.Add(^uint64(0)) // not delivered after all
			return
		}
	}
}
