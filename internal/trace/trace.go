// Package trace is the flight recorder of the simulated kernel: a
// lock-free, sharded ring buffer of fixed-size typed events covering
// the fork engines (whole-fork spans plus per-stage spans — upper-level
// walk, PTE-table sharing, per-page refcounting, TLB shootdown), the
// fault path (one span per repaired fault, labelled with how it was
// resolved), the reclaim subsystem (scan passes, evictions, writeback,
// huge-page splits, kswapd wakeups), and the frame allocator (shard
// refills and drains).
//
// The design goals mirror the kernel's own ftrace ring buffer:
//
//   - Near-zero cost when disabled: every emission site is guarded by
//     one atomic load (Tracer.Enabled), and the nil tracer is a valid
//     disabled tracer, so cold paths need no nil checks.
//   - Bounded memory when enabled: events land in per-shard rings that
//     overwrite the oldest entry when full (drop-oldest); the number of
//     overwritten events is reported as Snapshot.Dropped.
//   - Lock-free: writers claim a slot with one atomic add and publish
//     the event under the slot's seqlock; readers snapshot without
//     stopping writers. Shards are picked by goroutine stack address,
//     so concurrent forks rarely contend on a ring cursor.
//
// The recorded timeline is exported three ways: a human-readable text
// rendering (served at /proc/odf/trace), a Chrome trace-event JSON
// document that loads in Perfetto with one track per fork worker plus
// tracks for the app and kswapd (chrome.go), and a Fig. 3-style
// per-stage attribution of fork time (report.go).
package trace

import (
	"runtime"
	"sync/atomic"
	"time"
	"unsafe"
)

// Kind identifies the subsystem event a record describes.
type Kind uint8

// Event kinds. Span kinds carry a duration; instant kinds mark a point
// in time (Dur == 0).
const (
	// KindFork spans a whole fork. Arg1 is the engine (0 classic,
	// 1 on-demand), Arg2 the parallel task count (0 = sequential).
	KindFork Kind = iota
	// KindForkStage spans one stage of a fork; Stage says which.
	// For StageShare and StageRefcount, Arg1/Arg2 are the PMD slot
	// range [lo, hi) the span covered.
	KindForkStage
	// KindFault spans one repaired page fault; Stage records the
	// resolution. Arg1 is the faulting address, Arg2 is 1 for writes.
	KindFault
	// KindSwapIn spans the swap-in stall inside a fault; Arg1 is the
	// swap slot read.
	KindSwapIn
	// KindOOMStall marks a fault path releasing its space lock to run
	// direct reclaim after ErrNoMemory; Arg1 is the retry number.
	KindOOMStall
	// KindReclaimScan spans one shrink pass; Arg1 = entries scanned,
	// Arg2 = frames freed.
	KindReclaimScan
	// KindReclaimEvict marks one frame swapped out; Arg1 = frame,
	// Arg2 = swap slot (0 = the implicit zero-page slot).
	KindReclaimEvict
	// KindWriteback spans one payload write to the swap store;
	// Arg1 = swap slot, Arg2 = bytes written.
	KindWriteback
	// KindHugeSplit marks a cold 2 MiB mapping split into base pages;
	// Arg1 is the compound head frame.
	KindHugeSplit
	// KindKswapdWake marks a kswapd episode starting below the low
	// watermark; Arg1 is the free-frame count that triggered it.
	KindKswapdWake
	// KindAllocRefill marks a shard cache refilling from the buddy
	// core; Arg1 is the batch size.
	KindAllocRefill
	// KindAllocDrain marks a shard cache draining to the buddy core;
	// Arg1 is the batch size.
	KindAllocDrain
	// KindFailpoint marks an injected fault firing; Arg1 is the
	// failpoint's catalog index (failpoint.PointName resolves it).
	KindFailpoint
	// KindForkAbort marks a fork unwound after a mid-copy allocation
	// failure; Arg1 is the engine (0 classic, 1 on-demand).
	KindForkAbort
	// KindSwapDegrade marks the swap store auto-disabling after
	// exhausting I/O retries; Arg1 is 1 for a read failure, 0 for a
	// write failure.
	KindSwapDegrade
	// KindAdmitWait spans a fork's wait in a tenant admission queue;
	// Arg1 is the tenant id, Arg2 is 1 when the fork was ultimately
	// rejected (queue full or wait timed out).
	KindAdmitWait
	// KindRequest spans one served request end to end, from codec
	// receive to response write. Arg1 is the tenant id (0 for
	// untenanted daemons), Arg2 is nonzero when the handler reported
	// an error. Req carries the request id that correlates this span
	// with every admission/fork/fault event the request caused.
	KindRequest
	// KindAlert marks a watchdog detection: Arg1 is the alert code
	// (AlertForkP99 ...; AlertName resolves it), Arg2 the observed
	// value in the code's unit (ns for latency codes, a count for
	// stall codes).
	KindAlert
	// KindCkptWrite spans one durable checkpoint capture+commit;
	// Arg1 is the number of page records written, Arg2 the committed
	// file's size in bytes.
	KindCkptWrite
	// KindCkptPageIn spans one lazy page-in from a checkpoint file on
	// first touch; Arg1 is the faulting virtual address.
	KindCkptPageIn

	numKinds
)

// Span reports whether events of this kind carry a duration.
func (k Kind) Span() bool {
	switch k {
	case KindFork, KindForkStage, KindFault, KindSwapIn, KindReclaimScan, KindWriteback, KindAdmitWait, KindRequest,
		KindCkptWrite, KindCkptPageIn:
		return true
	}
	return false
}

// Watchdog alert codes carried in KindAlert's Arg1.
const (
	// AlertForkP99 fires when the windowed fork-latency p99 crosses
	// the watchdog threshold; Arg2 is the observed p99 in ns.
	AlertForkP99 uint64 = iota
	// AlertAdmitWait fires when the windowed admission-queue p99 wait
	// crosses the threshold; Arg2 is the observed wait in ns.
	AlertAdmitWait
	// AlertSwapDegraded fires when the swap store auto-disables;
	// Arg2 is the cumulative degrade count.
	AlertSwapDegraded
	// AlertOOMStall fires when fault paths entered direct reclaim
	// during the window; Arg2 is the stall count for the window.
	AlertOOMStall

	numAlerts
)

// AlertName resolves a KindAlert code to its stable name.
func AlertName(code uint64) string {
	switch code {
	case AlertForkP99:
		return "fork_p99_breach"
	case AlertAdmitWait:
		return "admit_wait_spike"
	case AlertSwapDegraded:
		return "swap_degraded"
	case AlertOOMStall:
		return "oom_stall"
	}
	return "unknown"
}

// Stage refines a Kind: the fork stage for KindForkStage, the
// resolution for KindFault, StageNone otherwise.
type Stage uint8

// Stages and fault resolutions.
const (
	StageNone Stage = iota

	// Fork stages.

	// StageWalk is the whole tree copy: the sequential upper-level walk
	// plus (nested inside it) the per-PMD-range share/refcount spans.
	StageWalk
	// StageShare is on-demand-fork's per-range work: one share-counter
	// increment and one PMD writable-bit clear per last-level table.
	StageShare
	// StageRefcount is classic fork's per-range work: 512 PTE copies
	// plus one page reference increment per present entry — the
	// compound_head/page_ref_inc hot path of the paper's Figure 3.
	StageRefcount
	// StageTLB is the fork-time lineage-wide TLB shootdown broadcast.
	StageTLB

	// Fault resolutions, in the priority order classification uses.

	// ResolveSegfault: the fault was not repairable.
	ResolveSegfault
	// ResolveTableCopy: a shared PTE table was copied (the deferred
	// table copy of §3.4).
	ResolveTableCopy
	// ResolvePMDSplit: a shared huge-page PMD table was copied (§4).
	ResolvePMDSplit
	// ResolveHugeCopy: a 2 MiB page was copied for COW.
	ResolveHugeCopy
	// ResolvePageCopy: a 4 KiB page was copied for COW.
	ResolvePageCopy
	// ResolveSwapIn: a swapped-out page was read back in.
	ResolveSwapIn
	// ResolveDedup: the last sharer re-dedicated a table by restoring
	// one writable bit (the paper's fast path).
	ResolveDedup
	// ResolveMinor: demand paging, spurious faults, and fast reads —
	// nothing was copied.
	ResolveMinor

	numStages
)

// Well-known actors (Perfetto tracks). Fork pool helpers use positive
// worker numbers: ActorForkWorker(1) .. ActorForkWorker(n).
const (
	// ActorApp is the application goroutine driving the syscall surface
	// (and the caller's share of a parallel fork).
	ActorApp int32 = 0
	// ActorKswapd is the background reclaimer goroutine.
	ActorKswapd int32 = -1
)

// ActorForkWorker names the i-th parallel-fork helper (i ≥ 1; the
// caller itself participates as ActorApp).
func ActorForkWorker(i int) int32 { return int32(i) }

// Event is one fixed-size trace record.
type Event struct {
	TS    int64 // nanoseconds since the tracer epoch
	Dur   int64 // span length in nanoseconds; 0 for instants
	Kind  Kind
	Stage Stage
	Actor int32
	Arg1  uint64
	Arg2  uint64
	// Req is the correlation id of the serving-tier request that
	// caused this event, or 0 when the event happened outside any
	// request (background reclaim, warmup forks, untagged daemons).
	// Events sharing a nonzero Req are exported as one Perfetto flow.
	Req uint64
}

// DefaultCapacity is the event capacity a kernel's tracer is built
// with: 16 Ki events ≈ 1 MiB of ring memory, a few milliseconds of
// fully loaded fork/fault traffic.
const DefaultCapacity = 1 << 14

const maxRings = 64

// slot is one seqlock-guarded event cell: seq is even when the event
// is stable (0 = never written), odd while a writer is mid-update. The
// event is stored as atomic words, so a reader racing a writer sees
// torn words (and discards them on the sequence check), never a data
// race; storing by value keeps the hot emit path allocation-free.
type slot struct {
	seq atomic.Uint64
	w   [6]atomic.Uint64 // TS, Dur, Kind|Stage|Actor, Arg1, Arg2, Req
}

func (s *slot) store(e *Event) {
	s.w[0].Store(uint64(e.TS))
	s.w[1].Store(uint64(e.Dur))
	s.w[2].Store(uint64(e.Kind) | uint64(e.Stage)<<8 | uint64(uint32(e.Actor))<<32)
	s.w[3].Store(e.Arg1)
	s.w[4].Store(e.Arg2)
	s.w[5].Store(e.Req)
}

func (s *slot) load() Event {
	ksa := s.w[2].Load()
	return Event{TS: int64(s.w[0].Load()), Dur: int64(s.w[1].Load()),
		Kind: Kind(ksa), Stage: Stage(ksa >> 8), Actor: int32(uint32(ksa >> 32)),
		Arg1: s.w[3].Load(), Arg2: s.w[4].Load(), Req: s.w[5].Load()}
}

// ring is one shard of the recorder. The cursor counts every claim
// ever made; slot i of an event stream lives at i mod len(slots), so a
// full ring overwrites its oldest entry (drop-oldest). The pad keeps
// neighbouring cursors off one cache line.
type ring struct {
	cur       atomic.Uint64
	contended atomic.Uint64 // events dropped to same-slot writer collisions
	slots     []slot
	_         [64]byte
}

// Tracer is the flight recorder. The zero value and the nil pointer
// are valid, permanently disabled tracers; use New for a live one.
type Tracer struct {
	enabled atomic.Bool
	epoch   atomic.Pointer[time.Time]
	rings   []ring
}

// New builds a disabled tracer holding at most capacity events across
// all shards (capacity ≤ 0 selects DefaultCapacity).
func New(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	nrings := 1
	for nrings < runtime.GOMAXPROCS(0) && nrings < maxRings {
		nrings <<= 1
	}
	per := 1
	for per < (capacity+nrings-1)/nrings {
		per <<= 1
	}
	if per < 64 {
		per = 64
	}
	t := &Tracer{rings: make([]ring, nrings)}
	for i := range t.rings {
		t.rings[i].slots = make([]slot, per)
	}
	now := time.Now()
	t.epoch.Store(&now)
	return t
}

// Enabled reports whether the tracer records events. This is the one
// guard on every hot path: a single atomic load, nil-safe.
func (t *Tracer) Enabled() bool { return t != nil && t.enabled.Load() }

// SetEnabled switches recording on or off. Events accumulated so far
// stay readable; use Reset to clear them. Nil-safe no-op.
func (t *Tracer) SetEnabled(on bool) {
	if t != nil {
		t.enabled.Store(on)
	}
}

// Reset discards every recorded event, zeroes the dropped count, and
// restarts the timebase. Concurrent emitters may leave a few stragglers
// behind; callers wanting an exact cut disable first.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	for i := range t.rings {
		r := &t.rings[i]
		r.cur.Store(0)
		r.contended.Store(0)
		for j := range r.slots {
			r.slots[j].seq.Store(0)
		}
	}
	now := time.Now()
	t.epoch.Store(&now)
}

// Span records a duration event that began at start. The caller
// typically stamps start only after checking Enabled; Span re-checks so
// a mid-operation disable drops the event instead of recording it.
func (t *Tracer) Span(k Kind, st Stage, actor int32, start time.Time, arg1, arg2 uint64) {
	t.SpanReq(k, st, actor, start, arg1, arg2, 0)
}

// SpanReq is Span carrying a request correlation id (0 = none).
func (t *Tracer) SpanReq(k Kind, st Stage, actor int32, start time.Time, arg1, arg2, req uint64) {
	if !t.Enabled() || start.IsZero() {
		return
	}
	d := time.Since(start)
	t.emit(Event{
		TS:    t.since(start),
		Dur:   int64(d),
		Kind:  k,
		Stage: st,
		Actor: actor,
		Arg1:  arg1,
		Arg2:  arg2,
		Req:   req,
	})
}

// Instant records a point event happening now.
func (t *Tracer) Instant(k Kind, st Stage, actor int32, arg1, arg2 uint64) {
	t.InstantReq(k, st, actor, arg1, arg2, 0)
}

// InstantReq is Instant carrying a request correlation id (0 = none).
func (t *Tracer) InstantReq(k Kind, st Stage, actor int32, arg1, arg2, req uint64) {
	if !t.Enabled() {
		return
	}
	t.emit(Event{
		TS:    t.since(time.Now()),
		Kind:  k,
		Stage: st,
		Actor: actor,
		Arg1:  arg1,
		Arg2:  arg2,
		Req:   req,
	})
}

// Emit records a pre-built event verbatim (tests and golden fixtures).
func (t *Tracer) Emit(e Event) {
	if !t.Enabled() {
		return
	}
	t.emit(e)
}

// since converts an absolute time to epoch-relative nanoseconds,
// clamped at zero (a Reset can move the epoch past an in-flight start).
func (t *Tracer) since(at time.Time) int64 {
	ns := at.Sub(*t.epoch.Load()).Nanoseconds()
	if ns < 0 {
		ns = 0
	}
	return ns
}

// emit claims a slot in the caller's shard and publishes the event
// under the slot's seqlock: CAS the sequence even→odd, store the words,
// store seq+2. A failed CAS means another writer lapped the ring onto
// the same slot at the same instant; the event is dropped (and counted)
// rather than spinning — the recorder must never stall a fork path.
func (t *Tracer) emit(e Event) {
	r := t.shard()
	i := r.cur.Add(1) - 1
	s := &r.slots[i&uint64(len(r.slots)-1)]
	seq := s.seq.Load()
	if seq&1 != 0 || !s.seq.CompareAndSwap(seq, seq+1) {
		r.contended.Add(1)
		return
	}
	s.store(&e)
	s.seq.Store(seq + 2)
}

// shard picks a ring for the calling goroutine by hashing its stack
// address — stable for the life of a call frame, distinct across
// goroutines. Events carry their own timestamps, so a call-depth
// dependent pick is harmless; a collision costs cursor contention,
// never correctness.
func (t *Tracer) shard() *ring {
	var probe byte
	h := uintptr(unsafe.Pointer(&probe))
	h ^= h >> 17
	return &t.rings[(h>>3)&uintptr(len(t.rings)-1)]
}

// Snapshot is a point-in-time copy of the recorded timeline.
type Snapshot struct {
	// Events, sorted by timestamp.
	Events []Event
	// Dropped counts events overwritten by ring wrap-around since the
	// last Reset.
	Dropped uint64
}

// Snapshot collects every live event, sorted by timestamp, plus the
// count of events lost to ring overwrite. It runs against concurrent
// emitters: an in-flight claim may be missed or doubly counted as
// dropped, which only skews the snapshot by the events of that instant.
func (t *Tracer) Snapshot() Snapshot {
	var s Snapshot
	if t == nil {
		return s
	}
	for i := range t.rings {
		r := &t.rings[i]
		cur := r.cur.Load()
		if n := uint64(len(r.slots)); cur > n {
			s.Dropped += cur - n
		}
		s.Dropped += r.contended.Load()
		for j := range r.slots {
			sl := &r.slots[j]
			// Seqlock read: take a copy only when the sequence is a
			// nonzero even value and unchanged across the read.
			s1 := sl.seq.Load()
			if s1 == 0 || s1&1 != 0 {
				continue
			}
			e := sl.load()
			if sl.seq.Load() != s1 {
				continue
			}
			s.Events = append(s.Events, e)
		}
	}
	sortEvents(s.Events)
	return s
}
