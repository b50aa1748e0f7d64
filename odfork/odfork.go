// Package odfork is the public API of the on-demand-fork reproduction:
// a simulated operating-system memory subsystem with three fork
// engines — the traditional copy-everything fork, fork over 2 MiB huge
// pages, and the paper's on-demand-fork, which shares last-level page
// tables between parent and child and copies them lazily, one 2 MiB
// region at a time, on the first write fault.
//
// The package wraps the internal kernel with a small, stable surface:
//
//	sys := odfork.NewSystem()
//	p := sys.NewProcess()
//	buf, _ := p.Mmap(1<<30, odfork.ProtRead|odfork.ProtWrite,
//	    odfork.MapPrivate|odfork.MapPopulate)
//	child, _ := p.Fork(odfork.WithMode(odfork.OnDemand)) // microseconds
//
// Forked children have full copy-on-write semantics: reads are shared,
// the first write to a 2 MiB region copies one page table, and the
// first write to a page copies that page. See DESIGN.md for how the
// simulation substitutes for the paper's kernel patch, and
// EXPERIMENTS.md for the reproduced evaluation.
package odfork

import (
	"errors"
	"io"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/fs"
	"repro/internal/kernel"
	"repro/internal/mem/addr"
	"repro/internal/mem/reclaim"
	"repro/internal/mem/vm"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// Sentinel errors of the v1 API. Every error the system returns for
// one of these conditions wraps the corresponding sentinel, so callers
// classify failures with errors.Is instead of matching message text:
//
//	if errors.Is(err, odfork.ErrNoMem) { ... back off ... }
//
// ErrBadAddr and ErrProtViolation also classify segfaults: a
// *SegfaultError unwraps to whichever of the two applies.
var (
	// ErrNoMem reports simulated physical memory exhaustion — only
	// possible when a frame limit is set (System.SetFrameLimit), and,
	// when swap is enabled (System.SetSwapEnabled), only after direct
	// reclaim has failed to free enough frames.
	ErrNoMem = core.ErrOutOfMemory
	// ErrBadAddr reports an access to unmapped memory or a malformed
	// address, range, or size argument.
	ErrBadAddr = core.ErrBadAddr
	// ErrProtViolation reports an access forbidden by a mapping's
	// protection.
	ErrProtViolation = core.ErrProtViolation
	// ErrExited reports an operation on a process that has exited.
	ErrExited = kernel.ErrExited
	// ErrSwapIO reports a swap store operation that kept failing after
	// its bounded retries; the system has switched into degraded-swap
	// mode (SwapDegraded) and performs no further eviction.
	ErrSwapIO = reclaim.ErrSwapIO
	// ErrSwapCorrupt reports a swapped-out page whose content read back
	// with a checksum different from the one recorded at swap-out.
	ErrSwapCorrupt = reclaim.ErrSwapCorrupt
	// ErrCheckpointCorrupt reports a durable checkpoint whose on-disk
	// bytes fail integrity verification — a chunk CRC mismatch, torn
	// footer, or broken incremental chain — at open, verify, or lazy
	// fault-in time.
	ErrCheckpointCorrupt = kernel.ErrCheckpointCorrupt
	// ErrCheckpointIO reports a checkpoint store operation that kept
	// failing after its bounded retries; the affected restore image
	// latches into degraded mode.
	ErrCheckpointIO = kernel.ErrCheckpointIO
)

// Addr is a virtual address in a simulated process.
type Addr = addr.V

// Size constants for mapping requests.
const (
	PageSize     = addr.PageSize     // 4 KiB
	HugePageSize = addr.HugePageSize // 2 MiB
	KiB          = uint64(1) << 10
	MiB          = uint64(1) << 20
	GiB          = uint64(1) << 30
)

// Prot is a mapping protection.
type Prot = vm.Prot

// Protection bits.
const (
	ProtRead  = vm.ProtRead
	ProtWrite = vm.ProtWrite
)

// MapFlags selects mapping behaviour.
type MapFlags = vm.MapFlags

// Mapping flags.
const (
	// MapPrivate requests copy-on-write semantics across fork.
	MapPrivate = vm.MapPrivate
	// MapHuge backs the mapping with 2 MiB pages.
	MapHuge = vm.MapHuge
	// MapPopulate pre-faults every page at mmap time.
	MapPopulate = vm.MapPopulate
)

// Mode selects a fork engine.
type Mode = core.ForkMode

// Fork engines.
const (
	// Classic is the traditional fork: it copies the entire paging
	// hierarchy and reference-counts every mapped page, so its latency
	// grows linearly with the process's mapped memory.
	Classic = core.ForkClassic
	// OnDemand is the paper's design: last-level page tables are shared
	// at fork time and copied lazily on first write, making fork latency
	// proportional to the (tiny) number of upper-level tables.
	OnDemand = core.ForkOnDemand
)

// ForkOptions exposes the engine tuning knobs: the ablation switches
// of DESIGN.md §5 and the huge-page PMD-table sharing extension of the
// paper's §4 ("Huge Page Support").
type ForkOptions = core.ForkOptions

// ForkOpt is a functional option for Process.Fork, the v1 fork entry
// point:
//
//	child, err := p.Fork(odfork.WithMode(odfork.OnDemand),
//	    odfork.WithWorkers(4))
type ForkOpt = kernel.ForkOpt

// WithMode selects the fork engine for one Fork call. Without it, the
// engine comes from the procfs-style per-process configuration
// (System.SetForkMode), falling back to the system default.
func WithMode(m Mode) ForkOpt { return kernel.WithMode(m) }

// WithWorkers fans the fork's page-table copy out over up to n
// workers. 0 and 1 mean sequential.
func WithWorkers(n int) ForkOpt { return kernel.WithWorkers(n) }

// WithForkOptions applies a full ForkOptions (ablation knobs,
// huge-table sharing, parallelism). Later options override its fields.
func WithForkOptions(o ForkOptions) ForkOpt { return kernel.WithForkOptions(o) }

// Snapshotter is the typed snapshot-serving API: it forks a process
// on a timer, on demand, or both, replacing hand-rolled fork loops.
// Start one with Process.StartSnapshotter:
//
//	snap, _ := p.StartSnapshotter(200*time.Millisecond,
//	    odfork.WithSnapshotMode(odfork.OnDemand))
//	defer snap.Stop()
//	...
//	last, _ := snap.LastSnapshot() // per-snapshot fork stats
//
// The handle exposes LastSnapshot and Totals for pause-time telemetry
// and an Epoch seqlock (odd while a fork is in flight) that serving
// layers use to tag requests that overlapped a snapshot fork.
type Snapshotter = kernel.Snapshotter

// SnapshotStats describes one snapshot fork (see Snapshotter).
type SnapshotStats = kernel.SnapshotStats

// SnapshotterTotals aggregates a Snapshotter's lifetime statistics.
type SnapshotterTotals = kernel.SnapshotterTotals

// SnapshotterOpt configures Process.StartSnapshotter.
type SnapshotterOpt = kernel.SnapshotterOpt

// ErrSnapshotterStopped reports a Snapshot call on a stopped
// Snapshotter.
var ErrSnapshotterStopped = kernel.ErrSnapshotterStopped

// WithSnapshotMode pins the fork engine snapshots use. Without it,
// snapshots resolve the engine like a plain Fork call (SetForkMode,
// then the system default).
func WithSnapshotMode(m Mode) SnapshotterOpt { return kernel.WithSnapshotMode(m) }

// WithSnapshotWorkers fans each snapshot fork out over up to n workers.
func WithSnapshotWorkers(n int) SnapshotterOpt { return kernel.WithSnapshotWorkers(n) }

// WithSnapshotChild installs the child-side work run after each
// snapshot fork (serialization, verification); the child exits when fn
// returns. Without it the child exits immediately.
func WithSnapshotChild(fn func(*Process) error) SnapshotterOpt {
	return kernel.WithSnapshotChild(fn)
}

// WithSnapshotNotify calls fn after each snapshot's child work
// completes. fn runs on the snapshot's child goroutine, and the
// children of consecutive snapshots may overlap, so fn may run
// concurrently with itself and must synchronize any state it shares.
func WithSnapshotNotify(fn func(SnapshotStats)) SnapshotterOpt {
	return kernel.WithSnapshotNotify(fn)
}

// DurableCheckpoint is the handle for a snapshot written to disk with
// Process.CheckpointTo: a crash-safe columnar file that a later
// System.RestoreFrom turns back into a live process, faulting pages in
// from the file on first touch (fork-from-disk). The handle retains
// the frozen in-memory twin so a subsequent CheckpointTo with
// WithCheckpointParent writes only the pages diverged since — an
// incremental checkpoint; call Release when no more children will
// chain to it.
type DurableCheckpoint = kernel.DurableCheckpoint

// CheckpointOption configures one Process.CheckpointTo call.
type CheckpointOption = kernel.CheckpointOption

// WithCheckpointParent makes the snapshot incremental against parent:
// only pages diverged since the parent's capture are written, and
// restore resolves the chain parent-by-parent, validating each link's
// recorded snapshot identity.
func WithCheckpointParent(parent *DurableCheckpoint) CheckpointOption {
	return kernel.WithCheckpointParent(parent)
}

// RestoreOption configures one System.RestoreFrom call.
type RestoreOption = kernel.RestoreOption

// RestoreFrom creates a process from a durable checkpoint written by
// Process.CheckpointTo — possibly by an earlier system instance; this
// is the cold-start path after a daemon restart. No page data is read
// up front: each page faults in from the file on first touch,
// CRC-verified, with transparent retry on transient I/O errors.
// Corruption surfaces from the faulting access as ErrCheckpointCorrupt.
func (s *System) RestoreFrom(path string, opts ...RestoreOption) (*Process, error) {
	return s.k.RestoreFrom(path, opts...)
}

// MetricsSnapshot is the typed telemetry tree returned by
// System.Metrics: per-engine fork latency histograms, fault-path
// counts and latencies, allocator shard and frame statistics, and TLB
// behaviour. See the metrics package for field documentation.
type MetricsSnapshot = metrics.Snapshot

// Process is a simulated task. It exposes the syscall surface the
// paper's workloads use; all memory access goes through the simulated
// MMU, so copy-on-write, protection, and demand paging behave as on a
// real kernel.
type Process = kernel.Process

// PID identifies a process.
type PID = kernel.PID

// File is an in-memory file usable for file-backed mappings.
type File = fs.File

// SegfaultError is returned for irreparable memory accesses.
type SegfaultError = core.SegfaultError

// System is a simulated operating-system instance: physical memory,
// a filesystem, and a process table.
type System struct {
	k *kernel.Kernel
	// failpointsOn gates SetFailpoint: fault injection is a test and
	// chaos-harness facility, armed only after an explicit opt-in.
	failpointsOn atomic.Bool
}

// Option configures a System.
type Option func(*config)

type config struct {
	defMode Mode
}

// WithDefaultMode sets the engine used by plain Fork calls (Classic by
// default).
func WithDefaultMode(m Mode) Option {
	return func(c *config) { c.defMode = m }
}

// NewSystem boots a simulated system.
func NewSystem(opts ...Option) *System {
	cfg := config{defMode: Classic}
	for _, o := range opts {
		o(&cfg)
	}
	return &System{k: kernel.New(kernel.WithDefaultForkMode(cfg.defMode))}
}

// NewProcess creates a process with an empty address space.
func (s *System) NewProcess() *Process { return s.k.NewProcess() }

// SetForkMode installs the procfs-style per-process configuration: the
// process's plain Fork calls transparently use the given engine, with
// no application changes (paper §4, "Flexibility"). Children inherit
// the setting. Prefer Fork(WithMode(...)) when the caller can name the
// engine itself; SetForkMode exists for the paper's no-source-changes
// deployment story.
func (s *System) SetForkMode(pid PID, m Mode) error { return s.k.SetForkMode(pid, m) }

// Metrics returns a snapshot of the system-wide telemetry: fork
// latency per engine, fault counts and latencies, allocator and TLB
// counters. Collection is on by default; see SetMetricsEnabled.
func (s *System) Metrics() MetricsSnapshot { return s.k.MetricsSnapshot() }

// SetMetricsEnabled toggles telemetry collection. Disabling stops
// counting but keeps accumulated values readable.
func (s *System) SetMetricsEnabled(on bool) { s.k.Metrics().SetEnabled(on) }

// TraceSnapshot is a captured flight-recorder timeline: events sorted
// by start time plus a count of events lost to ring-buffer overwrite.
type TraceSnapshot = trace.Snapshot

// TraceEvent is one recorded span or instant on the timeline.
type TraceEvent = trace.Event

// TraceFormat selects a WriteTrace output encoding.
type TraceFormat = trace.Format

// WriteTrace output formats.
const (
	// TraceChrome is Chrome trace-event JSON — load the file in
	// https://ui.perfetto.dev or chrome://tracing.
	TraceChrome = trace.FormatChrome
	// TraceText is the human-readable rendering that /proc/odf/trace
	// serves.
	TraceText = trace.FormatText
)

// SetTraceEnabled switches the flight recorder on or off. Tracing is
// off by default and costs a single atomic load per instrumentation
// point while disabled. Enabling starts a fresh timeline; disabling
// freezes it for TraceSnapshot and WriteTrace. Recording is bounded:
// the ring keeps the most recent events and counts the overwritten
// ones in TraceSnapshot.Dropped.
func (s *System) SetTraceEnabled(on bool) { s.k.SetTraceEnabled(on) }

// TraceEnabled reports whether the flight recorder is recording.
func (s *System) TraceEnabled() bool { return s.k.TraceEnabled() }

// TraceSnapshot captures the recorded timeline.
func (s *System) TraceSnapshot() TraceSnapshot { return s.k.TraceSnapshot() }

// WriteTrace renders the recorded timeline to w in the given format.
func (s *System) WriteTrace(w io.Writer, f TraceFormat) error { return s.k.WriteTrace(w, f) }

// Procfs reads a file of the simulated procfs namespace:
// /proc/odf (a listing of the odf endpoints), /proc/odf/checkpoints,
// /proc/odf/failpoints, /proc/odf/metrics, /proc/odf/profile,
// /proc/odf/slo, /proc/odf/trace, /proc/odf/vmstat, /proc/<pid>/maps and
// /proc/<pid>/status. Unknown paths fail with an error wrapping
// fs.ErrNotExist.
func (s *System) Procfs(path string) (string, error) { return s.k.Procfs(path) }

// SetFrameLimit caps the simulated physical memory at the given number
// of 4 KiB frames (0 removes the cap). With swap disabled, allocation
// beyond the cap fails with an error wrapping ErrNoMem. With swap
// enabled (SetSwapEnabled), the allocator first stalls in direct
// reclaim, evicting cold pages to the swap store, and only returns
// ErrNoMem if reclaim cannot free enough frames.
func (s *System) SetFrameLimit(frames int64) { s.k.Allocator().SetLimit(frames) }

// SetSwapEnabled turns the memory reclaim subsystem on or off. When
// on, a kswapd-style background goroutine keeps free frames above a
// low watermark by evicting cold pages (LRU order, second-chance
// aging) to the swap store, and allocations that still hit the frame
// limit perform synchronous direct reclaim before failing. Off by
// default; turning it off stops kswapd and drops LRU tracking, while
// already-swapped pages keep faulting back in transparently.
func (s *System) SetSwapEnabled(on bool) { s.k.SetSwapEnabled(on) }

// SwapEnabled reports whether the reclaim subsystem is active.
func (s *System) SwapEnabled() bool { return s.k.SwapEnabled() }

// SetSwapWatermarks pins kswapd's watermarks in frames: below low free
// frames kswapd wakes and reclaims until high are free. (0, 0) returns
// to watermarks derived automatically from the frame limit.
func (s *System) SetSwapWatermarks(low, high int64) error {
	return s.k.SetSwapWatermarks(low, high)
}

// SetSwapStoreFile backs swap with a file at path instead of the
// default in-memory compressed store — the simulated swapon. Only
// legal while swap is disabled with no pages swapped out.
func (s *System) SetSwapStoreFile(path string) error { return s.k.SetSwapStoreFile(path) }

// SwapDegraded reports whether swap has latched into degraded mode
// after a persistent store I/O failure: eviction has stopped, faults
// that need a failing slot surface ErrSwapIO, and re-enabling swap
// (SetSwapEnabled) clears the latch.
func (s *System) SwapDegraded() bool { return s.k.Reclaim().Degraded() }

// SetFailpointsEnabled opts the system into deterministic fault
// injection. This is a test and chaos-harness facility, never a
// production switch: until it is called with true, SetFailpoint
// refuses to arm anything, and disabling again disarms every point.
// Disabled failpoints cost one atomic load on the paths they guard.
func (s *System) SetFailpointsEnabled(on bool) {
	s.failpointsOn.Store(on)
	if !on {
		s.k.Failpoints().Reset()
	}
}

// SetFailpoint arms or disarms one named failpoint (the catalog is
// served at /proc/odf/failpoints). Spec is "off", "once", "every:N",
// or "prob:P" with 0 < P <= 1. Requires SetFailpointsEnabled(true).
func (s *System) SetFailpoint(name, spec string) error {
	if !s.failpointsOn.Load() {
		return errors.New("odfork: failpoints are disabled; call SetFailpointsEnabled(true) first (test-only facility)")
	}
	return s.k.SetFailpoint(name, spec)
}

// SetFailpointSeed reseeds the injection PRNG so probabilistic
// failpoint schedules replay identically across runs.
func (s *System) SetFailpointSeed(seed uint64) { s.k.SetFailpointSeed(seed) }

// CheckInvariants audits the whole system's memory accounting: table
// share counters, frame reference counts, swap-slot reference counts,
// and the reclaim subsystem's rmap/LRU bookkeeping. Processes must be
// quiescent. Intended for tests and the chaos harness.
func (s *System) CheckInvariants() error { return s.k.CheckInvariants() }

// CreateFile creates an in-memory file for file-backed mappings.
func (s *System) CreateFile(name string) *File { return s.k.FS().Create(name) }

// OpenFile opens an existing in-memory file.
func (s *System) OpenFile(name string) (*File, error) { return s.k.FS().Open(name) }

// LiveProcesses returns the number of processes that have not exited.
func (s *System) LiveProcesses() int { return s.k.NumProcesses() }

// AllocatedFrames returns the number of live simulated physical frames
// (data pages and page tables) — useful for leak checking and for
// observing the memory the fork engines save.
func (s *System) AllocatedFrames() int64 { return s.k.Allocator().Allocated() }
