// Package kernel ties the simulated subsystems together into a
// process-level API: a Kernel owning physical memory, a filesystem and
// a process table, and Process objects offering the syscall surface the
// paper's workloads use (mmap, munmap, mremap, mprotect, fork,
// on-demand-fork, exit, wait, and memory access through the software
// MMU).
//
// The fork-mode selection mirrors the paper's deployment story (§4,
// "Flexibility"): on-demand-fork is opted into per call
// (Fork(WithMode(...))), and a procfs-style per-process configuration
// (Kernel.SetForkMode) transparently redirects plain Fork calls, so
// applications need no source changes.
package kernel

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/failpoint"
	"repro/internal/fs"
	"repro/internal/mem/addr"
	"repro/internal/mem/phys"
	"repro/internal/mem/reclaim"
	"repro/internal/mem/vm"
	"repro/internal/metrics"
	"repro/internal/tenant"
	"repro/internal/trace"
)

// PID identifies a simulated process.
type PID int

// ErrExited is the sentinel wrapped by every error caused by
// addressing a process that is gone — forking from an exited process,
// or configuring a PID no longer (or never) in the process table.
// Callers branch with errors.Is(err, ErrExited).
var ErrExited = errors.New("process has exited")

// Kernel is the simulated operating system instance.
type Kernel struct {
	alloc   *phys.Allocator
	met     *metrics.Registry
	trc     *trace.Tracer
	fsys    *fs.FileSystem
	rec     *reclaim.Manager
	fail    *failpoint.Registry
	tenants *tenant.Manager
	slo     sloSlot
	health  healthSlot

	// procEndpoints is the /proc/odf file registry, in the fixed order
	// New builds it; the root listing and path dispatch both walk it.
	procEndpoints []procEndpoint

	mu        sync.Mutex
	nextPID   PID
	procs     map[PID]*Process
	forkModes map[PID]core.ForkMode // procfs-style per-process override
	defMode   core.ForkMode

	// Durable-checkpoint registry: snapshots this kernel wrote and
	// restore images it holds open, for /proc/odf/checkpoints.
	ckptMu     sync.Mutex
	ckpts      []*DurableCheckpoint
	ckptImages []*ckptImage
}

// Option configures a Kernel.
type Option func(*Kernel)

// WithDefaultForkMode sets the engine plain Fork calls use when no
// per-process override exists. The default is the classic fork.
func WithDefaultForkMode(m core.ForkMode) Option {
	return func(k *Kernel) { k.defMode = m }
}

// WithMetricsDisabled boots the kernel with telemetry collection off.
// Metrics are on by default (the collection cost is a handful of
// atomics per fork/fault); this option is for benchmarks quantifying
// that cost. Collection can be re-enabled later via Metrics().
func WithMetricsDisabled() Option {
	return func(k *Kernel) { k.met.SetEnabled(false) }
}

// New boots a kernel.
func New(opts ...Option) *Kernel {
	k := &Kernel{
		nextPID:   1,
		procs:     make(map[PID]*Process),
		forkModes: make(map[PID]core.ForkMode),
		defMode:   core.ForkClassic,
		met:       metrics.New(),
	}
	for _, o := range opts {
		o(k)
	}
	k.alloc = phys.NewAllocator()
	k.alloc.SetMetrics(k.met)
	// The flight recorder boots disabled (recording is opt-in via
	// SetTraceEnabled) and must be attached before the reclaim manager
	// and any address space, which inherit it from the allocator.
	k.trc = trace.New(trace.DefaultCapacity)
	k.alloc.SetTracer(k.trc)
	// The failpoint registry boots with every point disarmed; arming is
	// the chaos harness's / tests' job. Attached before the reclaim
	// manager and any address space so injection reaches every layer.
	k.fail = failpoint.New(defaultFailpointSeed)
	k.fail.SetObserver(k.failpointObserver)
	k.alloc.SetFailpoints(k.fail)
	// The reclaim manager is always attached (so address spaces created
	// now pick it up) but starts disabled: until SetSwapEnabled(true)
	// every hook is a no-op and frame-limit pressure fails fast, the
	// historical behavior.
	k.rec = reclaim.NewManager(k.alloc, k.met)
	k.alloc.SetReclaimer(k.rec)
	// The tenant control plane is always present (an empty registry
	// costs one nil-tenant check per fork); forks queue machine-wide
	// only when the allocator is limited and nearly exhausted.
	k.tenants = tenant.NewManager(k.met)
	k.tenants.SetPressure(k.memoryPressure)
	k.fsys = fs.New()
	k.procEndpoints = k.buildProcEndpoints()
	return k
}

// Metrics returns the kernel's telemetry registry. It is never nil for
// a kernel built with New.
func (k *Kernel) Metrics() *metrics.Registry { return k.met }

// MetricsSnapshot captures the system-wide telemetry tree: the
// registry's counters, the live processes' TLB counters summed on top
// of the retired ones, and the allocator's frame-level gauges. This is
// the one read path behind both the public Snapshot API and
// /proc/odf/metrics, so the two always agree.
func (k *Kernel) MetricsSnapshot() metrics.Snapshot {
	snap := k.met.Snapshot()
	k.mu.Lock()
	for _, p := range k.procs {
		st := p.as.TLB().Stats()
		snap.TLB.Hits += st.Hits
		snap.TLB.Misses += st.Misses
		snap.TLB.Flushes += st.Flushes
		snap.TLB.Shootdowns += st.Shootdowns
	}
	k.mu.Unlock()
	snap.Alloc.FramesInUse = k.alloc.Allocated()
	snap.Alloc.FramesPeak = k.alloc.Peak()
	snap.Alloc.ShardCached = int64(k.alloc.ShardCached())
	snap.Robust.InjectedFaults = k.fail.TotalFires()
	return snap
}

// Allocator exposes the physical memory manager.
func (k *Kernel) Allocator() *phys.Allocator { return k.alloc }

// FS returns the kernel's filesystem.
func (k *Kernel) FS() *fs.FileSystem { return k.fsys }

// NewProcess creates a fresh process with an empty address space (the
// simulated equivalent of exec from nothing).
func (k *Kernel) NewProcess() *Process {
	k.mu.Lock()
	defer k.mu.Unlock()
	p := &Process{
		k:    k,
		pid:  k.nextPID,
		as:   core.NewAddressSpace(k.alloc),
		done: make(chan struct{}),
	}
	k.nextPID++
	k.procs[p.pid] = p
	return p
}

// Process returns the process with the given PID, or nil.
func (k *Kernel) Process(pid PID) *Process {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.procs[pid]
}

// NumProcesses returns the number of live processes.
func (k *Kernel) NumProcesses() int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return len(k.procs)
}

// SetForkMode installs the procfs-style per-process fork configuration:
// subsequent plain Fork calls by pid use mode, with no change to the
// application's code (§4, "Flexibility").
func (k *Kernel) SetForkMode(pid PID, mode core.ForkMode) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	// PIDs are never reused, so an unknown PID was either never issued
	// or belongs to a process that exited; both wrap ErrExited.
	if _, ok := k.procs[pid]; !ok {
		return fmt.Errorf("kernel: no process %d: %w", pid, ErrExited)
	}
	k.forkModes[pid] = mode
	return nil
}

// forkModeFor resolves the engine for a process.
func (k *Kernel) forkModeFor(pid PID) core.ForkMode {
	k.mu.Lock()
	defer k.mu.Unlock()
	if m, ok := k.forkModes[pid]; ok {
		return m
	}
	return k.defMode
}

// Process is a simulated task: an address space plus process-table
// state. Its methods are the syscall surface used by the workloads.
type Process struct {
	k   *Kernel
	pid PID

	mu     sync.Mutex
	as     *core.AddressSpace
	parent PID
	tenant *tenant.Tenant // owning tenant account (nil = untenanted)
	exited bool
	done   chan struct{}
}

// PID returns the process id.
func (p *Process) PID() PID { return p.pid }

// Parent returns the parent's PID (0 for initial processes).
func (p *Process) Parent() PID { return p.parent }

// Space exposes the underlying address space for stats and invariants.
func (p *Process) Space() *core.AddressSpace { return p.as }

// Mmap maps size bytes and returns the chosen address.
func (p *Process) Mmap(size uint64, prot vm.Prot, flags vm.MapFlags) (addr.V, error) {
	return p.as.Mmap(0, size, prot, flags, nil, 0)
}

// MmapFile maps size bytes of the file starting at fileOff.
func (p *Process) MmapFile(size uint64, prot vm.Prot, flags vm.MapFlags, f *fs.File, fileOff uint64) (addr.V, error) {
	return p.as.Mmap(0, size, prot, flags, f, fileOff)
}

// Munmap unmaps [start, start+size).
func (p *Process) Munmap(start addr.V, size uint64) error {
	return p.as.Munmap(start, size)
}

// Mremap moves a mapping and returns its new address.
func (p *Process) Mremap(start addr.V, size uint64) (addr.V, error) {
	return p.as.Mremap(start, size)
}

// Mprotect changes mapping protections.
func (p *Process) Mprotect(start addr.V, size uint64, prot vm.Prot) error {
	return p.as.Mprotect(start, size, prot)
}

// ReadAt reads process memory.
func (p *Process) ReadAt(buf []byte, v addr.V) error { return p.as.ReadAt(buf, v) }

// WriteAt writes process memory.
func (p *Process) WriteAt(buf []byte, v addr.V) error { return p.as.WriteAt(buf, v) }

// LoadByte reads one byte of process memory.
func (p *Process) LoadByte(v addr.V) (byte, error) { return p.as.LoadByte(v) }

// StoreByte writes one byte of process memory.
func (p *Process) StoreByte(v addr.V, b byte) error { return p.as.StoreByte(v, b) }

// Touch performs a minimal access, faulting as needed.
func (p *Process) Touch(v addr.V, write bool) error { return p.as.Touch(v, write) }

// ForkOpt configures a single Fork call. Options apply in order, so a
// later WithWorkers overrides the Parallelism a WithForkOptions set.
type ForkOpt func(*forkCfg)

type forkCfg struct {
	mode     core.ForkMode
	haveMode bool
	opts     core.ForkOptions
}

// WithMode selects the fork engine for this call — the paper's opt-in
// on_demand_fork() syscall. Without it, Fork resolves the engine from
// the procfs-style configuration (SetForkMode, then the kernel
// default).
func WithMode(mode core.ForkMode) ForkOpt {
	return func(c *forkCfg) {
		c.mode = mode
		c.haveMode = true
	}
}

// WithWorkers fans the fork's tree copy out over up to n workers
// (core.ForkOptions.Parallelism). 0 and 1 select the sequential
// engine; negative values panic by contract when the fork runs.
func WithWorkers(n int) ForkOpt {
	return func(c *forkCfg) { c.opts.Parallelism = n }
}

// WithForkOptions replaces the full core.ForkOptions — the ablation
// and huge-table-sharing knobs beyond what WithWorkers covers.
func WithForkOptions(opts core.ForkOptions) ForkOpt {
	return func(c *forkCfg) { c.opts = opts }
}

// Fork duplicates the process. With no options it uses the engine
// configured for the process (classic by default; on-demand-fork if
// procfs says so); functional options select the engine and tune the
// copy explicitly. This is the single fork entry point of the v1 API.
func (p *Process) Fork(opts ...ForkOpt) (*Process, error) {
	var cfg forkCfg
	for _, o := range opts {
		o(&cfg)
	}
	mode := cfg.mode
	if !cfg.haveMode {
		mode = p.k.forkModeFor(p.pid)
	}
	return p.forkInternal(mode, cfg.opts)
}

func (p *Process) forkInternal(mode core.ForkMode, opts core.ForkOptions) (*Process, error) {
	// Malformed options panic before p.mu is taken: a caller that
	// recovers must be left with a usable process, not a locked one.
	opts.Validate()
	// Tenant admission runs before p.mu so a queued fork blocks only
	// its caller, not the process's other syscalls. Over-quota and
	// memory-pressured forks wait here (bounded) and surface
	// tenant.ErrQuotaExceeded, never ErrNoMem.
	if err := p.admitFork(); err != nil {
		return nil, err
	}
	p.mu.Lock()
	if p.exited {
		p.mu.Unlock()
		return nil, fmt.Errorf("kernel: fork from exited process %d: %w", p.pid, ErrExited)
	}
	childAS, err := core.ForkWithOptions(p.as, mode, opts)
	p.mu.Unlock()
	if err != nil {
		return nil, err
	}

	k := p.k
	k.mu.Lock()
	child := &Process{
		k:      k,
		pid:    k.nextPID,
		as:     childAS,
		parent: p.pid,
		tenant: p.tenant,
		done:   make(chan struct{}),
	}
	k.nextPID++
	k.procs[child.pid] = child
	// Children inherit the procfs fork-mode configuration.
	if m, ok := k.forkModes[p.pid]; ok {
		k.forkModes[child.pid] = m
	}
	k.mu.Unlock()
	return child, nil
}

// Exit terminates the process, tearing down its address space and
// releasing every shared page-table reference it holds.
func (p *Process) Exit() {
	p.mu.Lock()
	if p.exited {
		p.mu.Unlock()
		return
	}
	p.exited = true
	p.as.Teardown()
	// Fold the dying process's TLB counters into the registry so
	// system-wide TLB telemetry survives process exit.
	if m := p.k.met; m.Enabled() {
		st := p.as.TLB().Stats()
		m.TLB.Hits.Add(st.Hits)
		m.TLB.Misses.Add(st.Misses)
		m.TLB.Flushes.Add(st.Flushes)
		m.TLB.Shootdowns.Add(st.Shootdowns)
	}
	close(p.done)
	p.mu.Unlock()

	p.k.mu.Lock()
	delete(p.k.procs, p.pid)
	delete(p.k.forkModes, p.pid)
	p.k.mu.Unlock()
}

// Exited reports whether the process has exited.
func (p *Process) Exited() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.exited
}

// Wait blocks until the process exits (the waitpid of the benchmarks).
func (p *Process) Wait() { <-p.done }
