package core

// Parallel fork engine: fan the tree copy out across present PMD-slot
// ranges, the way Mitosis parallelizes page-table work across the
// radix tree's upper levels. The sequential walk of the (tiny) upper
// levels duplicates PGD/PUD tables and collects one task per chunk of
// PMD slots; a bounded, reusable worker pool then copies the chunks
// concurrently.
//
// Data-race freedom comes from ownership, not locking: every task
// writes a disjoint slot range of a freshly allocated destination
// table nobody else can reach (distinct array indices of private
// tables), reads of source entries are atomic words, shared leaf
// tables are taken under their own locks exactly as in the sequential
// engine, and all metric/refcount traffic is atomic. The WaitGroup in
// forkRun.execute gives the caller a happens-before edge over
// everything the workers wrote.

import (
	"context"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/failpoint"
	"repro/internal/mem/addr"
	"repro/internal/mem/pagetable"
	"repro/internal/trace"
)

// forkTask is one unit of fork-time copy work: a chunked slot range of
// one source PMD table, copied into the corresponding slots of the
// destination table. Tasks are plain values inside a pooled run — no
// per-task closure — so fanning a fork out allocates nothing once the
// run pool is warm.
type forkTask struct {
	src, dst *pagetable.Table
	lo, hi   int
}

// forkRun is the shared state of one parallel fork: the engine
// selection, the task list, the work-stealing cursor, and the
// abort/join machinery. Pool workers receive the run itself and pull
// tasks from it, so a fork hands one pointer per helper to the pool
// instead of one closure per task.
type forkRun struct {
	as    *AddressSpace
	child *AddressSpace
	mode  ForkMode
	opts  ForkOptions
	tasks []forkTask

	next       atomic.Int64
	aborted    atomic.Bool
	firstPanic atomic.Pointer[any]
	wg         sync.WaitGroup
}

// forkRunPool recycles runs (and their task slices) across forks.
var forkRunPool = sync.Pool{New: func() any { return new(forkRun) }}

// getForkRun returns a reset run for one fork invocation.
func getForkRun(as, child *AddressSpace, mode ForkMode, opts ForkOptions) *forkRun {
	r := forkRunPool.Get().(*forkRun)
	r.as, r.child = as, child
	r.mode, r.opts = mode, opts
	r.tasks = r.tasks[:0]
	r.next.Store(0)
	r.aborted.Store(false)
	r.firstPanic.Store(nil)
	return r
}

// release drops the run's space references and parks it for reuse. Not
// called when execute re-raises a task panic — an aborted fork's run is
// left to the garbage collector rather than threading cleanup through
// the unwind.
func (r *forkRun) release() {
	r.as, r.child = nil, nil
	forkRunPool.Put(r)
}

// Chunk sizes, in PMD slots per task. Classic fork does 512 PTE copies
// plus refcount traffic per slot, so modest chunks (16 slots = 32 MiB)
// balance load without swamping the task list. On-demand fork does one
// counter increment per slot, so only coarse chunks are worth a
// handoff.
const (
	classicChunkSlots  = 16
	onDemandChunkSlots = 128
)

// The worker pool is process-wide, sized to GOMAXPROCS, and reusable
// across forks — fork latency must not include goroutine spawning.
// Workers never submit runs themselves, and submission never blocks
// (see forkRun.execute), so the pool cannot deadlock however many
// forks run concurrently.
var (
	forkPoolOnce sync.Once
	forkPoolCh   chan *forkRun
	forkPoolN    int
)

func forkPoolInit() {
	forkPoolOnce.Do(func() {
		forkPoolN = runtime.GOMAXPROCS(0)
		forkPoolCh = make(chan *forkRun)
		for i := 0; i < forkPoolN; i++ {
			go func(i int) {
				// The pprof label makes CPU samples of the copy loops
				// attributable per worker (`go tool pprof` → tag filter).
				labels := pprof.Labels("odf", "fork-worker", "worker", strconv.Itoa(i))
				actor := trace.ActorForkWorker(i + 1)
				pprof.Do(context.Background(), labels, func(context.Context) {
					for r := range forkPoolCh {
						r.participate(actor)
						r.wg.Done()
					}
				})
			}(i)
		}
	})
}

// forkPoolSize returns the number of pool workers available to help a
// forking goroutine.
func forkPoolSize() int {
	forkPoolInit()
	return forkPoolN
}

// participate claims and runs tasks until the list is drained or the
// run aborts. A task that panics (a mid-copy allocation failure, real
// or injected) must not crash a pool worker: the panic is trapped, the
// remaining participants stop claiming tasks, and execute re-raises
// the first panic value on the forking goroutine after the join.
func (r *forkRun) participate(actor int32) {
	defer func() {
		if p := recover(); p != nil {
			v := p
			r.firstPanic.CompareAndSwap(nil, &v)
			r.aborted.Store(true)
		}
	}()
	for !r.aborted.Load() {
		i := int(r.next.Add(1)) - 1
		if i >= len(r.tasks) {
			return
		}
		t := &r.tasks[i]
		switch r.mode {
		case ForkClassic:
			r.as.copyPMDRangeClassic(t.src, t.dst, t.lo, t.hi, r.child, actor)
		default:
			r.as.copyPMDRangeOnDemand(t.src, t.dst, t.lo, t.hi, r.child, r.opts, actor)
		}
	}
}

// execute runs the collected tasks with up to par participants: the
// caller plus at most par-1 pool workers. Tasks are claimed with an
// atomic cursor (work stealing), so uneven chunks self-balance. If the
// pool is saturated by concurrent forks, submission falls through and
// the caller simply runs the remaining work itself — slower, never
// stuck. The WaitGroup join is unconditional, so no worker can still
// be writing into the child when a rollback starts; only after ALL
// participants have quiesced is the first panic re-raised on the
// forking goroutine, where ForkWithOptions' transaction boundary
// unwinds the partial child.
func (r *forkRun) execute(par int) {
	if len(r.tasks) == 0 {
		return
	}
	if par > len(r.tasks) {
		par = len(r.tasks)
	}
	if par <= 1 {
		for i := range r.tasks {
			t := &r.tasks[i]
			switch r.mode {
			case ForkClassic:
				r.as.copyPMDRangeClassic(t.src, t.dst, t.lo, t.hi, r.child, trace.ActorApp)
			default:
				r.as.copyPMDRangeOnDemand(t.src, t.dst, t.lo, t.hi, r.child, r.opts, trace.ActorApp)
			}
		}
		return
	}
	forkPoolInit()
	for i := 1; i < par; i++ {
		r.wg.Add(1)
		select {
		case forkPoolCh <- r:
		default:
			r.wg.Done()
		}
	}
	r.participate(trace.ActorApp)
	r.wg.Wait()
	if p := r.firstPanic.Load(); p != nil {
		panic(*p)
	}
}

// presentPMDSlots counts the present PMD slots (2 MiB regions) of the
// address space using the O(1) per-table tallies — the quantity the
// sequential-fallback threshold compares against.
func (as *AddressSpace) presentPMDSlots() int {
	total := 0
	var walk func(t *pagetable.Table)
	walk = func(t *pagetable.Table) {
		if t.Level == addr.PMD {
			total += t.PresentCount()
			return
		}
		for i := 0; i < addr.EntriesPerTable; i++ {
			if c := t.Child(i); c != nil {
				walk(c)
			}
		}
	}
	walk(as.w.Root)
	return total
}

// appendRangeTasks splits a PMD table into chunked slot-range tasks,
// skipping chunks with no present entries.
func appendRangeTasks(tasks []forkTask, src, dst *pagetable.Table, chunk int) []forkTask {
	if src.PresentCount() == 0 {
		return tasks
	}
	for lo := 0; lo < addr.EntriesPerTable; lo += chunk {
		hi := min(lo+chunk, addr.EntriesPerTable)
		any := false
		for i := lo; i < hi; i++ {
			if src.Entry(i).Present() {
				any = true
				break
			}
		}
		if any {
			tasks = append(tasks, forkTask{src: src, dst: dst, lo: lo, hi: hi})
		}
	}
	return tasks
}

// collectClassicTasks walks the upper levels sequentially (duplicating
// PGD/PUD tables, as copyTreeClassic does) and appends one task per
// chunk of PMD slots. Each task owns its destination slot range.
func (as *AddressSpace) collectClassicTasks(src, dst *pagetable.Table, child *AddressSpace, tasks []forkTask) []forkTask {
	if src.Level == addr.PMD {
		return appendRangeTasks(tasks, src, dst, classicChunkSlots)
	}
	fp := as.alloc.Failpoints()
	for i := 0; i < addr.EntriesPerTable; i++ {
		childTable := src.Child(i)
		if childTable == nil {
			continue
		}
		as.noteUpperWalk()
		as.failInject(fp, failpoint.ForkWalk)
		newTable := pagetable.NewTableFor(as.alloc, childTable.Level, child.charger)
		dst.SetChild(i, newTable, src.Entry(i))
		tasks = as.collectClassicTasks(childTable, newTable, child, tasks)
	}
	return tasks
}

// collectOnDemandTasks is the on-demand counterpart: upper levels are
// duplicated (or whole PMD tables shared, under ShareHugePMD) inline —
// that work is a handful of counter increments — and PMD slot chunks
// become tasks.
func (as *AddressSpace) collectOnDemandTasks(src, dst *pagetable.Table, child *AddressSpace, opts ForkOptions, tasks []forkTask) []forkTask {
	if src.Level == addr.PMD {
		return appendRangeTasks(tasks, src, dst, onDemandChunkSlots)
	}
	fp := as.alloc.Failpoints()
	for i := 0; i < addr.EntriesPerTable; i++ {
		childTable := src.Child(i)
		if childTable == nil {
			continue
		}
		as.noteUpperWalk()
		if opts.ShareHugePMD && childTable.Level == addr.PMD && hugeOnly(childTable) {
			as.sharePMDTable(src, dst, i, childTable, child)
			continue
		}
		as.failInject(fp, failpoint.ForkWalk)
		newTable := pagetable.NewTableFor(as.alloc, childTable.Level, child.charger)
		dst.SetChild(i, newTable, src.Entry(i))
		tasks = as.collectOnDemandTasks(childTable, newTable, child, opts, tasks)
	}
	return tasks
}
