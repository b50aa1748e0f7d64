package core

// The fork walk and its range-task executor, shared by both engines at
// every Parallelism. The walk of the (tiny) upper levels runs on the
// forking goroutine: it duplicates PGD/PUD tables — or, under
// ShareHugePMD, shares a huge-only PMD table whole — and collects one
// task per PMD table, or per chunk of PMD slots when the fork fans
// out. The tasks then run on the forking goroutine alone, or across a
// bounded, reusable worker pool, the way Mitosis parallelizes
// page-table work across the radix tree's upper levels.
//
// Data-race freedom comes from ownership, not locking: every task
// writes a disjoint slot range of a freshly allocated destination
// table nobody else can reach (distinct array indices of private
// tables), reads of source entries are atomic words, shared leaf
// tables are taken under their own locks, and all metric/refcount
// traffic is atomic. The WaitGroup in forkRun.execute gives the caller
// a happens-before edge over everything the workers wrote.

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

// forkTask is one unit of fork-time copy work: a slot range of one
// source PMD table, copied into the corresponding slots of the
// destination table. Tasks are plain values inside a pooled run — no
// per-task closure — so a fork allocates nothing for them once the run
// pool is warm.
type forkTask struct {
	src, dst *pagetable.Table
	lo, hi   int
}

// forkRun is the shared state of one fork: the engine selection, the
// task list, the work-stealing cursor, and the abort/join machinery.
// Pool workers receive the run itself and pull tasks from it, so a
// fork hands one pointer per helper to the pool instead of one closure
// per task.
type forkRun struct {
	as    *AddressSpace
	child *AddressSpace
	mode  ForkMode
	opts  ForkOptions
	chunk int // PMD slots per task
	tasks []forkTask

	next       atomic.Int64
	aborted    atomic.Bool
	firstPanic atomic.Pointer[any]
	wg         sync.WaitGroup
}

// forkRunPool recycles runs (and their task slices) across forks.
var forkRunPool = sync.Pool{New: func() any { return new(forkRun) }}

// getForkRun returns a reset run for one fork invocation.
func getForkRun(as, child *AddressSpace, mode ForkMode, opts ForkOptions, chunk int) *forkRun {
	r := forkRunPool.Get().(*forkRun)
	r.as, r.child = as, child
	r.mode, r.opts, r.chunk = mode, opts, chunk
	r.tasks = r.tasks[:0]
	r.next.Store(0)
	r.aborted.Store(false)
	r.firstPanic.Store(nil)
	return r
}

// release drops the run's space references and parks it for reuse. Not
// called when a task panics — an aborted fork's run is left to the
// garbage collector rather than threading cleanup through the unwind.
func (r *forkRun) release() {
	r.as, r.child = nil, nil
	forkRunPool.Put(r)
}

// Chunk sizes, in PMD slots per task, of a fork that fans out. Classic
// fork does 512 PTE copies plus refcount traffic per slot, so modest
// chunks (16 slots = 32 MiB) balance load without swamping the task
// list. On-demand fork does one counter increment per slot, so only
// coarse chunks are worth a handoff.
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
		r.run(&r.tasks[i], actor)
	}
}

// run performs one task with the run's engine; actor names the
// participant running it.
func (r *forkRun) run(t *forkTask, actor int32) {
	if r.mode == ForkClassic {
		r.as.copyPMDRangeClassic(t.src, t.dst, t.lo, t.hi, r.child, actor)
	} else {
		r.as.copyPMDRangeOnDemand(t.src, t.dst, t.lo, t.hi, r.child, r.opts, actor)
	}
}

// execute runs the collected tasks with up to par participants: the
// caller plus at most par-1 pool workers. With one participant the
// caller runs every task itself, and a task panic unwinds straight to
// the transaction boundary. Otherwise tasks are claimed with an
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
	if par = min(par, len(r.tasks)); par <= 1 {
		for i := range r.tasks {
			r.run(&r.tasks[i], trace.ActorApp)
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

// presentPMDSlots counts the present PMD slots (2 MiB regions) under
// table t using the O(1) per-table tallies — the quantity the fan-out
// threshold compares against.
func presentPMDSlots(t *pagetable.Table) int {
	if t.Level == addr.PMD {
		return t.PresentCount()
	}
	total := 0
	for i := 0; i < addr.EntriesPerTable; i++ {
		if c := t.Child(i); c != nil {
			total += presentPMDSlots(c)
		}
	}
	return total
}

// collect walks the upper levels from src on the forking goroutine,
// building the matching levels under dst. Each PGD/PUD table is
// duplicated; on the on-demand engine with ShareHugePMD, a PMD table
// whose entries all map 2 MiB pages is shared whole instead (§4). Each
// remaining PMD table becomes tasks of r.chunk slots, skipping chunks
// with no present entries; each task owns its destination slot range.
func (r *forkRun) collect(src, dst *pagetable.Table) {
	if src.Level == addr.PMD {
		if src.PresentCount() == 0 {
			return
		}
		for lo := 0; lo < addr.EntriesPerTable; lo += r.chunk {
			hi := min(lo+r.chunk, addr.EntriesPerTable)
			for i := lo; i < hi; i++ {
				if src.Entry(i).Present() {
					r.tasks = append(r.tasks, forkTask{src: src, dst: dst, lo: lo, hi: hi})
					break
				}
			}
		}
		return
	}
	as, child := r.as, r.child
	shareHuge := r.mode == ForkOnDemand && r.opts.ShareHugePMD
	fp := as.alloc.Failpoints()
	for i := 0; i < addr.EntriesPerTable; i++ {
		childTable := src.Child(i)
		if childTable == nil {
			continue
		}
		as.noteUpperWalk()
		if shareHuge && childTable.Level == addr.PMD && hugeOnly(childTable) {
			as.sharePMDTable(src, dst, i, childTable, child)
			continue
		}
		as.failInject(fp, failpoint.ForkWalk)
		newTable := pagetable.NewTableFor(as.alloc, childTable.Level, child.charger)
		dst.SetChild(i, newTable, src.Entry(i))
		r.collect(childTable, newTable)
	}
}
