package kernel

import (
	"errors"
	"io/fs"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/mem/vm"
	"repro/internal/metrics"
)

const (
	testMiB   = uint64(1) << 20
	testProt  = vm.ProtRead | vm.ProtWrite
	testFlags = vm.MapPrivate | vm.MapPopulate
)

// TestForkAPIEquivalence proves the ways of selecting the engine for
// Fork are behaviourally identical: same engine charged, same
// page-table sharing, same copy-on-write semantics.
func TestForkAPIEquivalence(t *testing.T) {
	paths := []struct {
		name string
		fork func(p *Process) (*Process, error)
	}{
		{"Fork+WithMode", func(p *Process) (*Process, error) {
			return p.Fork(WithMode(core.ForkOnDemand))
		}},
		{"Fork+WithForkOptions", func(p *Process) (*Process, error) {
			return p.Fork(WithMode(core.ForkOnDemand), WithForkOptions(core.ForkOptions{}))
		}},
		{"Fork+SetForkMode", func(p *Process) (*Process, error) {
			if err := p.k.SetForkMode(p.PID(), core.ForkOnDemand); err != nil {
				return nil, err
			}
			return p.Fork()
		}},
	}
	type observed struct {
		odForks, clForks, tablesShared uint64
	}
	var results []observed
	for _, path := range paths {
		t.Run(path.name, func(t *testing.T) {
			k := New()
			p := k.NewProcess()
			defer p.Exit()
			base, err := p.Mmap(8*testMiB, testProt, testFlags)
			if err != nil {
				t.Fatal(err)
			}
			if err := p.StoreByte(base, 7); err != nil {
				t.Fatal(err)
			}
			before := k.MetricsSnapshot()
			c, err := path.fork(p)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Exit()
			d := k.MetricsSnapshot().Sub(before)
			results = append(results, observed{
				odForks:      d.Fork.OnDemand().Forks,
				clForks:      d.Fork.Classic().Forks,
				tablesShared: d.Fork.TablesShared,
			})
			// Copy-on-write semantics must hold on every path.
			if err := c.StoreByte(base, 9); err != nil {
				t.Fatal(err)
			}
			pv, err := p.LoadByte(base)
			if err != nil {
				t.Fatal(err)
			}
			cv, err := c.LoadByte(base)
			if err != nil {
				t.Fatal(err)
			}
			if pv != 7 || cv != 9 {
				t.Fatalf("CoW broken: parent=%d child=%d", pv, cv)
			}
		})
	}
	if len(results) != len(paths) {
		t.Fatalf("only %d/%d paths ran", len(results), len(paths))
	}
	for i, r := range results[1:] {
		if r != results[0] {
			t.Errorf("%s charged %+v, want %+v (same as %s)",
				paths[i+1].name, r, results[0], paths[0].name)
		}
	}
	if results[0].odForks != 1 || results[0].clForks != 0 {
		t.Errorf("engine attribution wrong: %+v", results[0])
	}
	if results[0].tablesShared == 0 {
		t.Errorf("on-demand fork shared no tables")
	}
}

// TestForkWorkersEquivalence proves WithWorkers(n) is the same knob as
// WithForkOptions(ForkOptions{Parallelism: n}). The parent maps 128 MiB
// (64 regions of 2 MiB), enough for a Parallelism > 1 fork to fan out,
// so both sides must charge one fanned-out fork.
func TestForkWorkersEquivalence(t *testing.T) {
	run := func(fork func(p *Process) (*Process, error)) (parallelForks, parallelTasks uint64) {
		k := New()
		p := k.NewProcess()
		defer p.Exit()
		if _, err := p.Mmap(128*testMiB, testProt, testFlags); err != nil {
			t.Fatal(err)
		}
		before := k.MetricsSnapshot()
		c, err := fork(p)
		if err != nil {
			t.Fatal(err)
		}
		c.Exit()
		c.Wait()
		d := k.MetricsSnapshot().Sub(before)
		return d.Fork.ParallelForks, d.Fork.ParallelTasks
	}
	optForks, optTasks := run(func(p *Process) (*Process, error) {
		return p.Fork(WithMode(core.ForkOnDemand), WithWorkers(4))
	})
	fullForks, fullTasks := run(func(p *Process) (*Process, error) {
		return p.Fork(WithMode(core.ForkOnDemand), WithForkOptions(core.ForkOptions{Parallelism: 4}))
	})
	if optForks != 1 || optTasks == 0 {
		t.Errorf("WithWorkers(4) on 128 MiB charged forks=%d tasks=%d, want one fanned-out fork",
			optForks, optTasks)
	}
	if optForks != fullForks || optTasks != fullTasks {
		t.Errorf("WithWorkers charged forks=%d tasks=%d; WithForkOptions charged forks=%d tasks=%d",
			optForks, optTasks, fullForks, fullTasks)
	}
}

// TestMetricsSnapshotEndToEnd drives the quickstart flow and checks
// the counters every layer should have charged.
func TestMetricsSnapshotEndToEnd(t *testing.T) {
	k := New()
	p := k.NewProcess()
	base, err := p.Mmap(16*testMiB, testProt, testFlags)
	if err != nil {
		t.Fatal(err)
	}
	c, err := p.Fork(WithMode(core.ForkOnDemand))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.StoreByte(base, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.LoadByte(base + 1); err != nil {
		t.Fatal(err)
	}
	snap := k.MetricsSnapshot()
	od := snap.Fork.OnDemand()
	if od.Forks != 1 {
		t.Errorf("ondemand forks = %d, want 1", od.Forks)
	}
	if od.Latency.Count != 1 || od.Latency.SumNS == 0 {
		t.Errorf("ondemand latency histogram empty: %+v", od.Latency)
	}
	if snap.Fork.TablesShared == 0 {
		t.Errorf("tables_shared = 0 after on-demand fork")
	}
	if snap.Fault.WriteFaults == 0 || snap.Fault.WriteLatency.Count == 0 {
		t.Errorf("write fault path uncharged: %+v", snap.Fault)
	}
	if snap.Fault.TableSplits == 0 {
		t.Errorf("child write to shared table did not charge a split")
	}
	if snap.Alloc.ShardHits == 0 {
		t.Errorf("populate allocated %d MiB without a shard hit", 16)
	}
	if snap.Alloc.FramesInUse <= 0 || snap.Alloc.FramesPeak < snap.Alloc.FramesInUse {
		t.Errorf("frame gauges inconsistent: in_use=%d peak=%d",
			snap.Alloc.FramesInUse, snap.Alloc.FramesPeak)
	}
	if snap.TLB.Misses == 0 {
		t.Errorf("no TLB misses after faulting accesses")
	}

	// Exiting processes must retire their TLB stats, not lose them.
	c.Exit()
	p.Exit()
	after := k.MetricsSnapshot()
	if after.TLB.Hits < snap.TLB.Hits || after.TLB.Misses < snap.TLB.Misses {
		t.Errorf("TLB counters went backwards across exit: before=%+v after=%+v",
			snap.TLB, after.TLB)
	}
}

// TestMetricsDisabled checks WithMetricsDisabled keeps every counter
// at zero while the system still works.
func TestMetricsDisabled(t *testing.T) {
	k := New(WithMetricsDisabled())
	p := k.NewProcess()
	defer p.Exit()
	base, err := p.Mmap(4*testMiB, testProt, testFlags)
	if err != nil {
		t.Fatal(err)
	}
	c, err := p.Fork(WithMode(core.ForkOnDemand))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.StoreByte(base, 1); err != nil {
		t.Fatal(err)
	}
	c.Exit()
	snap := k.MetricsSnapshot()
	if f := snap.Fork.OnDemand().Forks; f != 0 {
		t.Errorf("disabled registry counted %d forks", f)
	}
	if snap.Fault.WriteFaults != 0 || snap.Alloc.ShardHits != 0 {
		t.Errorf("disabled registry counted faults/allocs: %+v %+v", snap.Fault, snap.Alloc)
	}
	// Gauges describe allocator state, not collection, so they still read.
	if snap.Alloc.FramesInUse <= 0 {
		t.Errorf("frames_in_use gauge = %d with live mapping", snap.Alloc.FramesInUse)
	}
}

// TestProcfsRouter checks every route and the not-exist contract.
func TestProcfsRouter(t *testing.T) {
	k := New()
	p := k.NewProcess()
	defer p.Exit()
	if _, err := p.Mmap(2*testMiB, testProt, testFlags); err != nil {
		t.Fatal(err)
	}

	maps, err := k.Procfs("/proc/1/maps")
	if err != nil {
		t.Fatal(err)
	}
	if maps != p.Maps() {
		t.Errorf("maps route mismatch:\n%s\nvs\n%s", maps, p.Maps())
	}
	status, err := k.Procfs("/proc/1/status")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(status, "Pid:\t1\n") {
		t.Errorf("status route missing pid: %q", status)
	}
	metricsText, err := k.Procfs("/proc/odf/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if metricsText != k.MetricsSnapshot().Render() {
		t.Errorf("/proc/odf/metrics differs from MetricsSnapshot().Render()")
	}
	profileText, err := k.Procfs("/proc/odf/profile")
	if err != nil {
		t.Fatal(err)
	}
	if want := metrics.RenderAttribution(metrics.Attribution(k.MetricsSnapshot())); profileText != want {
		t.Errorf("/proc/odf/profile = %q, want the attribution of MetricsSnapshot() %q", profileText, want)
	}

	for _, path := range []string{
		"", "/", "/proc", "/proc/", "/proc/odf/nope",
		"/proc/999/maps", "/proc/abc/maps", "/proc/1/nope", "/proc/1/maps/extra",
		"/sys/kernel", "proc/1/maps",
	} {
		if _, err := k.Procfs(path); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("Procfs(%q) = %v, want fs.ErrNotExist", path, err)
		}
	}
}

// TestErrExitedSentinel checks operations on dead processes classify
// with errors.Is.
func TestErrExitedSentinel(t *testing.T) {
	k := New()
	p := k.NewProcess()
	pid := p.PID()
	p.Exit()
	if _, err := p.Fork(WithMode(core.ForkClassic)); !errors.Is(err, ErrExited) {
		t.Errorf("Fork on exited process = %v, want ErrExited", err)
	}
	if err := k.SetForkMode(pid, core.ForkOnDemand); !errors.Is(err, ErrExited) {
		t.Errorf("SetForkMode on exited pid = %v, want ErrExited", err)
	}
}
