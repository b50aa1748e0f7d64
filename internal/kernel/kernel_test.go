package kernel

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/mem/addr"
	"repro/internal/mem/vm"
	"repro/internal/metrics"
)

const rw = vm.ProtRead | vm.ProtWrite

func TestProcessLifecycle(t *testing.T) {
	k := New()
	p := k.NewProcess()
	if p.PID() != 1 || p.Parent() != 0 {
		t.Errorf("pid=%d parent=%d", p.PID(), p.Parent())
	}
	if k.NumProcesses() != 1 {
		t.Error("process table wrong")
	}
	if got := k.Process(p.PID()); got != p {
		t.Error("Process lookup failed")
	}
	p.Exit()
	if !p.Exited() {
		t.Error("Exited false after exit")
	}
	if k.NumProcesses() != 0 {
		t.Error("process not removed on exit")
	}
	if got := k.Allocator().Allocated(); got != 0 {
		t.Errorf("leak: %d frames", got)
	}
	p.Exit() // double exit is a no-op
	if _, err := p.Fork(); err == nil {
		t.Error("fork from exited process succeeded")
	}
}

func TestForkSemanticsViaSyscalls(t *testing.T) {
	for _, mode := range []core.ForkMode{core.ForkClassic, core.ForkOnDemand} {
		t.Run(mode.String(), func(t *testing.T) {
			k := New()
			p := k.NewProcess()
			base, err := p.Mmap(addr.PTECoverage, rw, vm.MapPrivate|vm.MapPopulate)
			if err != nil {
				t.Fatal(err)
			}
			msg := []byte("fork me")
			if err := p.WriteAt(msg, base); err != nil {
				t.Fatal(err)
			}
			c, err := p.Fork(WithMode(mode))
			if err != nil {
				t.Fatal(err)
			}
			if c.Parent() != p.PID() {
				t.Errorf("child parent = %d", c.Parent())
			}
			got := make([]byte, len(msg))
			if err := c.ReadAt(got, base); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, msg) {
				t.Errorf("child read %q", got)
			}
			if err := c.StoreByte(base, 'X'); err != nil {
				t.Fatal(err)
			}
			if b, _ := p.LoadByte(base); b != 'f' {
				t.Errorf("COW broken: parent byte %c", b)
			}
			c.Exit()
			p.Exit()
			if got := k.Allocator().Allocated(); got != 0 {
				t.Errorf("leak: %d", got)
			}
		})
	}
}

// forkDelta forks p and returns the child with the metrics delta the
// fork charged.
func forkDelta(t *testing.T, k *Kernel, p *Process) (*Process, metrics.Snapshot) {
	t.Helper()
	before := k.MetricsSnapshot()
	c, err := p.Fork()
	if err != nil {
		t.Fatal(err)
	}
	return c, k.MetricsSnapshot().Sub(before)
}

func TestProcfsForkModeConfig(t *testing.T) {
	k := New()
	proc := k.NewProcess()
	if _, err := proc.Mmap(2*addr.PTECoverage, rw, vm.MapPrivate|vm.MapPopulate); err != nil {
		t.Fatal(err)
	}

	// Default mode is classic: the fork copies PTEs.
	c1, d := forkDelta(t, k, proc)
	if d.Fork.PTEsCopied == 0 {
		t.Error("default fork did not copy PTEs")
	}
	c1.Exit()

	// Flip the procfs switch: the *same* Fork call now runs ODF.
	if err := k.SetForkMode(proc.PID(), core.ForkOnDemand); err != nil {
		t.Fatal(err)
	}
	c2, d := forkDelta(t, k, proc)
	if got := d.Fork.PTEsCopied; got != 0 {
		t.Errorf("configured ODF fork copied %d PTEs", got)
	}
	if d.Fork.TablesShared == 0 {
		t.Error("configured ODF fork shared no tables")
	}

	// Children inherit the configuration.
	g, d := forkDelta(t, k, c2)
	if d.Fork.PTEsCopied != 0 {
		t.Error("child did not inherit fork mode")
	}
	g.Exit()
	c2.Exit()
	proc.Exit()

	if err := k.SetForkMode(999, core.ForkOnDemand); err == nil {
		t.Error("SetForkMode on missing pid succeeded")
	}
}

func TestDefaultForkModeOption(t *testing.T) {
	k := New(WithDefaultForkMode(core.ForkOnDemand))
	proc := k.NewProcess()
	if _, err := proc.Mmap(addr.PTECoverage, rw, vm.MapPrivate|vm.MapPopulate); err != nil {
		t.Fatal(err)
	}
	c, d := forkDelta(t, k, proc)
	if d.Fork.PTEsCopied != 0 {
		t.Error("default ODF kernel used classic fork")
	}
	c.Exit()
	proc.Exit()
}

func TestWaitUnblocksOnExit(t *testing.T) {
	k := New()
	p := k.NewProcess()
	c, err := p.Fork()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.Wait()
	}()
	c.Exit()
	wg.Wait() // deadlocks (test timeout) if Wait is broken
	p.Exit()
}

func TestFileMappingThroughKernel(t *testing.T) {
	k := New()
	f := k.FS().Create("lib.so")
	content := []byte("shared library text segment")
	f.WriteAt(content, 0)

	p := k.NewProcess()
	v, err := p.MmapFile(addr.PageSize, vm.ProtRead, vm.MapPrivate, f, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(content))
	if err := p.ReadAt(got, v); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Errorf("file map read %q", got)
	}
	// The mapping shows through fork too.
	c, err := p.Fork(WithMode(core.ForkOnDemand))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.ReadAt(got, v); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Errorf("child file map read %q", got)
	}
	c.Exit()
	p.Exit()
}

func TestConcurrentForkInstances(t *testing.T) {
	// Three benchmark instances forking in parallel against one kernel
	// (the Figure 2 concurrent configuration): must be race-free and
	// leak-free.
	k := New()
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := k.NewProcess()
			if _, err := p.Mmap(4*addr.PTECoverage, rw, vm.MapPrivate|vm.MapPopulate); err != nil {
				t.Error(err)
				return
			}
			for j := 0; j < 10; j++ {
				mode := core.ForkClassic
				if j%2 == 0 {
					mode = core.ForkOnDemand
				}
				c, err := p.Fork(WithMode(mode))
				if err != nil {
					t.Error(err)
					return
				}
				c.Exit()
			}
			p.Exit()
		}()
	}
	wg.Wait()
	if got := k.Allocator().Allocated(); got != 0 {
		t.Errorf("leak: %d frames", got)
	}
}

func TestSyscallWrappers(t *testing.T) {
	k := New()
	p := k.NewProcess()
	defer p.Exit()
	base, err := p.Mmap(4*addr.PageSize, rw, vm.MapPrivate|vm.MapPopulate)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Touch(base, true); err != nil {
		t.Fatal(err)
	}
	if err := p.Mprotect(base, addr.PageSize, vm.ProtRead); err != nil {
		t.Fatal(err)
	}
	if err := p.StoreByte(base, 1); err == nil {
		t.Error("write after mprotect succeeded")
	}
	nb, err := p.Mremap(base+addr.V(2*addr.PageSize), addr.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.StoreByte(nb, 7); err != nil {
		t.Fatal(err)
	}
	if err := p.Munmap(nb, addr.PageSize); err != nil {
		t.Fatal(err)
	}
	if p.Space() == nil {
		t.Error("Space nil")
	}
}

// A malformed ForkOptions value panics by contract, but the panic must
// fire before any process or kernel lock is taken: a caller that
// recovers has to be left with a fully usable process.
func TestForkMisusePanicLeavesProcessUsable(t *testing.T) {
	k := New()
	p := k.NewProcess()
	base, err := p.Mmap(1<<20, rw, vm.MapPrivate|vm.MapPopulate)
	if err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("negative Parallelism did not panic")
			}
		}()
		p.Fork(WithMode(core.ForkClassic), WithWorkers(-1))
	}()
	// The process must still fork, fault, and exit normally.
	c, err := p.Fork(WithMode(core.ForkOnDemand), WithWorkers(2))
	if err != nil {
		t.Fatalf("fork after recovered panic: %v", err)
	}
	if err := c.StoreByte(base, 7); err != nil {
		t.Fatalf("child write after recovered panic: %v", err)
	}
	c.Exit()
	p.Exit()
	if got := k.Allocator().Allocated(); got != 0 {
		t.Errorf("leak: %d frames", got)
	}
}
