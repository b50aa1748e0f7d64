package odfork_test

import (
	"errors"
	"io/fs"
	"strconv"
	"strings"
	"testing"

	"repro/odfork"
)

// TestMetricsQuickstart drives the package-doc flow and checks the
// acceptance contract of the telemetry layer: non-zero fork latency,
// fault counts, and shard hits via Metrics(), and the same numbers in
// the /proc/odf/metrics rendering.
func TestMetricsQuickstart(t *testing.T) {
	sys := odfork.NewSystem()
	p := sys.NewProcess()
	const size = 32 * odfork.MiB
	buf, err := p.Mmap(size, odfork.ProtRead|odfork.ProtWrite,
		odfork.MapPrivate|odfork.MapPopulate)
	if err != nil {
		t.Fatal(err)
	}
	child, err := p.Fork(odfork.WithMode(odfork.OnDemand))
	if err != nil {
		t.Fatal(err)
	}
	if err := child.WriteAt([]byte("hello"), buf); err != nil {
		t.Fatal(err)
	}

	snap := sys.Metrics()
	if f := snap.Fork.OnDemand().Forks; f != 1 {
		t.Errorf("ondemand forks = %d, want 1", f)
	}
	if lat := snap.Fork.OnDemand().Latency; lat.Count == 0 || lat.SumNS == 0 {
		t.Errorf("fork latency histogram empty: %+v", lat)
	}
	if snap.Fault.WriteFaults == 0 {
		t.Error("no write faults recorded after child write")
	}
	if snap.Alloc.ShardHits == 0 {
		t.Error("no allocator shard hits recorded after populate")
	}

	// The procfs rendering must report the same numbers.
	text, err := sys.Procfs("/proc/odf/metrics")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]uint64{
		"fork.ondemand.forks":         snap.Fork.OnDemand().Forks,
		"fork.tables_shared":          snap.Fork.TablesShared,
		"fault.write.count":           snap.Fault.WriteFaults,
		"fault.table_splits":          snap.Fault.TableSplits,
		"alloc.shard_hits":            snap.Alloc.ShardHits,
		"fork.ondemand.latency.count": snap.Fork.OnDemand().Latency.Count,
	}
	got := map[string]uint64{}
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed metrics line %q", line)
		}
		if _, wanted := want[name]; !wanted {
			continue
		}
		n, err := strconv.ParseUint(val, 10, 64)
		if err != nil {
			t.Fatalf("non-integer value in %q: %v", line, err)
		}
		got[name] = n
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("procfs %s = %d, snapshot says %d", name, got[name], w)
		}
	}

	// Deltas isolate one operation's cost.
	before := sys.Metrics()
	if err := child.WriteAt([]byte("x"), buf+odfork.Addr(4*odfork.MiB)); err != nil {
		t.Fatal(err)
	}
	d := sys.Metrics().Sub(before)
	if d.Fault.TableSplits != 1 {
		t.Errorf("first write to a fresh 2 MiB region split %d tables, want 1", d.Fault.TableSplits)
	}

	child.Exit()
	p.Exit()
	if sys.LiveProcesses() != 0 || sys.AllocatedFrames() != 0 {
		t.Fatalf("leak: %d processes, %d frames", sys.LiveProcesses(), sys.AllocatedFrames())
	}
}

// TestSetMetricsEnabled checks the public collection toggle.
func TestSetMetricsEnabled(t *testing.T) {
	sys := odfork.NewSystem()
	sys.SetMetricsEnabled(false)
	p := sys.NewProcess()
	defer p.Exit()
	if _, err := p.Fork(odfork.WithMode(odfork.OnDemand)); err != nil {
		t.Fatal(err)
	}
	if f := sys.Metrics().Fork.OnDemand().Forks; f != 0 {
		t.Errorf("disabled collection still counted %d forks", f)
	}
	sys.SetMetricsEnabled(true)
	if _, err := p.Fork(odfork.WithMode(odfork.OnDemand)); err != nil {
		t.Fatal(err)
	}
	if f := sys.Metrics().Fork.OnDemand().Forks; f != 1 {
		t.Errorf("re-enabled collection counted %d forks, want 1", f)
	}
}

// TestSentinelErrors checks every v1 sentinel classifies its failure
// through errors.Is on the public surface.
func TestSentinelErrors(t *testing.T) {
	sys := odfork.NewSystem()
	p := sys.NewProcess()

	// ErrBadAddr: malformed mmap arguments and unmapped accesses.
	if _, err := p.Mmap(0, odfork.ProtRead, odfork.MapPrivate); !errors.Is(err, odfork.ErrBadAddr) {
		t.Errorf("zero-size mmap = %v, want ErrBadAddr", err)
	}
	if err := p.WriteAt([]byte("x"), odfork.Addr(0xdead000)); !errors.Is(err, odfork.ErrBadAddr) {
		t.Errorf("write to unmapped address = %v, want ErrBadAddr", err)
	}

	// ErrProtViolation: write to a read-only mapping, via the typed
	// segfault error.
	ro, err := p.Mmap(odfork.PageSize, odfork.ProtRead, odfork.MapPrivate|odfork.MapPopulate)
	if err != nil {
		t.Fatal(err)
	}
	err = p.WriteAt([]byte("x"), ro)
	if !errors.Is(err, odfork.ErrProtViolation) {
		t.Errorf("write to read-only mapping = %v, want ErrProtViolation", err)
	}
	var seg *odfork.SegfaultError
	if !errors.As(err, &seg) {
		t.Errorf("protection violation not a *SegfaultError: %v", err)
	}

	// ErrNoMem: allocation beyond the frame limit.
	sys.SetFrameLimit(sys.AllocatedFrames() + 8)
	_, err = p.Mmap(64*odfork.MiB, odfork.ProtRead|odfork.ProtWrite,
		odfork.MapPrivate|odfork.MapPopulate)
	if !errors.Is(err, odfork.ErrNoMem) {
		t.Errorf("mmap past frame limit = %v, want ErrNoMem", err)
	}
	sys.SetFrameLimit(0)

	// ErrExited: operations on a dead process.
	pid := p.PID()
	p.Exit()
	if _, err := p.Fork(odfork.WithMode(odfork.Classic)); !errors.Is(err, odfork.ErrExited) {
		t.Errorf("fork of exited process = %v, want ErrExited", err)
	}
	if err := sys.SetForkMode(pid, odfork.OnDemand); !errors.Is(err, odfork.ErrExited) {
		t.Errorf("SetForkMode on exited pid = %v, want ErrExited", err)
	}
}

// TestProcfsNotExist checks unknown procfs paths fail like a missing
// file.
func TestProcfsNotExist(t *testing.T) {
	sys := odfork.NewSystem()
	for _, path := range []string{"/proc/odf/nope", "/proc/42/maps", "/etc/passwd"} {
		if _, err := sys.Procfs(path); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("Procfs(%q) = %v, want fs.ErrNotExist", path, err)
		}
	}
	// The profile is computed from the metrics counters, so it always
	// exists.
	if _, err := sys.Procfs("/proc/odf/profile"); err != nil {
		t.Errorf("profile = %v, want nil", err)
	}
}
