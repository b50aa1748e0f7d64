package odfork_test

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/odfork"
)

// TestSnapshotterPublicSurface exercises the v1 snapshot-serving API
// end to end: periodic snapshots of a populated process, typed stats,
// and clean shutdown without leaked children.
func TestSnapshotterPublicSurface(t *testing.T) {
	sys := odfork.NewSystem()
	p := sys.NewProcess()
	defer p.Exit()
	base, err := p.Mmap(8*odfork.MiB, odfork.ProtRead|odfork.ProtWrite,
		odfork.MapPrivate|odfork.MapPopulate)
	if err != nil {
		t.Fatal(err)
	}

	// The notify callback runs on each snapshot's child goroutine, and
	// consecutive snapshots' children may overlap, so seen needs a lock.
	var (
		seenMu sync.Mutex
		seen   []odfork.SnapshotStats
	)
	done := make(chan struct{}, 16)
	snap, err := p.StartSnapshotter(time.Millisecond,
		odfork.WithSnapshotMode(odfork.OnDemand),
		odfork.WithSnapshotChild(func(c *odfork.Process) error {
			// The child sees the snapshot's view and may scribble freely.
			return c.WriteAt([]byte("child-private"), base)
		}),
		odfork.WithSnapshotNotify(func(st odfork.SnapshotStats) {
			seenMu.Lock()
			seen = append(seen, st)
			seenMu.Unlock()
			done <- struct{}{}
		}))
	if err != nil {
		t.Fatal(err)
	}

	deadline := time.After(5 * time.Second)
	for i := 0; i < 3; i++ {
		select {
		case <-done:
		case <-deadline:
			t.Fatal("timer snapshots did not fire")
		}
	}
	snap.Stop()

	if snap.Snapshots() < 3 {
		t.Fatalf("only %d snapshots", snap.Snapshots())
	}
	last, ok := snap.LastSnapshot()
	if !ok || last.Mode != odfork.OnDemand || last.ForkLatency <= 0 {
		t.Errorf("LastSnapshot = %+v ok=%v", last, ok)
	}
	tot := snap.Totals()
	if tot.Snapshots != snap.Snapshots() || tot.ForkMean <= 0 || tot.ChildErrs != 0 {
		t.Errorf("totals: %+v", tot)
	}
	seenMu.Lock()
	got := append([]odfork.SnapshotStats(nil), seen...)
	seenMu.Unlock()
	for _, st := range got {
		if st.Err != nil {
			t.Errorf("snapshot %d child err: %v", st.Seq, st.Err)
		}
	}
	// Parent memory untouched by child scribbles.
	var b [1]byte
	if err := p.ReadAt(b[:], base); err != nil {
		t.Fatal(err)
	}
	if b[0] != 0 {
		t.Errorf("parent byte = %#x after child writes", b[0])
	}
	if n := sys.LiveProcesses(); n != 1 {
		t.Errorf("leaked snapshot children: %d live", n)
	}
	if _, err := snap.Snapshot(); !errors.Is(err, odfork.ErrSnapshotterStopped) {
		t.Errorf("Snapshot after Stop = %v", err)
	}
	if err := sys.CheckInvariants(); err != nil {
		t.Errorf("invariants after snapshotting: %v", err)
	}
}
