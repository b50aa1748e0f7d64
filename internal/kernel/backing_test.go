package kernel

import (
	"errors"
	"path/filepath"
	"testing"

	"repro/internal/failpoint"
	"repro/internal/mem/addr"
	"repro/internal/mem/reclaim"
	"repro/internal/mem/vm"
	"repro/internal/metrics"
)

// policyCounts is one store's view of the shared store-policy counters.
type policyCounts struct{ retries, errors, corruptions, degrades uint64 }

// policyStore is one store that pages fault in from, set up so that a
// single page access reads it exactly once.
type policyStore struct {
	name              string
	readPoint         string
	errIO, errCorrupt error
	counts            func(metrics.Snapshot) policyCounts
	// setup returns an access that faults one page in from the store.
	// corrupt poisons the page's stored checksum.
	setup func(t *testing.T, k *Kernel, corrupt bool) (access func() error)
}

var policyStores = []policyStore{
	{
		name:       "swap",
		readPoint:  failpoint.SwapRead,
		errIO:      reclaim.ErrSwapIO,
		errCorrupt: reclaim.ErrSwapCorrupt,
		counts: func(s metrics.Snapshot) policyCounts {
			r := s.Robust
			return policyCounts{r.SwapReadRetries, r.SwapReadErrors, r.SwapCorruptions, r.SwapDegrades}
		},
		setup: func(t *testing.T, k *Kernel, corrupt bool) func() error {
			k.SetSwapEnabled(true)
			t.Cleanup(func() { k.SetSwapEnabled(false) })
			p := k.NewProcess()
			t.Cleanup(p.Exit)
			base, err := p.Mmap(addr.PageSize, rw, vm.MapPrivate)
			if err != nil {
				t.Fatal(err)
			}
			if err := p.StoreByte(base, 0x5A); err != nil {
				t.Fatal(err)
			}
			if corrupt {
				if err := k.SetFailpoint(failpoint.SwapCorrupt, "once"); err != nil {
					t.Fatal(err)
				}
			}
			k.Reclaim().ReclaimFrames(1)
			if st := k.Reclaim().Stats(); st.SwapSlots != 1 {
				t.Fatalf("%d swap slots after reclaim, want the page swapped out", st.SwapSlots)
			}
			return func() error { _, err := p.LoadByte(base); return err }
		},
	},
	{
		name:       "ckpt",
		readPoint:  failpoint.CkptRead,
		errIO:      ErrCheckpointIO,
		errCorrupt: ErrCheckpointCorrupt,
		counts: func(s metrics.Snapshot) policyCounts {
			c := s.Ckpt
			return policyCounts{c.ReadRetries, c.ReadErrors, c.Corruptions, c.Degrades}
		},
		setup: func(t *testing.T, k *Kernel, corrupt bool) func() error {
			path := filepath.Join(t.TempDir(), "a.ckpt")
			donor := New()
			p := donor.NewProcess()
			base, err := p.Mmap(addr.PageSize, rw, vm.MapPrivate)
			if err != nil {
				t.Fatal(err)
			}
			if err := p.StoreByte(base, 0x5A); err != nil {
				t.Fatal(err)
			}
			if corrupt {
				if err := donor.SetFailpoint(failpoint.CkptCorrupt, "once"); err != nil {
					t.Fatal(err)
				}
			}
			d, err := p.CheckpointTo(path)
			if err != nil {
				t.Fatal(err)
			}
			d.Release()
			p.Exit()
			r, err := k.RestoreFrom(path)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(r.Exit)
			return func() error { _, err := r.LoadByte(base); return err }
		},
	},
}

// TestStorePolicy runs the one retry/verify/degrade policy
// (vm.StorePolicy) against each store pages fault in from: swap-in and
// checkpoint page-in must retry, exhaust, latch and verify alike.
func TestStorePolicy(t *testing.T) {
	for _, st := range policyStores {
		t.Run(st.name, func(t *testing.T) {
			t.Run("transient", func(t *testing.T) {
				k := New()
				access := st.setup(t, k, false)
				if err := k.SetFailpoint(st.readPoint, "once"); err != nil {
					t.Fatal(err)
				}
				if err := access(); err != nil {
					t.Fatalf("access with one injected failure: %v", err)
				}
				if got := st.counts(k.MetricsSnapshot()); got != (policyCounts{retries: 1}) {
					t.Fatalf("counts = %+v, want one retry and nothing else", got)
				}
			})
			t.Run("exhausted", func(t *testing.T) {
				k := New()
				access := st.setup(t, k, false)
				if err := k.SetFailpoint(st.readPoint, "every:1"); err != nil {
					t.Fatal(err)
				}
				if err := access(); !errors.Is(err, st.errIO) {
					t.Fatalf("err = %v, want %v", err, st.errIO)
				}
				// Four attempts: three retries between them.
				if got := st.counts(k.MetricsSnapshot()); got != (policyCounts{retries: 3, errors: 1, degrades: 1}) {
					t.Fatalf("counts = %+v, want 3 retries, 1 error, 1 degrade", got)
				}
				if err := access(); !errors.Is(err, st.errIO) {
					t.Fatalf("second access err = %v, want %v", err, st.errIO)
				}
				if got := st.counts(k.MetricsSnapshot()); got.errors != 2 || got.degrades != 1 {
					t.Fatalf("after a second exhausted read: %+v, want 2 errors and the latch still at 1 degrade", got)
				}
			})
			t.Run("corrupt", func(t *testing.T) {
				k := New()
				access := st.setup(t, k, true)
				if err := access(); !errors.Is(err, st.errCorrupt) {
					t.Fatalf("err = %v, want %v", err, st.errCorrupt)
				}
				if got := st.counts(k.MetricsSnapshot()); got != (policyCounts{corruptions: 1}) {
					t.Fatalf("counts = %+v, want one corruption, no retry, no degrade", got)
				}
			})
		})
	}
}
