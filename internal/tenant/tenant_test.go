package tenant

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
)

func newTestManager(t *testing.T) *Manager {
	t.Helper()
	return NewManager(metrics.New())
}

func TestCreateLookupDestroy(t *testing.T) {
	m := newTestManager(t)
	a, err := m.Create("alpha", 100)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	if a.TenantID() == 0 {
		t.Fatal("tenant id 0 is reserved for 'no tenant'")
	}
	if _, err := m.Create("alpha", 50); err == nil {
		t.Fatal("duplicate name accepted")
	}
	if got := m.Lookup("alpha"); got != a {
		t.Fatalf("Lookup = %v, want %v", got, a)
	}
	if got := m.ByID(a.TenantID()); got != a {
		t.Fatalf("ByID = %v, want %v", got, a)
	}
	b, _ := m.Create("beta", 0)
	if ids := []uint64{a.TenantID(), b.TenantID()}; ids[0] == ids[1] {
		t.Fatal("duplicate tenant ids")
	}
	m.Destroy(a)
	if m.Lookup("alpha") != nil {
		t.Fatal("destroyed tenant still resolvable")
	}
	// The name is free for reuse after destroy.
	if _, err := m.Create("alpha", 1); err != nil {
		t.Fatalf("recreate after destroy: %v", err)
	}
}

func TestChargeUnchargePeakShared(t *testing.T) {
	m := newTestManager(t)
	a, _ := m.Create("alpha", 100)
	a.ChargeFrames(10)
	a.ChargeFrames(5)
	if got := a.Usage(); got != 15 {
		t.Fatalf("Usage = %d, want 15", got)
	}
	a.UnchargeFrames(12)
	if got := a.Usage(); got != 3 {
		t.Fatalf("Usage after uncharge = %d, want 3", got)
	}
	if got := a.Peak(); got != 15 {
		t.Fatalf("Peak = %d, want 15", got)
	}
	a.AdjustShared(2)
	a.AdjustShared(-1)
	if got := a.Shared(); got != 1 {
		t.Fatalf("Shared = %d, want 1", got)
	}
}

func TestReclaimOvershoot(t *testing.T) {
	m := newTestManager(t)
	a, _ := m.Create("alpha", 10)
	a.ChargeFrames(25)
	if got := a.ReclaimOvershoot(); got != 15 {
		t.Fatalf("overshoot = %d, want 15", got)
	}
	a.UnchargeFrames(20)
	if got := a.ReclaimOvershoot(); got != 0 {
		t.Fatalf("overshoot under quota = %d, want 0", got)
	}
	u, _ := m.Create("unlimited", 0)
	u.ChargeFrames(1 << 20)
	if got := u.ReclaimOvershoot(); got != 0 {
		t.Fatalf("unlimited overshoot = %d, want 0", got)
	}
}

func TestAdmitFastPath(t *testing.T) {
	m := newTestManager(t)
	a, _ := m.Create("alpha", 10)
	wait, err := m.AdmitFork(a)
	if err != nil || wait != 0 {
		t.Fatalf("AdmitFork under quota = (%v, %v), want (0, nil)", wait, err)
	}
	if st := a.Stats(); st.ForksAdmitted != 1 || st.ForksQueued != 0 {
		t.Fatalf("stats = %+v, want 1 admitted 0 queued", st)
	}
}

func TestAdmitQueuesUntilUncharge(t *testing.T) {
	m := newTestManager(t)
	a, _ := m.Create("alpha", 10)
	a.ChargeFrames(20) // over quota

	done := make(chan error, 1)
	go func() {
		wait, err := m.AdmitFork(a)
		if err == nil && wait == 0 {
			err = errors.New("queued fork reported zero wait")
		}
		done <- err
	}()
	// The fork must not be admitted while the tenant is over quota.
	select {
	case err := <-done:
		t.Fatalf("fork admitted while over quota: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	a.UnchargeFrames(15) // back under quota; uncharge kicks the queue
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("AdmitFork after uncharge: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("queued fork never admitted after uncharge")
	}
	if st := a.Stats(); st.ForksQueued != 1 || st.ForksAdmitted != 1 || st.QueueWait.Count != 1 {
		t.Fatalf("stats = %+v, want 1 queued 1 admitted 1 wait", st)
	}
}

func TestAdmitTimeout(t *testing.T) {
	m := newTestManager(t)
	m.SetAdmitTimeout(30 * time.Millisecond)
	a, _ := m.Create("alpha", 10)
	a.ChargeFrames(20)
	start := time.Now()
	_, err := m.AdmitFork(a)
	if !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("AdmitFork = %v, want ErrQuotaExceeded", err)
	}
	if since := time.Since(start); since < 30*time.Millisecond {
		t.Fatalf("timed out after %v, before the deadline", since)
	}
	// The timed-out wait is an admission wait too: Stats reads the
	// tenant's metrics slot, which counts it.
	st := a.Stats()
	if st.ForksTimedOut != 1 || st.QueueWait.Count != 1 || st.QueueWait.SumNS < uint64(30*time.Millisecond) {
		t.Fatalf("stats = %+v, want 1 timed out with its wait", st)
	}
	if st.QueueWait.Count != a.Slot().QueueWait.Snapshot().Count {
		t.Fatal("Stats().QueueWait is not the metrics slot's histogram")
	}

	// Detached from metrics there is no slot, and no wait histogram.
	d := NewManager(nil)
	d.SetAdmitTimeout(time.Millisecond)
	b, _ := d.Create("beta", 10)
	b.ChargeFrames(20)
	if _, err := d.AdmitFork(b); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("detached AdmitFork = %v, want ErrQuotaExceeded", err)
	}
	if st := b.Stats(); st.ForksTimedOut != 1 || st.QueueWait.Count != 0 {
		t.Fatalf("detached stats = %+v, want 1 timed out and no wait histogram", st)
	}
}

func TestAdmitQueueFull(t *testing.T) {
	m := newTestManager(t)
	m.SetQueueBound(2)
	m.SetAdmitTimeout(time.Minute)
	a, _ := m.Create("alpha", 10)
	a.ChargeFrames(20)

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m.AdmitFork(a)
		}()
	}
	waitFor(t, func() bool { return m.Waiting() == 2 })
	if _, err := m.AdmitFork(a); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("overfull queue AdmitFork = %v, want ErrQuotaExceeded", err)
	}
	if st := a.Stats(); st.ForksRejected != 1 {
		t.Fatalf("stats = %+v, want 1 rejected", st)
	}
	a.UnchargeFrames(15)
	wg.Wait()
}

func TestAdmitFIFOAndRoundRobin(t *testing.T) {
	m := newTestManager(t)
	m.SetAdmitTimeout(time.Minute)
	a, _ := m.Create("alpha", 0)
	b, _ := m.Create("beta", 0)

	// A token-consuming pressure predicate: each token admits exactly
	// one queued fork, so grants are observed one at a time and the
	// dispatch order is deterministic.
	var tokens atomic.Int64
	m.SetPressure(func() bool {
		for {
			n := tokens.Load()
			if n <= 0 {
				return true
			}
			if tokens.CompareAndSwap(n, n-1) {
				return false
			}
		}
	})

	type grant struct {
		tenant string
		seq    int
	}
	grants := make(chan grant, 4)
	var wg sync.WaitGroup
	enqueue := func(t0 *Tenant, name string, seq int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := m.AdmitFork(t0); err == nil {
				grants <- grant{name, seq}
			}
		}()
		waitFor(t, func() bool { return t0.Stats().QueueWaiting >= seq+1 })
	}
	enqueue(a, "alpha", 0)
	enqueue(a, "alpha", 1)
	enqueue(b, "beta", 0)
	enqueue(b, "beta", 1)

	// Round-robin across tenants, FIFO within each tenant.
	want := []grant{{"alpha", 0}, {"beta", 0}, {"alpha", 1}, {"beta", 1}}
	for i, w := range want {
		tokens.Add(1)
		select {
		case g := <-grants:
			if g != w {
				t.Fatalf("grant %d = %v, want %v", i, g, w)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("grant %d (%v) never arrived", i, w)
		}
	}
	wg.Wait()
}

func TestDestroyReleasesWaiters(t *testing.T) {
	m := newTestManager(t)
	m.SetAdmitTimeout(time.Minute)
	a, _ := m.Create("alpha", 10)
	a.ChargeFrames(20)
	done := make(chan error, 1)
	go func() {
		_, err := m.AdmitFork(a)
		done <- err
	}()
	waitFor(t, func() bool { return m.Waiting() == 1 })
	m.Destroy(a)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("waiter on destroyed tenant: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Destroy did not release the queued fork")
	}
	if m.Waiting() != 0 {
		t.Fatalf("Waiting = %d after destroy, want 0", m.Waiting())
	}
	// Forks by a destroyed tenant admit immediately.
	if _, err := m.AdmitFork(a); err != nil {
		t.Fatalf("AdmitFork on dead tenant: %v", err)
	}
}

func TestPressureQueuesEveryTenant(t *testing.T) {
	m := newTestManager(t)
	m.SetAdmitTimeout(time.Minute)
	pressed := true
	var mu sync.Mutex
	m.SetPressure(func() bool { mu.Lock(); defer mu.Unlock(); return pressed })
	a, _ := m.Create("alpha", 0) // unlimited quota, still gated by pressure
	done := make(chan struct{})
	go func() {
		m.AdmitFork(a)
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("fork admitted under pressure")
	case <-time.After(20 * time.Millisecond):
	}
	mu.Lock()
	pressed = false
	mu.Unlock()
	// No uncharge edge fires here; the poll backstop must readmit.
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("fork not admitted after pressure lifted")
	}
}

func TestRenderDetachedAndActive(t *testing.T) {
	var nilM *Manager
	if got := nilM.Render(); got != "# odf tenants: control plane detached\n" {
		t.Fatalf("nil Render = %q", got)
	}
	m := newTestManager(t)
	a, _ := m.Create("alpha", 100)
	a.ChargeFrames(7)
	out := m.Render()
	for _, want := range []string{
		"# odf tenants: active=1 waiting=0\n",
		"tenant.1.name alpha\n",
		"tenant.1.quota_frames 100\n",
		"tenant.1.usage_frames 7\n",
	} {
		if !contains(out, want) {
			t.Fatalf("Render missing %q:\n%s", want, out)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// waitFor polls cond for up to 2 s.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(time.Millisecond)
	}
}
