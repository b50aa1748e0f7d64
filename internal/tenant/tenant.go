// Package tenant is the multi-tenant control plane of the simulated
// kernel: every process lineage belongs to a Tenant with a frame quota,
// charged and uncharged at the physical allocator (phys.FrameCharger),
// and the Manager arbitrates fork admission when tenants run over
// quota or the machine is under memory pressure.
//
// Quotas are soft on the data path: a fault that needs a frame always
// gets one, and the overshoot instead (a) makes the tenant's frames
// the preferred reclaim victims (fair-share reclaim, see
// internal/mem/reclaim) and (b) gates the tenant's *forks*, which
// queue in a bounded per-tenant FIFO with round-robin dispatch across
// tenants instead of OOMing the box. A fork that cannot be admitted —
// full queue or admission timeout — fails with ErrQuotaExceeded, never
// ErrNoMem, so callers can tell "you are over your share" apart from
// "the machine is broken".
package tenant

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// ErrQuotaExceeded reports a fork refused by admission control: the
// tenant's admission queue was full, or the fork waited out the
// admission timeout while the tenant stayed over quota. It is the
// tenant-facing sibling of ErrNoMem — the machine has memory, this
// tenant has used its share.
var ErrQuotaExceeded = errors.New("tenant: frame quota exceeded")

// Defaults for the admission controller.
const (
	// DefaultQueueBound is the per-tenant cap on queued forks.
	DefaultQueueBound = 64
	// DefaultAdmitTimeout is how long a queued fork waits for the
	// tenant to come back under quota before failing.
	DefaultAdmitTimeout = 2 * time.Second
	// admitPollInterval is the backstop re-evaluation period for queued
	// forks, covering admissibility changes that have no uncharge edge
	// to kick the queue (quota raised, pressure relieved).
	admitPollInterval = time.Millisecond
)

// Manager is the tenant registry plus the fork admission controller.
// A nil Manager is inert: AdmitFork admits immediately.
type Manager struct {
	met *metrics.Registry

	mu         sync.Mutex
	byID       map[uint64]*Tenant
	byName     map[string]*Tenant
	order      []*Tenant // creation order: deterministic listing + round-robin
	nextID     uint64
	rrNext     int // round-robin cursor into order for dispatch fairness
	queueBound int
	timeout    time.Duration
	pressure   func() bool // true = machine-wide memory pressure; forks queue

	// waiting counts queued forks across all tenants. Uncharge paths
	// check it with one atomic load before taking mu, so tenants that
	// never queue pay nothing on frame frees.
	waiting atomic.Int64
}

// NewManager returns an empty registry. The metrics registry may be
// nil.
func NewManager(met *metrics.Registry) *Manager {
	return &Manager{
		met:        met,
		byID:       make(map[uint64]*Tenant),
		byName:     make(map[string]*Tenant),
		nextID:     1,
		queueBound: DefaultQueueBound,
		timeout:    DefaultAdmitTimeout,
	}
}

// SetQueueBound caps each tenant's admission queue (minimum 1).
func (m *Manager) SetQueueBound(n int) {
	if n < 1 {
		n = 1
	}
	m.mu.Lock()
	m.queueBound = n
	m.mu.Unlock()
}

// SetAdmitTimeout sets how long queued forks wait before failing with
// ErrQuotaExceeded.
func (m *Manager) SetAdmitTimeout(d time.Duration) {
	m.mu.Lock()
	m.timeout = d
	m.mu.Unlock()
}

// SetPressure installs the machine-wide memory pressure predicate
// (typically: free frames under the allocator limit's last few
// percent). While it reports true, every tenant's forks queue — the
// "don't OOM the box" half of admission control.
func (m *Manager) SetPressure(f func() bool) {
	m.mu.Lock()
	m.pressure = f
	m.mu.Unlock()
}

// Create registers a tenant with a frame quota (0 = unlimited).
func (m *Manager) Create(name string, quotaFrames int64) (*Tenant, error) {
	if name == "" {
		return nil, fmt.Errorf("tenant: empty name")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.byName[name]; ok {
		return nil, fmt.Errorf("tenant: %q already exists", name)
	}
	t := &Tenant{m: m, id: m.nextID, name: name}
	t.quota.Store(quotaFrames)
	t.slot = m.met.RegisterTenant(t.id, name)
	m.nextID++
	m.byID[t.id] = t
	m.byName[name] = t
	m.order = append(m.order, t)
	return t, nil
}

// Lookup returns the tenant with the given name (nil when absent).
func (m *Manager) Lookup(name string) *Tenant {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.byName[name]
}

// ByID returns the tenant with the given id (nil when absent).
func (m *Manager) ByID(id uint64) *Tenant {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.byID[id]
}

// List returns the live tenants in creation order.
func (m *Manager) List() []*Tenant {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Tenant, len(m.order))
	copy(out, m.order)
	return out
}

// Destroy unregisters a tenant and releases its queued forks (they are
// admitted: a dead tenant no longer has a quota to enforce). Frames
// still charged to the tenant keep uncharging against it harmlessly as
// the owning processes exit.
func (m *Manager) Destroy(t *Tenant) {
	if m == nil || t == nil {
		return
	}
	m.mu.Lock()
	t.dead.Store(true)
	for _, ch := range t.waiters {
		close(ch)
		m.waiting.Add(-1)
	}
	t.waiters = nil
	delete(m.byID, t.id)
	delete(m.byName, t.name)
	for i, o := range m.order {
		if o == t {
			m.order = append(m.order[:i], m.order[i+1:]...)
			break
		}
	}
	if len(m.order) == 0 {
		m.rrNext = 0
	} else {
		m.rrNext %= len(m.order)
	}
	m.mu.Unlock()
}

// admissibleLocked reports whether a fork by t may run now: the tenant
// is at or under quota and the machine is not in its pressure band.
func (m *Manager) admissibleLocked(t *Tenant) bool {
	if q := t.quota.Load(); q > 0 && t.usage.Load() > q {
		return false
	}
	if m.pressure != nil && m.pressure() {
		return false
	}
	return true
}

// AdmitFork gates one fork by tenant t. It returns immediately when
// the tenant is admissible and has no earlier waiters (FIFO); otherwise
// the fork queues until an uncharge or quota change readmits the
// tenant, for at most the admission timeout. The returned duration is
// the time spent queued (0 on the fast path).
func (m *Manager) AdmitFork(t *Tenant) (time.Duration, error) {
	if m == nil || t == nil || t.dead.Load() {
		return 0, nil
	}
	m.mu.Lock()
	if len(t.waiters) == 0 && m.admissibleLocked(t) {
		m.mu.Unlock()
		t.admitted.Add(1)
		if m.met.Enabled() {
			m.met.Tenant.ForksAdmitted.Inc()
		}
		return 0, nil
	}
	if len(t.waiters) >= m.queueBound {
		bound := m.queueBound
		m.mu.Unlock()
		t.rejected.Add(1)
		if m.met.Enabled() {
			m.met.Tenant.ForksRejected.Inc()
			if ts := t.slot; ts != nil {
				ts.QuotaRejections.Inc()
			}
		}
		return 0, fmt.Errorf("tenant %q: admission queue full (%d queued forks): %w",
			t.name, bound, ErrQuotaExceeded)
	}
	ch := make(chan struct{})
	t.waiters = append(t.waiters, ch)
	m.waiting.Add(1)
	timeout := m.timeout
	m.mu.Unlock()

	t.queuedForks.Add(1)
	if m.met.Enabled() {
		m.met.Tenant.ForksQueued.Inc()
	}
	start := time.Now()
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	poll := time.NewTicker(admitPollInterval)
	defer poll.Stop()
	for {
		select {
		case <-ch:
			return m.granted(t, start), nil
		case <-poll.C:
			// Backstop: re-evaluate even without an uncharge edge.
			m.Kick()
		case <-deadline.C:
			m.mu.Lock()
			withdrawn := t.removeWaiterLocked(ch)
			if withdrawn {
				m.waiting.Add(-1)
			}
			m.mu.Unlock()
			if !withdrawn {
				// A grant landed between the timer firing and the
				// withdrawal; take it.
				<-ch
				return m.granted(t, start), nil
			}
			wait := time.Since(start)
			t.timedOut.Add(1)
			if m.met.Enabled() {
				m.met.Tenant.ForksRejected.Inc()
				m.met.Tenant.QueueWait.Observe(wait)
				if ts := t.slot; ts != nil {
					ts.QuotaRejections.Inc()
					ts.QueueWait.Observe(wait)
				}
			}
			return wait, fmt.Errorf(
				"tenant %q: fork admission timed out after %v (usage %d frames, quota %d): %w",
				t.name, timeout, t.usage.Load(), t.quota.Load(), ErrQuotaExceeded)
		}
	}
}

// granted finishes a queued admission: records the wait and counters.
func (m *Manager) granted(t *Tenant, start time.Time) time.Duration {
	wait := time.Since(start)
	t.admitted.Add(1)
	if m.met.Enabled() {
		m.met.Tenant.QueueWait.Observe(wait)
		if ts := t.slot; ts != nil {
			ts.QueueWait.Observe(wait)
		}
	}
	return wait
}

// Kick dispatches queued forks that have become admissible, scanning
// tenants round-robin from the cursor so no tenant's queue starves
// behind another's. Uncharge paths call it (via Tenant.UnchargeFrames)
// whenever any fork is queued.
func (m *Manager) Kick() {
	if m == nil || m.waiting.Load() == 0 {
		return
	}
	m.mu.Lock()
	for progress := true; progress; {
		progress = false
		n := len(m.order)
		if n == 0 {
			break
		}
		for i := 0; i < n; i++ {
			idx := (m.rrNext + i) % n
			t := m.order[idx]
			if len(t.waiters) == 0 || !m.admissibleLocked(t) {
				continue
			}
			ch := t.waiters[0]
			copy(t.waiters, t.waiters[1:])
			t.waiters = t.waiters[:len(t.waiters)-1]
			m.waiting.Add(-1)
			m.rrNext = (idx + 1) % n
			close(ch)
			progress = true
			break
		}
	}
	m.mu.Unlock()
}

// Waiting returns the number of queued forks across all tenants.
func (m *Manager) Waiting() int64 {
	if m == nil {
		return 0
	}
	return m.waiting.Load()
}

// Tenant is one isolation domain: a frame quota plus the accounting
// the allocator charges against it. It implements phys.FrameCharger;
// the same object is the LRU partition key and quota oracle the
// reclaim subsystem consults for fair-share victim selection.
type Tenant struct {
	m    *Manager
	id   uint64
	name string

	quota  atomic.Int64 // frames; 0 = unlimited
	usage  atomic.Int64 // live frames charged to this tenant
	peak   atomic.Int64 // high-water mark of usage
	shared atomic.Int64 // charged frames currently shared (refcount > 1)

	reclaimed   atomic.Uint64 // frames evicted from this tenant's LRU partition
	admitted    atomic.Uint64 // forks admitted (fast path + granted waits)
	queuedForks atomic.Uint64 // forks that entered the admission queue
	rejected    atomic.Uint64 // forks refused: queue full
	timedOut    atomic.Uint64 // forks refused: admission wait timed out

	// slot is the tenant's partition in the metrics registry (nil when
	// metrics are detached). The kernel hands it to each of the tenant's
	// address spaces so fork/fault paths charge it by direct pointer.
	slot *metrics.TenantSlot

	dead    atomic.Bool
	waiters []chan struct{} // queued forks, FIFO; guarded by m.mu
}

// removeWaiterLocked withdraws ch from the queue, reporting whether it
// was still queued. Caller holds m.mu.
func (t *Tenant) removeWaiterLocked(ch chan struct{}) bool {
	for i, w := range t.waiters {
		if w == ch {
			t.waiters = append(t.waiters[:i], t.waiters[i+1:]...)
			return true
		}
	}
	return false
}

// TenantID returns the tenant's numeric id. It also attributes the
// tenant's allocator failpoint evaluations for scoped injection.
func (t *Tenant) TenantID() uint64 { return t.id }

// Name returns the tenant's name.
func (t *Tenant) Name() string { return t.name }

// SetQuota changes the frame quota (0 = unlimited) and redispatches
// the admission queues.
func (t *Tenant) SetQuota(frames int64) {
	t.quota.Store(frames)
	if t.m != nil {
		t.m.Kick()
	}
}

// Quota returns the frame quota (0 = unlimited).
func (t *Tenant) Quota() int64 { return t.quota.Load() }

// Usage returns the live frames charged to the tenant.
func (t *Tenant) Usage() int64 { return t.usage.Load() }

// Peak returns the high-water mark of Usage.
func (t *Tenant) Peak() int64 { return t.peak.Load() }

// Shared returns how many of the tenant's charged frames are currently
// shared (reference count above one — COW frames its lineages share).
func (t *Tenant) Shared() int64 { return t.shared.Load() }

// ChargeFrames implements phys.FrameCharger: n base frames were
// allocated on this tenant's account. Soft — never fails; overshoot
// is what fair-share reclaim and fork admission act on.
func (t *Tenant) ChargeFrames(n int64) {
	u := t.usage.Add(n)
	for {
		p := t.peak.Load()
		if u <= p || t.peak.CompareAndSwap(p, u) {
			return
		}
	}
}

// UnchargeFrames implements phys.FrameCharger: n base frames returned
// to the free lists. When forks are queued anywhere, the admission
// controller re-evaluates — frames freed by reclaim stealing from an
// over-quota tenant are exactly what readmits its queued forks.
func (t *Tenant) UnchargeFrames(n int64) {
	t.usage.Add(-n)
	if m := t.m; m != nil && m.waiting.Load() > 0 {
		m.Kick()
	}
}

// AdjustShared implements phys.FrameCharger: a charged frame crossed
// the shared (refcount 1↔2) boundary.
func (t *Tenant) AdjustShared(n int64) { t.shared.Add(n) }

// ReclaimOvershoot reports how many frames the tenant is over quota
// (0 when under quota or unlimited). The reclaim subsystem uses it to
// pick eviction victims proportional to overshoot.
func (t *Tenant) ReclaimOvershoot() int64 {
	q := t.quota.Load()
	if q <= 0 {
		return 0
	}
	if over := t.usage.Load() - q; over > 0 {
		return over
	}
	return 0
}

// NoteReclaimed records n frames evicted from this tenant's LRU
// partition by fair-share victim selection.
func (t *Tenant) NoteReclaimed(n int64) {
	t.reclaimed.Add(uint64(n))
	if ts := t.slot; ts != nil {
		ts.ReclaimEvictions.Add(uint64(n))
	}
}

// Slot returns the tenant's metrics partition (nil when metrics are
// detached). Address spaces hold it by direct pointer so hot paths
// charge per-tenant counters with no map lookup.
func (t *Tenant) Slot() *metrics.TenantSlot { return t.slot }

// Stats is a point-in-time copy of one tenant's accounting.
type Stats struct {
	ID              uint64
	Name            string
	QuotaFrames     int64
	UsageFrames     int64
	PeakFrames      int64
	SharedFrames    int64
	ReclaimedFrames uint64
	ForksAdmitted   uint64
	ForksQueued     uint64
	ForksRejected   uint64
	ForksTimedOut   uint64
	QueueWaiting    int
	// QueueWait is the tenant's metrics-slot histogram of admission
	// waits, granted and timed out alike; empty when metrics are
	// detached.
	QueueWait metrics.HistogramSnapshot
}

// Stats returns the tenant's current accounting.
func (t *Tenant) Stats() Stats {
	s := Stats{
		ID:              t.id,
		Name:            t.name,
		QuotaFrames:     t.quota.Load(),
		UsageFrames:     t.usage.Load(),
		PeakFrames:      t.peak.Load(),
		SharedFrames:    t.shared.Load(),
		ReclaimedFrames: t.reclaimed.Load(),
		ForksAdmitted:   t.admitted.Load(),
		ForksQueued:     t.queuedForks.Load(),
		ForksRejected:   t.rejected.Load(),
		ForksTimedOut:   t.timedOut.Load(),
	}
	if ts := t.slot; ts != nil {
		s.QueueWait = ts.QueueWait.Snapshot()
	}
	if t.m != nil {
		t.m.mu.Lock()
		s.QueueWaiting = len(t.waiters)
		t.m.mu.Unlock()
	}
	return s
}

// StatsAll returns every live tenant's stats in creation order.
func (m *Manager) StatsAll() []Stats {
	if m == nil {
		return nil
	}
	out := make([]Stats, 0, len(m.List()))
	for _, t := range m.List() {
		out = append(out, t.Stats())
	}
	return out
}
