package vm

import (
	"errors"
	"fmt"
	"hash/crc32"
	"sync/atomic"
	"time"

	"repro/internal/failpoint"
	"repro/internal/metrics"
)

// Backing supplies pages for file-backed mappings: the page cache in
// package fs, or a checkpoint image restored lazily. Anonymous VMAs
// have a nil Backing.
type Backing interface {
	// BackingName identifies the backing object for diagnostics.
	BackingName() string
	// PageAt returns the content of the 4 KiB page at the given offset;
	// a nil or short slice reads as zeroes past its end. An error fails
	// the faulting access instead of leaving a zero-filled page behind.
	PageAt(off uint64) ([]byte, error)
}

// A store operation is tried storeAttempts times, backing off 50µs,
// 100µs, 200µs between tries: a transient device hiccup resolves, a
// persistent fault degrades quickly.
const (
	storeAttempts    = 4
	storeBackoffBase = 50 * time.Microsecond
)

var errInjected = errors.New("injected fault")

// StoreOp is one kind of store operation (a swap-slot read or write, a
// checkpoint chunk read): the failpoint evaluated before each attempt,
// and the counters its retries and exhausted failures charge (nil
// counters are not charged).
type StoreOp struct {
	Failpoint       string
	Retries, Errors *metrics.Counter
}

// StorePolicy is the one retry/verify/degrade policy of the stores
// pages fault in from: swap slots and checkpoint chunks. An op that
// fails every attempt closes the one-shot degraded latch and returns an
// error wrapping ErrIO. A checksum mismatch wraps ErrCorrupt and is
// never retried and never degrades: the bytes arrived, they are simply
// wrong. Counters are charged only while Met is enabled. A StorePolicy
// must not be copied after first use.
type StorePolicy struct {
	ErrIO, ErrCorrupt     error
	Met                   *metrics.Registry
	Corruptions, Degrades *metrics.Counter
	// OnDegrade, when set, runs each time the latch closes, with the op
	// that exhausted its attempts.
	OnDegrade func(op *StoreOp)

	degraded atomic.Bool
}

// Do runs fn under the policy. fp may be nil; tenant attributes the
// failpoint evaluation (0 is the unattributed Fire).
func (p *StorePolicy) Do(op *StoreOp, fp *failpoint.Registry, tenant uint64, fn func() error) error {
	var err error
	for attempt := 0; attempt < storeAttempts; attempt++ {
		if attempt > 0 {
			p.inc(op.Retries)
			time.Sleep(storeBackoffBase << (attempt - 1))
		}
		if fp.Enabled() && fp.FireAs(op.Failpoint, tenant) {
			err = errInjected
		} else if err = fn(); err == nil {
			return nil
		}
	}
	p.inc(op.Errors)
	if !p.degraded.Swap(true) {
		p.inc(p.Degrades)
		if p.OnDegrade != nil {
			p.OnDegrade(op)
		}
	}
	return fmt.Errorf("%w: %s failed after %d attempts: %v", p.ErrIO, op.Failpoint, storeAttempts, err)
}

// Verify checks data against the CRC32 recorded when it was written.
func (p *StorePolicy) Verify(data []byte, want uint32) error {
	if crc32.ChecksumIEEE(data) == want {
		return nil
	}
	p.inc(p.Corruptions)
	return fmt.Errorf("%w: checksum mismatch", p.ErrCorrupt)
}

// Degraded reports whether an op exhausted its attempts since the last
// Reset.
func (p *StorePolicy) Degraded() bool { return p.degraded.Load() }

// Reset reopens the degraded latch.
func (p *StorePolicy) Reset() { p.degraded.Store(false) }

func (p *StorePolicy) inc(c *metrics.Counter) {
	if c != nil && p.Met.Enabled() {
		c.Inc()
	}
}
