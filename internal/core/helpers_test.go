package core

import (
	"repro/internal/mem/phys"
	"repro/internal/metrics"
)

// The package's tests build address spaces of a few 2 MiB regions, far
// below parallelThreshold; let every Parallelism > 1 fork fan out on
// them. TestForkParallelBelowThreshold restores the production value.
func init() { fanOutMinSlots = 0 }

// mustForkOpts is the test-side shim over ForkWithOptions for the many
// call sites that want the historical single-value shape: a fork that
// fails (frame limit, injected fault) panics instead of returning an
// error, which the few tests that exercise failure paths catch
// explicitly.
func mustForkOpts(parent *AddressSpace, mode ForkMode, opts ForkOptions) *AddressSpace {
	child, err := ForkWithOptions(parent, mode, opts)
	if err != nil {
		panic(err)
	}
	return child
}

// newMeteredSpace returns an empty address space whose allocator
// charges a fresh metrics registry.
func newMeteredSpace() (*AddressSpace, *metrics.Registry) {
	m := metrics.New()
	alloc := phys.NewAllocator()
	alloc.SetMetrics(m)
	return NewAddressSpace(alloc), m
}

// attributionCounts maps each Figure 3 line item charged in d to its
// event count.
func attributionCounts(d metrics.Snapshot) map[string]uint64 {
	out := map[string]uint64{}
	for _, r := range metrics.Attribution(d) {
		out[r.Name] = r.Count
	}
	return out
}
