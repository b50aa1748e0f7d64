package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"maps"
	"slices"
	"strings"
	"time"

	"repro/internal/apps/fuzz"
	"repro/internal/apps/sqlike"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/mem/addr"
	"repro/internal/mem/phys"
	"repro/internal/tenant"
)

// fuzz-forkserver: paper Fig. 9. A closed loop of RunOne over a 60,000
// row database: every execution forks the initialized target, runs one
// input in the child and tears the child down.
const (
	fzItems  = 60000
	fzArena  = 256 << 20
	fzWarmup = 2000 // the first executions run slower; they are set-up
	// fzExecsPerSecond fixes the executions of a phase from its
	// length, so a seed's work counts can repeat exactly.
	fzExecsPerSecond = 2000
)

type fuzzBench struct {
	k       *kernel.Kernel
	f       *fuzz.Fuzzer
	print   uint64 // parent memory fingerprint before the first phase
	printed bool
}

func setupFuzz(seed int64) (bench, error) {
	k := kernel.New()
	f, err := fuzz.NewFuzzer(k, fuzz.Config{
		DB: sqlike.Config{
			ArenaBytes: fzArena,
			MaxItems:   fzItems * 2,
			MaxTags:    fzItems/50 + 16,
		},
		Items: fzItems, NameLen: 24, TagEvery: 50,
		Mode: core.ForkOnDemand, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	for i := 0; i < fzWarmup; i++ {
		if err := f.RunOne(); err != nil {
			f.Close()
			return nil, fmt.Errorf("warm-up execution %d: %w", i, err)
		}
	}
	return &fuzzBench{k: k, f: f}, nil
}

// fingerprint hashes every mapped byte of p: the fork server's parent
// must come out of any number of executions unchanged.
func fingerprint(p *kernel.Process) (uint64, error) {
	h := fnv.New64a()
	buf := make([]byte, addr.PageSize)
	for _, v := range p.Space().VMAs() {
		for a := v.Range.Start; a < v.Range.End; a += addr.PageSize {
			if err := p.ReadAt(buf, a); err != nil {
				return 0, fmt.Errorf("fingerprint %#x: %w", uint64(a), err)
			}
			h.Write(buf)
		}
	}
	return h.Sum64(), nil
}

func (b *fuzzBench) measure(d time.Duration, tr *tracer) (*outcome, error) {
	if !b.printed {
		print, err := fingerprint(b.f.Snapshotter().Process())
		if err != nil {
			return nil, err
		}
		b.print, b.printed = print, true
	}
	out := newOutcome()
	n := int(d.Seconds() * fzExecsPerSecond)
	snap := b.f.Snapshotter()
	c0, g0 := kernelCounts(b.k), readHost()
	start := time.Now()
	for i := 0; i < n; i++ {
		t0 := time.Now()
		err := b.f.RunOne()
		t1 := time.Now()
		if err != nil {
			out.fail(errClass(err, "target"))
			continue
		}
		out.ok(float64(t1.Sub(t0)) / 1e3)
		st, _ := snap.LastSnapshot()
		forkEnd := st.Start.Add(st.ForkLatency)
		out.timings["fork.pause"] = append(out.timings["fork.pause"], float64(st.ForkLatency)/1e3)
		out.timings["fuzz.child"] = append(out.timings["fuzz.child"], float64(t1.Sub(forkEnd))/1e3)
		if tr != nil {
			op := uint64(i + 1)
			tr.root("fuzz.exec", op, t0, t1)
			tr.add("fork.pause", op, op, st.Start, forkEnd)
			tr.add("fuzz.child", op, op, forkEnd, t1)
		}
	}
	out.elapsed = time.Since(start)
	out.counts = kernelCounts(b.k).sub(c0)
	out.host = hostSince(g0)
	return out, nil
}

func (b *fuzzBench) kernel() *kernel.Kernel { return b.k }

func (b *fuzzBench) close() error {
	var err error
	if b.printed {
		var print uint64
		if print, err = fingerprint(b.f.Snapshotter().Process()); err == nil && print != b.print {
			err = errors.New("fork-server parent memory changed across executions")
		}
	}
	b.f.Close()
	if err != nil {
		return err
	}
	return checkClean(b.k)
}

// errClass maps a Go error from the program to a failure class.
func errClass(err error, other string) string {
	switch {
	case errors.Is(err, tenant.ErrQuotaExceeded):
		return "quota"
	case errors.Is(err, phys.ErrNoMemory), strings.Contains(err.Error(), "out of memory"):
		return "nomem"
	default:
		return other
	}
}

// repeatCheck runs fuzz-forkserver's timed phase twice from fresh
// set-ups with one seed and reports, per work counter, whether the
// per-execution count repeats exactly.
func repeatCheck(seed int64, seconds int) error {
	var runs [2]counts
	var execs [2]int
	for i := range runs {
		b, err := setupFuzz(seed)
		if err != nil {
			return err
		}
		out, err := b.measure(time.Duration(seconds)*time.Second, nil)
		if cerr := b.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		runs[i], execs[i] = out.counts, out.attempted
	}
	fmt.Printf("# fuzz-forkserver work counts, seed=%d, %d and %d executions\n", seed, execs[0], execs[1])
	fmt.Printf("%-22s %14s %14s  %s\n", "counter", "run1/exec", "run2/exec", "repeats")
	for _, name := range slices.Sorted(maps.Keys(runs[0])) {
		a, b := runs[0][name], runs[1][name]
		fmt.Printf("%-22s %14.4f %14.4f  %v\n", name, a/float64(execs[0]), b/float64(execs[1]), a == b)
	}
	return nil
}
