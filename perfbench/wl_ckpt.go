package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/apps/kvstore"
	"repro/internal/core"
	"repro/internal/kernel"
)

// ckpt-roundtrip: the only user of internal/ckpt. Each op SETs keys,
// writes an incremental durable checkpoint against the base, restores
// it in a fresh kernel (a daemon restart), adopts the store and reads
// keys back, byte-checked against a shadow copy.
const (
	ckArenaBytes = 64 << 20
	ckKeys       = 5000
	ckValueLen   = 256
	ckTableCap   = 8192
	ckSetsPerOp  = 200
	ckGetsPerOp  = 1000
	ckWarmOps    = 10 // by then every data page has diverged from the base
	// ckWorkDir holds the checkpoint files, inside the working tree.
	ckWorkDir = ".bench_build"
)

type ckptBench struct {
	seed   int64
	k      *kernel.Kernel
	st     *kvstore.Store
	dir    string
	base   *kernel.DurableCheckpoint
	shadow [][]byte
	ver    []uint32
	rng    *rand.Rand
	ops    uint64
}

func setupCkpt(seed int64) (bench, error) {
	if err := os.MkdirAll(ckWorkDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(ckWorkDir, "ckpt-")
	if err != nil {
		return nil, err
	}
	k := kernel.New()
	st, err := kvstore.New(k, kvstore.Config{ArenaBytes: ckArenaBytes, TableCap: ckTableCap, Mode: core.ForkOnDemand})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	b := &ckptBench{
		seed: seed, k: k, st: st, dir: dir,
		shadow: make([][]byte, ckKeys), ver: make([]uint32, ckKeys),
		rng: rand.New(rand.NewSource(seed)),
	}
	for i := range b.shadow {
		b.shadow[i] = value(seed, 0, i, ckValueLen)
		if _, err := st.Set(kvstore.Key(i), b.shadow[i]); err != nil {
			b.close()
			return nil, fmt.Errorf("populate key %d: %w", i, err)
		}
	}
	if b.base, err = st.Process().CheckpointTo(filepath.Join(dir, "base.ckpt")); err != nil {
		b.close()
		return nil, fmt.Errorf("base checkpoint: %w", err)
	}
	warm := newOutcome()
	for i := 0; i < ckWarmOps; i++ {
		b.op(warm, nil)
	}
	if warm.failed() > 0 {
		b.close()
		return nil, fmt.Errorf("warm-up: %v", warm.fails)
	}
	return b, nil
}

func (b *ckptBench) measure(d time.Duration, tr *tracer) (*outcome, error) {
	out := newOutcome()
	c0, g0 := kernelCounts(b.k), readHost()
	start := time.Now()
	for time.Since(start) < d {
		b.op(out, tr)
	}
	out.elapsed = time.Since(start)
	out.counts.add(kernelCounts(b.k).sub(c0))
	out.host = hostSince(g0)
	return out, nil
}

func (b *ckptBench) kernel() *kernel.Kernel { return b.k }

// op runs one round trip. Restore-side counters and frame peaks come
// from each fresh kernel and are added to out.
func (b *ckptBench) op(out *outcome, tr *tracer) {
	b.ops++
	id := b.ops
	t0 := time.Now()
	for j := 0; j < ckSetsPerOp; j++ {
		key := b.rng.Intn(ckKeys)
		b.ver[key]++
		val := value(b.seed, b.ver[key], key, ckValueLen)
		if _, err := b.st.Set(kvstore.Key(key), val); err != nil {
			out.fail(errClass(err, "app"))
			return
		}
		b.shadow[key] = val
	}
	t1 := time.Now()
	path := filepath.Join(b.dir, fmt.Sprintf("inc-%d.ckpt", id))
	inc, err := b.st.Process().CheckpointTo(path, kernel.WithCheckpointParent(b.base))
	if err != nil {
		out.fail(errClass(err, "ckpt"))
		return
	}
	inc.Release()
	defer os.Remove(path)
	t2 := time.Now()
	layout := b.st.Layout()

	k2 := kernel.New()
	p, err := k2.RestoreFrom(path)
	if err != nil {
		out.fail(errClass(err, "ckpt"))
		return
	}
	t3 := time.Now()
	st2, err := kvstore.Adopt(k2, p, layout, kvstore.Config{Mode: core.ForkOnDemand})
	if err != nil {
		p.Exit()
		out.fail(errClass(err, "ckpt"))
		return
	}
	t4 := time.Now()
	class := ""
	for j := 0; j < ckGetsPerOp && class == ""; j++ {
		key := b.rng.Intn(ckKeys)
		v, ok, err := st2.Get(kvstore.Key(key))
		switch {
		case err != nil:
			class = errClass(err, "ckpt")
		case !ok || !bytes.Equal(v, b.shadow[key]):
			class = "verify"
		}
	}
	t5 := time.Now()
	st2.Close()
	if err := checkClean(k2); err != nil && class == "" {
		fmt.Printf("  restore kernel not clean after op %d: %v\n", id, err)
		class = "verify"
	}
	out.counts.add(kernelCounts(k2))
	out.framesPeak = max(out.framesPeak, k2.Allocator().Peak())
	if class != "" {
		out.fail(class)
		return
	}
	out.ok(float64(t5.Sub(t2)) / 1e3)
	out.timings["ckpt.write"] = append(out.timings["ckpt.write"], float64(t2.Sub(t1))/1e3)
	out.timings["ckpt.open"] = append(out.timings["ckpt.open"], float64(t3.Sub(t2))/1e3)
	out.timings["ckpt.adopt"] = append(out.timings["ckpt.adopt"], float64(t4.Sub(t3))/1e3)
	out.timings["ckpt.read"] = append(out.timings["ckpt.read"], float64(t5.Sub(t4))/1e3)
	if tr != nil {
		tr.add("kvstore.sets", id, 0, t0, t1)
		tr.add("ckpt.write", id, 0, t1, t2)
		tr.root("ckpt.restore", id, t2, t5)
		tr.add("ckpt.open", id, id, t2, t3)
		tr.add("ckpt.adopt", id, id, t3, t4)
		tr.add("ckpt.read", id, id, t4, t5)
	}
}

func (b *ckptBench) close() error {
	if b.base != nil {
		b.base.Release()
	}
	b.st.Close()
	err := checkClean(b.k)
	if rerr := os.RemoveAll(b.dir); err == nil {
		err = rerr
	}
	return err
}
