package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/apps/kvstore"
	"repro/internal/apps/serve"
	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/tenant"
)

// serverless-pressure: 8 tenants behind one clone-per-request
// Dispatcher. Every invocation forks its tenant's warm store and reads
// from the clone. The machine's frame limit is 75% of the tenants'
// warm footprint with swap on, so reclaim, swap-in and fork admission
// are all on the request path. Quotas sit above each tenant's warm
// footprint, the way well-behaved tenants run.
const (
	svTenants    = 8
	svArenaBytes = 2 << 20
	svKeys       = 5000
	svValueLen   = 256
	svTableCap   = 8192
	svRate       = 2000 // requests per second, all connections
	svConns      = 2
	svSetPct     = 10
	svLimitPct   = 75 // frame limit, % of the warm footprint
	svQuotaX     = 2  // quota, multiple of a tenant's warm footprint
	svWarmup     = 2000
)

type svBench struct {
	seed  int64
	k     *kernel.Kernel
	d     *serve.Dispatcher
	ids   []uint32
	vals  map[uint32][][]byte // tenant id → every key's value
	phase int64
}

func setupServerless(seed int64) (bench, error) {
	k := kernel.New()
	k.SetSwapEnabled(true)
	b := &svBench{seed: seed, k: k, d: serve.NewDispatcher(), vals: map[uint32][][]byte{}}
	var tens []*tenant.Tenant
	var apps []*serve.KVApp
	fail := func(err error) (bench, error) {
		b.d.Close()
		for _, a := range apps {
			a.Close()
		}
		k.SetSwapEnabled(false)
		return nil, err
	}
	for i := 0; i < svTenants; i++ {
		tn, err := k.Tenants().Create(fmt.Sprintf("fn-%02d", i), 0)
		if err != nil {
			return fail(err)
		}
		app, err := serve.NewKV(k, serve.KVConfig{Config: kvstore.Config{
			ArenaBytes: svArenaBytes, TableCap: svTableCap, Mode: core.ForkOnDemand, Tenant: tn,
		}})
		if err != nil {
			return fail(err)
		}
		apps = append(apps, app)
		tens = append(tens, tn)
		id := uint32(tn.TenantID())
		b.vals[id] = values(seed, id, svKeys, svValueLen)
		if err := populate(app, b.vals[id]); err != nil {
			return fail(err)
		}
		b.ids = append(b.ids, id)
	}
	for _, tn := range tens {
		tn.SetQuota(svQuotaX * tn.Usage())
	}
	limit := k.Allocator().Allocated() * svLimitPct / 100
	k.Allocator().SetLimit(limit)
	// Ready once kswapd has brought free frames back to its high
	// watermark under the new limit.
	_, high := k.Reclaim().Watermarks()
	deadline := time.Now().Add(30 * time.Second)
	for limit-k.Allocator().Allocated() < high {
		if time.Now().After(deadline) {
			return fail(fmt.Errorf("kswapd did not reach the high watermark (%d of %d frames free)",
				limit-k.Allocator().Allocated(), high))
		}
		time.Sleep(time.Millisecond)
	}
	for i, app := range apps {
		b.d.AddLane(b.ids[i], app, true)
	}
	next := b.requests(-1)(0)
	for i := 0; i < svWarmup; i++ {
		r := next()
		resp, err := b.d.Handle(serve.EncodeTenant(r.tenant, b.payload(r)))
		if err != nil {
			return fail(fmt.Errorf("warm-up: %w", err))
		}
		if checkKV(b.gen(""), r, resp) != "" {
			return fail(fmt.Errorf("warm-up: tenant %d key %d failed verification", r.tenant, r.key))
		}
	}
	return b, nil
}

func (b *svBench) requests(phase int64) func(conn int) func() genReq {
	return func(conn int) func() genReq {
		rng := rand.New(rand.NewSource(b.seed*1_000_003 + phase*1_009 + int64(conn)))
		return func() genReq {
			return genReq{
				tenant: b.ids[rng.Intn(len(b.ids))],
				key:    rng.Intn(svKeys),
				set:    rng.Intn(100) < svSetPct,
			}
		}
	}
}

func (b *svBench) payload(r genReq) []byte {
	if r.set {
		return serve.EncodeSet(kvstore.Key(r.key), b.vals[r.tenant][r.key])
	}
	return serve.EncodeGet(kvstore.Key(r.key))
}

func (b *svBench) gen(addr string) genConfig {
	return genConfig{
		addr: addr, conns: svConns, rate: svRate, tenant: true,
		payload: b.payload,
		verify: func(r genReq, val []byte) bool {
			return bytes.Equal(val, b.vals[r.tenant][r.key])
		},
	}
}

func (b *svBench) measure(d time.Duration, tr *tracer) (*outcome, error) {
	b.phase++
	var app serve.App = b.d
	var wrap *opApp
	if tr != nil {
		wrap = newOpApp(b.d, 4, tr) // the tenant id stays in front of the op id
		wrap.lanes = b.d
		for _, id := range b.ids {
			wrap.seen[id] = b.d.Lane(id).ForkTimes.N()
		}
		app = wrap
	}
	srv, err := serve.Listen(app, serve.TenantBinaryCodec{}, "")
	if err != nil {
		return nil, err
	}
	c0, g0 := kernelCounts(b.k), readHost()
	cfg := b.gen(srv.Addr())
	cfg.dur, cfg.next, cfg.tr = d, b.requests(b.phase), tr
	recs, err := runOpenLoop(cfg)
	srv.Close()
	if err != nil {
		return nil, err
	}
	out := newOutcome()
	out.elapsed = d
	addRequests(out, recs, wrap, tr, "sv.request")
	out.counts = kernelCounts(b.k).sub(c0)
	out.host = hostSince(g0)
	return out, nil
}

func (b *svBench) kernel() *kernel.Kernel { return b.k }

func (b *svBench) close() error {
	// Swap stops first: the invariant audit needs quiescent reclaim.
	b.k.SetSwapEnabled(false)
	err := b.k.CheckInvariants()
	b.d.Close()
	b.k.Allocator().SetLimit(0)
	if err != nil {
		return err
	}
	return checkClean(b.k)
}
