package serve

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/stats"
)

// RunLoop is the in-process experiment driver over the App interface —
// the same virtual-time queueing model the kvstore latency benchmark
// pioneered, generalized so every application experiment goes through
// one door. Arrivals are scheduled on a virtual timeline (arrival_i =
// i/rate) and each request's completion is max(previous completion,
// arrival) plus its *measured* service time: the model is analytic,
// but every service and fork cost is real simulated-kernel work.
//
// With LoadRatio > 0 the driver first calibrates raw capacity (with
// snapshots gated off) and offers LoadRatio of it; with LoadRatio <= 0
// it runs closed-loop — each request leaves as the previous completes,
// so latency is pure service time, which is the httpd bench's
// (wrk-style) regime.

// LoopConfig parameterizes one driver run.
type LoopConfig struct {
	// New builds a fresh app for each run; the driver calls Warm and
	// Close around it.
	New func() (App, error)
	// NewRequest returns the per-run request generator; rng is seeded
	// per run (Seed + run index).
	NewRequest func(rng *rand.Rand) func(i int) []byte
	// Requests is the measured request count per run.
	Requests int
	// LoadRatio offers this fraction of calibrated capacity; <= 0 runs
	// closed-loop with no calibration phase.
	LoadRatio float64
	// CalibrateN sizes the calibration phase (default 2000).
	CalibrateN int
	// Seed is the base RNG seed.
	Seed int64
	// Runs repeats the benchmark, reporting per-percentile minima so
	// that systematic latency (fork pauses, post-snapshot COW) survives
	// and host-side noise (GC, scheduling) does not. Defaults to 3.
	Runs int
	// Percentiles selects the reported rows.
	Percentiles []float64
	// Gate, when set, is called with measuring=false before the
	// calibration phase and measuring=true before the measured phase —
	// the hook that disables threshold-triggered snapshots while
	// capacity is measured.
	Gate func(app App, measuring bool)
}

// LoopResult is one engine's outcome. Latencies are milliseconds.
type LoopResult struct {
	App         string
	Percentiles map[float64]float64 // percentile -> latency ms
	MeanMS      float64
	MaxMS       float64
	ForkMean    float64 // ms, snapshot fork pause
	ForkStdDev  float64 // ms
	Snapshots   int
	MeanRate    float64 // offered req/s (open loop) or achieved (closed)
}

// RunLoop executes the configured benchmark, min-merging across runs.
func RunLoop(cfg LoopConfig) (LoopResult, error) {
	res, err := RunLoops(cfg)
	if err != nil {
		return LoopResult{}, err
	}
	return res[0], nil
}

// RunLoops runs several configurations in rounds: round r runs each
// configuration's r-th run in turn. Host load that comes and goes
// (another process, a descheduling) then lands on every configuration
// alike instead of on whichever was running at the time, and each
// configuration's min-merge across its runs drops the rounds a stall
// landed in.
func RunLoops(cfgs ...LoopConfig) ([]LoopResult, error) {
	runs := make([]int, len(cfgs))
	rounds := 0
	for i, cfg := range cfgs {
		runs[i] = cfg.Runs
		if runs[i] <= 0 {
			runs[i] = 3
		}
		rounds = max(rounds, runs[i])
	}
	out := make([]LoopResult, len(cfgs))
	for r := 0; r < rounds; r++ {
		for i := range cfgs {
			if r >= runs[i] {
				continue
			}
			// Level the heap between runs: RunLoops measures µs-scale
			// service times, and garbage from a previous run otherwise
			// lands as GC pauses inside one engine's pass.
			runtime.GC()
			res, err := runLoopOnce(cfgs[i], cfgs[i].Seed+int64(r))
			if err != nil {
				return nil, err
			}
			if r == 0 {
				out[i] = res
				continue
			}
			o := &out[i]
			for p, v := range res.Percentiles {
				if v < o.Percentiles[p] {
					o.Percentiles[p] = v
				}
			}
			o.MeanMS = min(o.MeanMS, res.MeanMS)
			o.MaxMS = min(o.MaxMS, res.MaxMS)
			if res.ForkMean > 0 && (o.ForkMean == 0 || res.ForkMean < o.ForkMean) {
				o.ForkMean, o.ForkStdDev = res.ForkMean, res.ForkStdDev
			}
		}
	}
	return out, nil
}

func runLoopOnce(cfg LoopConfig, seed int64) (LoopResult, error) {
	app, err := cfg.New()
	if err != nil {
		return LoopResult{}, err
	}
	defer app.Close()
	if err := app.Warm(); err != nil {
		return LoopResult{}, err
	}
	rng := rand.New(rand.NewSource(seed))
	next := cfg.NewRequest(rng)

	open := cfg.LoadRatio > 0
	var interarrival time.Duration
	var rate float64
	if open {
		if cfg.Gate != nil {
			cfg.Gate(app, false)
		}
		calN := cfg.CalibrateN
		if calN <= 0 {
			calN = 2000
		}
		t0 := time.Now()
		for i := 0; i < calN; i++ {
			if _, err := app.Handle(next(i)); err != nil {
				return LoopResult{}, fmt.Errorf("serve: calibration: %w", err)
			}
		}
		capacity := float64(calN) / time.Since(t0).Seconds()
		rate = capacity * cfg.LoadRatio
		if rate <= 0 {
			return LoopResult{}, fmt.Errorf("serve: degenerate calibration rate %f", rate)
		}
		interarrival = time.Duration(float64(time.Second) / rate)
		if cfg.Gate != nil {
			cfg.Gate(app, true)
		}
	}

	// The measured phase starts from the snapshotter's current totals,
	// so calibration-phase forks (none, when the gate does its job) do
	// not pollute the fork-pause report.
	base := app.Snapshotter().Totals()
	var lat stats.Sample
	virtualNow := time.Duration(0)
	for i := 0; i < cfg.Requests; i++ {
		arrival := virtualNow
		if open {
			arrival = time.Duration(i) * interarrival
			if virtualNow < arrival {
				virtualNow = arrival
			}
		}
		t0 := time.Now()
		if _, err := app.Handle(next(i)); err != nil {
			return LoopResult{}, fmt.Errorf("serve: request %d: %w", i, err)
		}
		virtualNow += time.Since(t0)
		lat.AddDuration(virtualNow - arrival)
	}
	tot := app.Snapshotter().Totals()

	if !open && virtualNow > 0 {
		rate = float64(cfg.Requests) / virtualNow.Seconds()
	}
	res := LoopResult{
		App:         app.Name(),
		Percentiles: make(map[float64]float64, len(cfg.Percentiles)),
		MeanMS:      lat.Mean(),
		MaxMS:       lat.Max(),
		ForkMean:    ms(tot.ForkMean),
		ForkStdDev:  ms(tot.ForkStdDev),
		Snapshots:   int(tot.Snapshots - base.Snapshots),
		MeanRate:    rate,
	}
	for _, p := range cfg.Percentiles {
		res.Percentiles[p] = lat.Percentile(p)
	}
	return res, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
