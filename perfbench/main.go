// Command perfbench is the repository's benchmark. It runs one seeded
// workload against the on-demand-fork system through the program's
// public functions only, checks every output, and prints one result
// row plus, as its last line, a JSON object:
//
//	{"correct": …, "attempted": …, "failed": …, "metrics": {…}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1
// the run is split into an untraced half and a traced half, the traced
// half records spans in memory around every call into a layer, writes
// them as Chrome trace-event JSON, and the metrics are the per-layer
// ones. See README.md for the workloads and the metric map.
//
// Usage:
//
//	perfbench --workload kv-snapshot|fuzz-forkserver|serverless-pressure|ckpt-roundtrip|all
//	          --seed N --seconds S --trace 0|1
//	perfbench --repeat-check --seed N   # work-count repeatability of fuzz-forkserver
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/kernel"
)

// commit is stamped by the build (-ldflags -X main.commit=…).
var commit = "unknown"

// bench is one set-up instance of a workload.
type bench interface {
	// measure runs one timed phase of length d. tr is nil for an
	// untraced phase.
	measure(d time.Duration, tr *tracer) (*outcome, error)
	// close tears the instance down and checks that the kernel is
	// consistent and that no process or frame leaked.
	close() error
	// kernel is the kernel the instance serves from.
	kernel() *kernel.Kernel
}

// workload is one named, seeded input set. README.md and
// BENCHMARK.json give the reason for each.
type workload struct {
	name  string
	root  string // name of the per-op root span
	setup func(seed int64) (bench, error)
}

var workloads = []workload{
	{"kv-snapshot", "kv.request", setupKV},
	{"fuzz-forkserver", "fuzz.exec", setupFuzz},
	{"serverless-pressure", "sv.request", setupServerless},
	{"ckpt-roundtrip", "ckpt.restore", setupCkpt},
}

// outcome is what one timed phase measured.
type outcome struct {
	ops          []float64 // completed ops' latencies, µs
	attempted    int
	fails        map[string]int       // failure class → count
	timings      map[string][]float64 // layer samples (µs unless the name says ms)
	values       map[string]float64   // per-layer values a workload computes itself
	counts       counts               // work counters the phase charged
	framesPeak   int64                // frames high-water of the phase
	host         hostDelta
	elapsed      time.Duration
	spans        []span
	droppedSpans int
}

func newOutcome() *outcome {
	return &outcome{fails: map[string]int{}, timings: map[string][]float64{}, values: map[string]float64{}, counts: counts{}}
}

func (o *outcome) fail(class string) {
	o.attempted++
	o.fails[class]++
}

func (o *outcome) ok(latUS float64) {
	o.attempted++
	o.ops = append(o.ops, latUS)
}

func (o *outcome) failed() int {
	n := 0
	for _, v := range o.fails {
		n += v
	}
	return n
}

// metricDef names one reported metric.
type metricDef struct{ name, unit string }

// endToEnd are the gated metrics: costs a user of the system sees that
// a shared 2-vCPU VM resolves from run to run. Op latency and
// throughput are printed in every row and reported as per-layer
// metrics (op.*): on such a host they follow the hypervisor's steal
// time and the neighbours' load more than the program.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cpu_us_per_op", "us"},
	{"frames_peak_mib", "MiB"},
	{"go_heap_live_mib", "MiB"},
}

// opRow are the op latency and throughput figures every row prints.
var opRow = []metricDef{
	{"op_p50_us", "us"},
	{"op_p99_us", "us"},
	{"ops_per_s", "1/s"},
}

var perLayer = []metricDef{
	{"op.p50_us", "us"},
	{"op.p99_us", "us"},
	{"op.per_s", "1/s"},
	{"op.steal_ratio", "ratio"},
	{"gen.late_p99_us", "us"},
	{"serve.outside_p50_us", "us"},
	{"serve.outside_p99_us", "us"},
	{"serve.handle_p50_us", "us"},
	{"serve.handle_p99_us", "us"},
	{"kvstore.get_p50_us", "us"},
	{"kvstore.set_p50_us", "us"},
	{"kvstore.set_p99_us", "us"},
	{"fuzz.child_p50_us", "us"},
	{"fork.count", "count"},
	{"fork.pause_p50_us", "us"},
	{"fork.pause_p99_us", "us"},
	{"forkwin.count", "count"},
	{"forkwin.p90_us", "us"},
	{"snapshot.child_p50_ms", "ms"},
	{"snapshot.cadence_ms", "ms"},
	{"fork.tables_shared_per_fork", "count"},
	{"fault.read_per_op", "count"},
	{"fault.write_per_op", "count"},
	{"fault.table_copies_per_op", "count"},
	{"fault.page_copies_per_op", "count"},
	{"fault.zero_elides_per_op", "count"},
	{"fault.table_copy_ratio", "ratio"},
	{"alloc.shard_hit_ratio", "ratio"},
	{"alloc.refills_per_op", "count"},
	{"alloc.drains_per_op", "count"},
	{"tlb.hit_ratio", "ratio"},
	{"tlb.flushes_per_op", "count"},
	{"tlb.shootdowns_per_op", "count"},
	{"reclaim.swapins_per_op", "count"},
	{"reclaim.swapouts_per_op", "count"},
	{"reclaim.direct_stalls_per_op", "count"},
	{"reclaim.kswapd_wakeups", "count"},
	{"reclaim.refault_ratio", "ratio"},
	{"reclaim.scan_per_steal", "ratio"},
	{"tenant.admitted", "count"},
	{"tenant.queued", "count"},
	{"tenant.rejected", "count"},
	{"tenant.timed_out", "count"},
	{"tenant.queue_wait_mean_us", "us"},
	{"ckpt.write_p50_us", "us"},
	{"ckpt.open_p50_us", "us"},
	{"ckpt.adopt_p50_us", "us"},
	{"ckpt.read_p50_us", "us"},
	{"ckpt.pageins_per_op", "count"},
	{"ckpt.chunk_loads_per_op", "count"},
	{"ckpt.bytes_per_write", "B"},
	{"ckpt.pages_skipped_per_write", "count"},
	{"ckpt.read_retries", "count"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_p99_us", "us"},
	{"go.alloc_bytes_per_op", "B"},
	{"ledger.residue_p50_us", "us"},
	{"trace.overhead_ratio", "ratio"},
	{"failed_ratio", "ratio"},
	{"fail.transport", "count"},
	{"fail.app", "count"},
	{"fail.quota", "count"},
	{"fail.nomem", "count"},
	{"fail.target", "count"},
	{"fail.ckpt", "count"},
	{"fail.snapshot", "count"},
	{"fail.verify", "count"},
}

// failClasses are the failure classes the fail.* metrics report; any
// other class is a bug in the benchmark.
var failClasses = []string{"transport", "app", "quota", "nomem", "target", "ckpt", "snapshot", "verify"}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type options struct {
	seed     int64
	seconds  int
	trace    bool
	traceDir string
}

// A run sets its workload up at least setups times and until
// setupTime has passed; setup_s is the median, and the last instance is
// the one measured. The time floor gives a set-up of a few milliseconds
// enough samples that one GC or host stall does not move the median.
const (
	setups    = 5
	setupTime = 2 * time.Second
)

func main() {
	name := flag.String("workload", "", "workload name, or all")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "measured seconds per run")
	traceArg := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	traceDir := flag.String("trace-dir", ".bench_build", "directory for the Chrome trace of a traced run")
	repeat := flag.Bool("repeat-check", false, "run fuzz-forkserver twice with one seed and compare work counts")
	flag.Parse()

	if *repeat {
		if err := repeatCheck(*seed, *seconds); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		return
	}
	if *seconds < 1 || (*traceArg != 0 && *traceArg != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	var selected []workload
	for _, w := range workloads {
		if *name == w.name || *name == "all" {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	o := options{seed: *seed, seconds: *seconds, trace: *traceArg == 1, traceDir: *traceDir}
	printHeader(o)

	final := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, w := range selected {
		res, err := runWorkload(w, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			os.Exit(2)
		}
		final.Correct = final.Correct && res.Correct
		final.Attempted += res.Attempted
		final.Failed += res.Failed
		for k, v := range res.Metrics {
			if len(selected) > 1 {
				k = w.name + "." + k
			}
			final.Metrics[k] = v
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !final.Correct {
		os.Exit(1)
	}
}

// printHeader records what the numbers depend on.
func printHeader(o options) {
	fmt.Printf("# perfbench commit=%s go=%s gomaxprocs=%d nproc=%d calib_loop_ms=%.3f seed=%d seconds=%d trace=%v\n",
		commit, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), calibrate(), o.seed, o.seconds, o.trace)
}

// calibrate times a fixed integer loop: the host-speed reference the
// numbers of a run should be read against.
func calibrate() float64 {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 50_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibSink = x
	return float64(time.Since(start)) / 1e6
}

var calibSink uint64

// runWorkload sets w up (keeping the last instance), measures it, tears
// it down and builds the result.
func runWorkload(w workload, o options) (result, error) {
	var setupS []float64
	var b bench
	var problems []string
	for first := time.Now(); ; {
		start := time.Now()
		nb, err := w.setup(o.seed)
		if err != nil {
			return result{}, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
		if len(setupS) >= setups && time.Since(first) >= setupTime {
			b = nb
			break
		}
		if err := nb.close(); err != nil {
			problems = append(problems, "teardown after setup: "+err.Error())
		}
	}

	// End-to-end figures come from an untraced phase; a traced run
	// splits its time between one untraced and one traced phase.
	phase := time.Duration(o.seconds) * time.Second
	if o.trace {
		phase /= 2
	}
	frames := b.kernel().Allocator()
	peak0 := frames.Peak()
	sampler := startPhaseSampler(frames)
	plain, err := b.measure(phase, nil)
	heapMiB, framesMax := sampler.finish()
	if err == nil {
		// A phase that raised the kernel's all-time peak reached exactly
		// that peak; otherwise its samples are the only record.
		if peak := frames.Peak(); peak > peak0 {
			framesMax = peak
		}
		plain.framesPeak = max(plain.framesPeak, framesMax)
	}
	var traced *outcome
	if err == nil && o.trace {
		tr := newTracer()
		if traced, err = b.measure(phase, tr); err == nil {
			traced.spans, traced.droppedSpans = tr.snapshot()
		}
	}
	if cerr := b.close(); cerr != nil {
		problems = append(problems, "teardown: "+cerr.Error())
	}
	if err != nil {
		return result{}, fmt.Errorf("measure: %w", err)
	}
	// Every op of the run counts, traced or not.
	res := result{Metrics: map[string]metricValue{}}
	verifyFails := 0
	for _, ph := range []*outcome{plain, traced} {
		if ph == nil {
			continue
		}
		res.Attempted += ph.attempted
		res.Failed += ph.failed()
		verifyFails += ph.fails["verify"]
		for c := range ph.fails {
			if !slices.Contains(failClasses, c) {
				return result{}, fmt.Errorf("unknown failure class %q", c)
			}
		}
	}
	if verifyFails > 0 {
		problems = append(problems, fmt.Sprintf("%d ops failed verification", verifyFails))
	}
	res.Correct = len(problems) == 0
	if res.Attempted == 0 {
		return result{}, errors.New("no operation was attempted")
	}
	q := summarize(plain.ops)
	e2e := map[string]float64{
		"setup_s":          percentile(sortedCopy(setupS), 50),
		"op_p50_us":        q.p50,
		"op_p99_us":        q.reported,
		"ops_per_s":        float64(q.n) / plain.elapsed.Seconds(),
		"cpu_us_per_op":    ratio(float64(plain.host.cpu)/1e3, float64(q.n)),
		"frames_peak_mib":  float64(plain.framesPeak) * 4096 / (1 << 20),
		"go_heap_live_mib": heapMiB,
	}
	tailNote := ""
	if q.tailPct < 99 {
		tailNote = fmt.Sprintf(" (only %d samples: op_p99_us reports p%g)", q.n, q.tailPct)
	}
	fmt.Printf("%s seed=%d n=%d attempted=%d failed=%d tail=p%g:%.1fus host_steal=%.1f%%%s\n",
		w.name, o.seed, q.n, plain.attempted, plain.failed(), q.tailPct, q.tail, 100*plain.host.stealFrac, tailNote)
	printRow("  e2e", endToEnd, e2e)
	printRow("  op", opRow, e2e)

	if !o.trace {
		for _, m := range endToEnd {
			res.Metrics[m.name] = metricValue{e2e[m.name], m.unit}
		}
	} else {
		layers := layerMetrics(w, traced, plain)
		printRow("  layer", perLayer, layers)
		for _, m := range perLayer {
			res.Metrics[m.name] = metricValue{layers[m.name], m.unit}
		}
		path := filepath.Join(o.traceDir, fmt.Sprintf("trace-%s-%d.json", w.name, o.seed))
		if err := os.MkdirAll(o.traceDir, 0o755); err != nil {
			return result{}, err
		}
		if err := writeChrome(path, traced.spans); err != nil {
			return result{}, err
		}
		fmt.Printf("  trace %s (%d spans, %d dropped)\n", path, len(traced.spans), traced.droppedSpans)
	}
	for _, p := range problems {
		fmt.Printf("  CHECK FAILED: %s\n", p)
	}
	return res, nil
}

func printRow(prefix string, defs []metricDef, vals map[string]float64) {
	var b strings.Builder
	b.WriteString(prefix)
	for i, m := range defs {
		if i > 0 && i%6 == 0 {
			b.WriteString("\n" + strings.Repeat(" ", len(prefix)))
		}
		fmt.Fprintf(&b, " %s=%.4g %s", m.name, vals[m.name], m.unit)
	}
	fmt.Println(b.String())
}

// layerMetrics derives every per-layer metric from a traced phase and
// the untraced phase before it. A layer the workload does not exercise
// has no samples and no counts, so it reports zero.
func layerMetrics(w workload, out, plain *outcome) map[string]float64 {
	m := map[string]float64{}
	for _, d := range perLayer {
		m[d.name] = 0
	}
	op := summarize(plain.ops)
	m["op.p50_us"], m["op.p99_us"] = op.p50, op.reported
	m["op.per_s"] = float64(len(plain.ops)) / plain.elapsed.Seconds()
	m["op.steal_ratio"] = plain.host.stealFrac
	q := func(name string, p float64) float64 { return percentile(sortedCopy(out.timings[name]), p) }
	n := float64(len(out.ops))
	c := out.counts

	m["gen.late_p99_us"] = q("gen.late", 99)
	m["serve.outside_p50_us"] = q("serve.outside", 50)
	m["serve.outside_p99_us"] = q("serve.outside", 99)
	m["serve.handle_p50_us"] = q("serve.handle", 50)
	m["serve.handle_p99_us"] = q("serve.handle", 99)
	m["kvstore.get_p50_us"] = q("kvstore.get", 50)
	m["kvstore.set_p50_us"] = q("kvstore.set", 50)
	m["kvstore.set_p99_us"] = q("kvstore.set", 99)
	m["fuzz.child_p50_us"] = q("fuzz.child", 50)
	m["fork.count"] = c["fork.count"]
	m["fork.pause_p50_us"] = q("fork.pause", 50)
	m["fork.pause_p99_us"] = q("fork.pause", 99)
	m["forkwin.count"] = float64(len(out.timings["forkwin"]))
	m["forkwin.p90_us"] = q("forkwin", 90)
	m["snapshot.child_p50_ms"] = q("snapshot.child_ms", 50)
	m["snapshot.cadence_ms"] = out.values["snapshot.cadence_ms"]

	m["fork.tables_shared_per_fork"] = ratio(c["fork.tables_shared"], c["fork.count"])
	m["fault.read_per_op"] = ratio(c["fault.read"], n)
	m["fault.write_per_op"] = ratio(c["fault.write"], n)
	m["fault.table_copies_per_op"] = ratio(c["fault.table_copies"], n)
	m["fault.page_copies_per_op"] = ratio(c["fault.page_copies"], n)
	m["fault.zero_elides_per_op"] = ratio(c["fault.zero_elides"], n)
	m["fault.table_copy_ratio"] = ratio(c["fault.table_copies"], c["fork.tables_shared"])

	m["alloc.shard_hit_ratio"] = ratio(c["alloc.shard_hits"], c["alloc.shard_hits"]+c["alloc.refills"])
	m["alloc.refills_per_op"] = ratio(c["alloc.refills"], n)
	m["alloc.drains_per_op"] = ratio(c["alloc.drains"], n)
	m["tlb.hit_ratio"] = ratio(c["tlb.hits"], c["tlb.hits"]+c["tlb.misses"])
	m["tlb.flushes_per_op"] = ratio(c["tlb.flushes"], n)
	m["tlb.shootdowns_per_op"] = ratio(c["tlb.shootdowns"], n)

	m["reclaim.swapins_per_op"] = ratio(c["reclaim.swapins"], n)
	m["reclaim.swapouts_per_op"] = ratio(c["reclaim.swapouts"], n)
	m["reclaim.direct_stalls_per_op"] = ratio(c["reclaim.direct"], n)
	m["reclaim.kswapd_wakeups"] = c["reclaim.kswapd"]
	m["reclaim.refault_ratio"] = ratio(c["reclaim.swapins"], c["reclaim.swapouts"])
	m["reclaim.scan_per_steal"] = ratio(c["reclaim.scanned"], c["reclaim.stolen"])

	m["tenant.admitted"] = c["tenant.admitted"]
	m["tenant.queued"] = c["tenant.queued"]
	m["tenant.rejected"] = c["tenant.rejected"]
	m["tenant.timed_out"] = c["tenant.timed_out"]
	m["tenant.queue_wait_mean_us"] = ratio(c["tenant.wait_ns"], c["tenant.wait_count"]) / 1e3

	m["ckpt.write_p50_us"] = q("ckpt.write", 50)
	m["ckpt.open_p50_us"] = q("ckpt.open", 50)
	m["ckpt.adopt_p50_us"] = q("ckpt.adopt", 50)
	m["ckpt.read_p50_us"] = q("ckpt.read", 50)
	m["ckpt.pageins_per_op"] = ratio(c["ckpt.pageins"], n)
	m["ckpt.chunk_loads_per_op"] = ratio(c["ckpt.chunk_loads"], n)
	m["ckpt.bytes_per_write"] = ratio(c["ckpt.bytes"], c["ckpt.writes"])
	m["ckpt.pages_skipped_per_write"] = ratio(c["ckpt.pages_skipped"], c["ckpt.writes"])
	m["ckpt.read_retries"] = c["ckpt.read_retries"]

	m["go.gc_cycles"] = float64(out.host.cycles)
	m["go.gc_pause_p99_us"] = out.host.pauseP99US
	m["go.alloc_bytes_per_op"] = ratio(float64(out.host.allocBytes), n)

	m["ledger.residue_p50_us"] = percentile(sortedCopy(ledgerResidues(out.spans, w.root)), 50)
	m["trace.overhead_ratio"] = ratio(percentile(sortedCopy(out.ops), 50), percentile(sortedCopy(plain.ops), 50))

	// Failures count over both phases, like the result's totals.
	m["failed_ratio"] = ratio(float64(out.failed()+plain.failed()), float64(out.attempted+plain.attempted))
	for _, cl := range failClasses {
		m["fail."+cl] = float64(out.fails[cl] + plain.fails[cl])
	}
	return m
}
