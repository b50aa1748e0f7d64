// Package obs is the observability surface of the simulated kernel: an
// OpenMetrics renderer (and in-tree parser, so the exposition format is
// testable without an external scraper), an opt-in HTTP listener
// serving metrics, trace downloads, health, and pprof, and a stall
// watchdog that turns metric deltas into structured alert events on the
// flight recorder and a /proc/odf/health verdict.
package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/metrics"
)

// RenderOpenMetrics renders a telemetry snapshot as OpenMetrics text:
// `_total` counters, cumulative `le`-labelled histogram buckets with
// `_count` and `_sum`, gauges, and per-tenant partitions labelled by
// tenant id. Histogram buckets carry exemplars (`# {request_id="…"} v`)
// for the worst tagged observations, linking a p99 bucket to the
// request trace that produced it. The output always ends with `# EOF`
// as the spec requires, and round-trips through ParseOpenMetrics.
func RenderOpenMetrics(s metrics.Snapshot) string {
	var b strings.Builder

	counter := func(name string, labels Labels, v uint64) {
		fmt.Fprintf(&b, "%s_total%s %s\n", name, labels, formatValue(float64(v)))
	}
	gauge := func(name string, v int64) {
		fmt.Fprintf(&b, "%s %s\n", name, formatValue(float64(v)))
	}

	// hist renders one histogram's cumulative buckets, attaching each
	// exemplar to the first bucket whose bound covers it (largest
	// observation wins a contended bucket; OpenMetrics allows one
	// exemplar per line).
	hist := func(name string, labels Labels, hs metrics.HistogramSnapshot) {
		exByBucket := make(map[int]metrics.Exemplar)
		for _, e := range hs.Exemplars {
			i := metrics.Log2Bucket(e.NS)
			if prev, ok := exByBucket[i]; !ok || e.NS > prev.NS {
				exByBucket[i] = e
			}
		}
		var cum uint64
		for i, n := range hs.Log2Buckets() {
			cum += n
			le := "+Inf"
			if bound := metrics.BucketBound(i); bound != 0 {
				le = strconv.FormatUint(bound, 10)
			}
			bl := append(append(Labels{}, labels...), Label{"le", le})
			fmt.Fprintf(&b, "%s_bucket%s %s", name, bl, formatValue(float64(cum)))
			if e, ok := exByBucket[i]; ok {
				fmt.Fprintf(&b, " # %s %s",
					Labels{{"request_id", strconv.FormatUint(e.Req, 10)}},
					formatValue(float64(e.NS)))
			}
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "%s_count%s %s\n", name, labels, formatValue(float64(hs.Count)))
		fmt.Fprintf(&b, "%s_sum%s %s\n", name, labels, formatValue(float64(hs.SumNS)))
	}
	typ := func(name, kind string) { fmt.Fprintf(&b, "# TYPE %s %s\n", name, kind) }

	// Fork engines.
	typ("odf_forks", "counter")
	for e := metrics.ForkEngine(0); e < metrics.NumEngines; e++ {
		counter("odf_forks", Labels{{"engine", e.String()}}, s.Fork.Engines[e].Forks)
	}
	typ("odf_fork_latency_ns", "histogram")
	for e := metrics.ForkEngine(0); e < metrics.NumEngines; e++ {
		hist("odf_fork_latency_ns", Labels{{"engine", e.String()}}, s.Fork.Engines[e].Latency)
	}

	// Fault handler.
	typ("odf_faults", "counter")
	counter("odf_faults", Labels{{"op", "read"}}, s.Fault.ReadFaults)
	counter("odf_faults", Labels{{"op", "write"}}, s.Fault.WriteFaults)
	typ("odf_fault_latency_ns", "histogram")
	hist("odf_fault_latency_ns", Labels{{"op", "read"}}, s.Fault.ReadLatency)
	hist("odf_fault_latency_ns", Labels{{"op", "write"}}, s.Fault.WriteLatency)
	typ("odf_fault_class", "counter")
	for _, c := range []struct {
		class string
		v     uint64
	}{
		{"table_splits", s.Fault.TableSplits},
		{"pmd_splits", s.Fault.PMDSplits},
		{"fast_dedups", s.Fault.FastDedups},
		{"page_copies", s.Fault.PageCopies},
		{"huge_copies", s.Fault.HugeCopies},
		{"zero_elides", s.Fault.ZeroElides},
	} {
		counter("odf_fault_class", Labels{{"class", c.class}}, c.v)
	}

	// Admission control and reclaim.
	typ("odf_admission_queue_wait_ns", "histogram")
	hist("odf_admission_queue_wait_ns", nil, s.Tenant.QueueWait)
	typ("odf_admission_forks", "counter")
	counter("odf_admission_forks", Labels{{"verdict", "admitted"}}, s.Tenant.ForksAdmitted)
	counter("odf_admission_forks", Labels{{"verdict", "queued"}}, s.Tenant.ForksQueued)
	counter("odf_admission_forks", Labels{{"verdict", "rejected"}}, s.Tenant.ForksRejected)
	typ("odf_reclaim_steals", "counter")
	counter("odf_reclaim_steals", Labels{{"actor", "kswapd"}}, s.Reclaim.PgStealKswapd)
	counter("odf_reclaim_steals", Labels{{"actor", "direct"}}, s.Reclaim.PgStealDirect)
	typ("odf_reclaim_direct_stall_ns", "histogram")
	hist("odf_reclaim_direct_stall_ns", nil, s.Reclaim.DirectStallLatency)
	typ("odf_swap_degrades", "counter")
	counter("odf_swap_degrades", nil, s.Robust.SwapDegrades)

	// Allocator gauges.
	typ("odf_frames_in_use", "gauge")
	gauge("odf_frames_in_use", s.Alloc.FramesInUse)
	typ("odf_frames_peak", "gauge")
	gauge("odf_frames_peak", s.Alloc.FramesPeak)

	// Per-tenant partitions: one series set per registered tenant,
	// keyed by the tenant id (names travel in a dedicated info-style
	// label so dashboards can join on either).
	if len(s.Tenants) > 0 {
		typ("odf_tenant_forks", "counter")
		for _, t := range s.Tenants {
			for e := metrics.ForkEngine(0); e < metrics.NumEngines; e++ {
				counter("odf_tenant_forks", tenantLabels(t, Label{"engine", e.String()}), t.Forks[e])
			}
		}
		typ("odf_tenant_fork_latency_ns", "histogram")
		for _, t := range s.Tenants {
			for e := metrics.ForkEngine(0); e < metrics.NumEngines; e++ {
				hist("odf_tenant_fork_latency_ns", tenantLabels(t, Label{"engine", e.String()}), t.ForkLatency[e])
			}
		}
		typ("odf_tenant_fault_class", "counter")
		for _, t := range s.Tenants {
			for _, c := range []struct {
				class string
				v     uint64
			}{
				{"table_splits", t.TableSplits},
				{"pmd_splits", t.PMDSplits},
				{"fast_dedups", t.FastDedups},
				{"page_copies", t.PageCopies},
				{"huge_copies", t.HugeCopies},
				{"swap_ins", t.SwapIns},
			} {
				counter("odf_tenant_fault_class", tenantLabels(t, Label{"class", c.class}), c.v)
			}
		}
		typ("odf_tenant_queue_wait_ns", "histogram")
		for _, t := range s.Tenants {
			hist("odf_tenant_queue_wait_ns", tenantLabels(t), t.QueueWait)
		}
		typ("odf_tenant_reclaim_evictions", "counter")
		for _, t := range s.Tenants {
			counter("odf_tenant_reclaim_evictions", tenantLabels(t), t.ReclaimEvictions)
		}
		typ("odf_tenant_quota_rejections", "counter")
		for _, t := range s.Tenants {
			counter("odf_tenant_quota_rejections", tenantLabels(t), t.QuotaRejections)
		}
	}

	b.WriteString("# EOF\n")
	return b.String()
}

func tenantLabels(t metrics.TenantSlotSnapshot, extra ...Label) Labels {
	ls := Labels{
		{"tenant", strconv.FormatUint(t.ID, 10)},
		{"tenant_name", t.Name},
	}
	return append(ls, extra...)
}

// formatValue renders a sample value the way the parser re-renders it,
// so render → parse → render is the identity.
func formatValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Label is one name="value" pair. Order is significant: the renderer
// emits labels in a fixed order and the parser preserves it, which is
// what makes the round-trip exact.
type Label struct {
	Name  string
	Value string
}

// Labels is an ordered label set.
type Labels []Label

// Get returns the value of the named label ("" when absent).
func (ls Labels) Get(name string) string {
	for _, l := range ls {
		if l.Name == name {
			return l.Value
		}
	}
	return ""
}

// String renders the label set in OpenMetrics syntax, with values
// escaped. An empty set renders as "".
func (ls Labels) String() string {
	if len(ls) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// withoutLE returns the label set minus the "le" label, as a map key.
func (ls Labels) withoutLE() string {
	var b strings.Builder
	for _, l := range ls {
		if l.Name == "le" {
			continue
		}
		fmt.Fprintf(&b, "%s=%q,", l.Name, l.Value)
	}
	return b.String()
}

func escapeLabelValue(v string) string {
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// Exemplar is a parsed bucket exemplar.
type Exemplar struct {
	Labels Labels
	Value  float64
}

// Sample is one parsed exposition line.
type Sample struct {
	Name     string
	Labels   Labels
	Value    float64
	Exemplar *Exemplar
}

// Family is one `# TYPE` group and the samples under it.
type Family struct {
	Name    string
	Type    string // "counter", "gauge", "histogram"
	Samples []Sample
}

// Exposition is a parsed OpenMetrics document.
type Exposition struct {
	Families []*Family
	byName   map[string]*Family
}

// Family returns the named metric family (nil when absent).
func (e *Exposition) Family(name string) *Family {
	return e.byName[name]
}

// Render regenerates the OpenMetrics text from the parsed document.
// For documents produced by RenderOpenMetrics, Render returns the
// original bytes — the round-trip tests pin this.
func (e *Exposition) Render() string {
	var b strings.Builder
	for _, f := range e.Families {
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.Name, f.Type)
		for _, s := range f.Samples {
			fmt.Fprintf(&b, "%s%s %s", s.Name, s.Labels, formatValue(s.Value))
			if s.Exemplar != nil {
				fmt.Fprintf(&b, " # %s %s", s.Exemplar.Labels, formatValue(s.Exemplar.Value))
			}
			b.WriteByte('\n')
		}
	}
	b.WriteString("# EOF\n")
	return b.String()
}

// ParseOpenMetrics parses an OpenMetrics document (the subset
// RenderOpenMetrics emits: TYPE comments, labelled samples, bucket
// exemplars, a final # EOF) and validates its structure: every sample
// belongs to a declared family, histogram buckets are cumulative with
// a +Inf bucket matching _count, and the document is EOF-terminated.
func ParseOpenMetrics(r io.Reader) (*Exposition, error) {
	exp := &Exposition{byName: make(map[string]*Family)}
	var cur *Family
	sawEOF := false
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if sawEOF {
			return nil, fmt.Errorf("openmetrics: line %d: content after # EOF", lineNo)
		}
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if line == "# EOF" {
				sawEOF = true
				continue
			}
			rest, ok := strings.CutPrefix(line, "# TYPE ")
			if !ok {
				// HELP/UNIT and arbitrary comments are accepted and dropped.
				continue
			}
			name, kind, ok := strings.Cut(rest, " ")
			if !ok {
				return nil, fmt.Errorf("openmetrics: line %d: malformed TYPE", lineNo)
			}
			if _, dup := exp.byName[name]; dup {
				return nil, fmt.Errorf("openmetrics: line %d: duplicate TYPE for %s", lineNo, name)
			}
			cur = &Family{Name: name, Type: kind}
			exp.Families = append(exp.Families, cur)
			exp.byName[name] = cur
			continue
		}
		s, err := parseSampleLine(line)
		if err != nil {
			return nil, fmt.Errorf("openmetrics: line %d: %w", lineNo, err)
		}
		f := familyOf(exp, s.Name)
		if f == nil {
			return nil, fmt.Errorf("openmetrics: line %d: sample %s outside any TYPE family", lineNo, s.Name)
		}
		if s.Exemplar != nil && f.Type != "histogram" {
			return nil, fmt.Errorf("openmetrics: line %d: exemplar on non-histogram %s", lineNo, s.Name)
		}
		f.Samples = append(f.Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("openmetrics: %w", err)
	}
	if !sawEOF {
		return nil, fmt.Errorf("openmetrics: missing # EOF terminator")
	}
	if err := exp.validate(); err != nil {
		return nil, err
	}
	return exp, nil
}

// familyOf resolves the family a sample belongs to, accounting for the
// histogram/counter suffixes samples carry over their family name.
func familyOf(exp *Exposition, sample string) *Family {
	if f := exp.byName[sample]; f != nil {
		return f
	}
	for _, suf := range []string{"_total", "_bucket", "_count", "_sum"} {
		if base, ok := strings.CutSuffix(sample, suf); ok {
			if f := exp.byName[base]; f != nil {
				return f
			}
		}
	}
	return nil
}

func parseSampleLine(line string) (Sample, error) {
	var s Sample
	// Labels are parsed before the exemplar split so a label value
	// containing " # " cannot derail the scan.
	name := line
	rest := ""
	brace := strings.IndexByte(line, '{')
	space := strings.IndexByte(line, ' ')
	if brace >= 0 && (space < 0 || brace < space) {
		name = line[:brace]
		var err error
		s.Labels, rest, err = parseLabels(line[brace:])
		if err != nil {
			return s, err
		}
		rest = strings.TrimPrefix(rest, " ")
	} else if space >= 0 {
		name = line[:space]
		rest = line[space+1:]
	} else {
		return s, fmt.Errorf("sample %q has no value", line)
	}
	s.Name = name
	valStr, exemplar, hasEx := strings.Cut(rest, " # ")
	v, err := strconv.ParseFloat(strings.TrimSpace(valStr), 64)
	if err != nil {
		return s, fmt.Errorf("sample %s: bad value %q", name, valStr)
	}
	s.Value = v
	if hasEx {
		ls, exRest, err := parseLabels(exemplar)
		if err != nil {
			return s, fmt.Errorf("sample %s exemplar: %w", name, err)
		}
		ev, err := strconv.ParseFloat(strings.TrimSpace(exRest), 64)
		if err != nil {
			return s, fmt.Errorf("sample %s exemplar: bad value %q", name, exRest)
		}
		s.Exemplar = &Exemplar{Labels: ls, Value: ev}
	}
	return s, nil
}

// parseLabels parses a `{name="value",...}` block starting at in[0]
// and returns the labels plus the unconsumed tail.
func parseLabels(in string) (Labels, string, error) {
	if len(in) == 0 || in[0] != '{' {
		return nil, "", fmt.Errorf("labels must start with '{', got %q", in)
	}
	var ls Labels
	i := 1
	for {
		if i >= len(in) {
			return nil, "", fmt.Errorf("unterminated label set")
		}
		if in[i] == '}' {
			return ls, in[i+1:], nil
		}
		if in[i] == ',' {
			i++
			continue
		}
		eq := strings.IndexByte(in[i:], '=')
		if eq < 0 {
			return nil, "", fmt.Errorf("label without '='")
		}
		name := in[i : i+eq]
		i += eq + 1
		if i >= len(in) || in[i] != '"' {
			return nil, "", fmt.Errorf("label %s: unquoted value", name)
		}
		i++
		var val strings.Builder
		for {
			if i >= len(in) {
				return nil, "", fmt.Errorf("label %s: unterminated value", name)
			}
			c := in[i]
			if c == '\\' {
				if i+1 >= len(in) {
					return nil, "", fmt.Errorf("label %s: dangling escape", name)
				}
				switch in[i+1] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return nil, "", fmt.Errorf("label %s: bad escape \\%c", name, in[i+1])
				}
				i += 2
				continue
			}
			if c == '"' {
				i++
				break
			}
			val.WriteByte(c)
			i++
		}
		ls = append(ls, Label{Name: name, Value: val.String()})
	}
}

// validate enforces the structural invariants: histogram bucket runs
// are cumulative in le order, the +Inf bucket equals _count, and every
// histogram has _count and _sum.
func (e *Exposition) validate() error {
	for _, f := range e.Families {
		if f.Type != "histogram" {
			continue
		}
		type series struct {
			buckets []Sample // in emission order
			count   *Sample
			sum     *Sample
		}
		byKey := make(map[string]*series)
		var keys []string
		get := func(ls Labels) *series {
			k := ls.withoutLE()
			s := byKey[k]
			if s == nil {
				s = &series{}
				byKey[k] = s
				keys = append(keys, k)
			}
			return s
		}
		for i := range f.Samples {
			s := &f.Samples[i]
			switch s.Name {
			case f.Name + "_bucket":
				get(s.Labels).buckets = append(get(s.Labels).buckets, *s)
			case f.Name + "_count":
				get(s.Labels).count = s
			case f.Name + "_sum":
				get(s.Labels).sum = s
			default:
				return fmt.Errorf("openmetrics: %s: unexpected sample %s in histogram family", f.Name, s.Name)
			}
		}
		sort.Strings(keys)
		for _, k := range keys {
			sr := byKey[k]
			if sr.count == nil || sr.sum == nil {
				return fmt.Errorf("openmetrics: %s{%s}: histogram missing _count or _sum", f.Name, k)
			}
			if len(sr.buckets) == 0 {
				return fmt.Errorf("openmetrics: %s{%s}: histogram has no buckets", f.Name, k)
			}
			prevLE := -1.0
			prev := -1.0
			sawInf := false
			for _, bkt := range sr.buckets {
				leStr := bkt.Labels.Get("le")
				var le float64
				if leStr == "+Inf" {
					le = inf()
					sawInf = true
				} else {
					var err error
					le, err = strconv.ParseFloat(leStr, 64)
					if err != nil {
						return fmt.Errorf("openmetrics: %s{%s}: bad le %q", f.Name, k, leStr)
					}
				}
				if le <= prevLE {
					return fmt.Errorf("openmetrics: %s{%s}: le bounds not increasing", f.Name, k)
				}
				if bkt.Value < prev {
					return fmt.Errorf("openmetrics: %s{%s}: bucket counts not cumulative (le=%s)", f.Name, k, leStr)
				}
				prevLE, prev = le, bkt.Value
			}
			if !sawInf {
				return fmt.Errorf("openmetrics: %s{%s}: missing +Inf bucket", f.Name, k)
			}
			if last := sr.buckets[len(sr.buckets)-1].Value; last != sr.count.Value {
				return fmt.Errorf("openmetrics: %s{%s}: +Inf bucket %v != count %v", f.Name, k, last, sr.count.Value)
			}
		}
	}
	return nil
}

func inf() float64 {
	v, _ := strconv.ParseFloat("+Inf", 64)
	return v
}
