package kernel

import (
	"fmt"
	"io/fs"
	"strconv"
	"strings"

	"repro/internal/mem/addr"
)

// procfs-style introspection: the paper configures on-demand-fork
// through procfs, and its experiments read kernel state the same way.
// These helpers render the simulated equivalents of /proc/pid/maps and
// /proc/pid/status, and Kernel.Procfs routes path reads over them.

// Procfs reads one file of the simulated procfs namespace:
//
//	/proc/odf          — lists the registered odf endpoints, one per line
//	/proc/odf/metrics  — system-wide telemetry (MetricsSnapshot rendering)
//	/proc/odf/profile  — the Figure 3 cost attribution, computed from
//	                     the metrics counters
//	/proc/odf/trace    — the flight-recorder timeline (human-readable)
//	/proc/odf/vmstat   — reclaim/swap counters in /proc/vmstat style
//	/proc/<pid>/maps   — the process's mappings
//	/proc/<pid>/status — the process's memory summary
//
// The odf endpoints are dispatched through a registry built once at
// boot, so the set and its order are deterministic: the root listing
// always names them alphabetically, and matches what the per-file
// paths serve. Unknown paths fail with an error wrapping
// fs.ErrNotExist, so callers distinguish "no such file" with errors.Is
// like any filesystem read.
func (k *Kernel) Procfs(path string) (string, error) {
	notExist := func() (string, error) {
		return "", fmt.Errorf("procfs: %s: %w", path, fs.ErrNotExist)
	}
	rest, ok := strings.CutPrefix(path, "/proc/")
	if !ok {
		return notExist()
	}
	dir, file, ok := strings.Cut(rest, "/")
	if !ok {
		dir, file = rest, ""
	} else if strings.Contains(file, "/") {
		return notExist()
	}
	if dir == "odf" {
		if file == "" {
			// Directory read: list the endpoints that currently resolve.
			var b strings.Builder
			for _, ep := range k.procEndpoints {
				if _, backed := ep.read(); backed {
					b.WriteString(ep.name + "\n")
				}
			}
			return b.String(), nil
		}
		for _, ep := range k.procEndpoints {
			if ep.name != file {
				continue
			}
			content, backed := ep.read()
			if !backed {
				return notExist()
			}
			return content, nil
		}
		return notExist()
	}
	if file == "" {
		return notExist()
	}
	pid, err := strconv.Atoi(dir)
	if err != nil {
		return notExist()
	}
	p := k.Process(PID(pid))
	if p == nil {
		return notExist()
	}
	switch file {
	case "maps":
		return p.Maps(), nil
	case "status":
		return p.Status().String(), nil
	}
	return notExist()
}

// Maps renders the process's mappings like /proc/pid/maps.
func (p *Process) Maps() string {
	var b strings.Builder
	for _, v := range p.as.VMAs() {
		fmt.Fprintln(&b, v)
	}
	return b.String()
}

// Status summarizes a process's memory state, the fields the paper's
// experiments watch.
type Status struct {
	PID        PID
	Parent     PID
	VmSizeKiB  uint64 // total mapped virtual memory
	VmRSSKiB   uint64 // resident (present) memory, huge entries included
	PageTables int    // tables in (or shared into) the hierarchy
	SharedPTs  int    // last-level tables currently shared
	Faults     uint64
	TableCOWs  uint64 // shared table copies performed on demand
	PageCOWs   uint64 // data page copies performed on demand
	TLBHitRate float64
	TLBShoots  uint64 // lineage-wide shootdowns observed
}

// Status returns the process's memory summary.
func (p *Process) Status() Status {
	st := p.as.Tables()
	return Status{
		PID:        p.pid,
		Parent:     p.parent,
		VmSizeKiB:  p.as.MappedBytes() >> 10,
		VmRSSKiB:   (uint64(st.PresentPTEs)*addr.PageSize + uint64(st.HugeEntries)*addr.HugePageSize) >> 10,
		PageTables: st.Upper + st.Leaves,
		SharedPTs:  st.SharedLeaves,
		Faults:     p.as.Faults.Load(),
		TableCOWs:  p.as.TableSplits.Load(),
		PageCOWs:   p.as.PageCopies.Load(),
		TLBHitRate: p.as.TLB().HitRate(),
		TLBShoots:  p.as.TLB().Shootdowns.Load(),
	}
}

// String renders the status like /proc/pid/status.
func (s Status) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Pid:\t%d\n", s.PID)
	fmt.Fprintf(&b, "PPid:\t%d\n", s.Parent)
	fmt.Fprintf(&b, "VmSize:\t%d kB\n", s.VmSizeKiB)
	fmt.Fprintf(&b, "VmRSS:\t%d kB\n", s.VmRSSKiB)
	fmt.Fprintf(&b, "PageTables:\t%d\n", s.PageTables)
	fmt.Fprintf(&b, "SharedPTs:\t%d\n", s.SharedPTs)
	fmt.Fprintf(&b, "Faults:\t%d\n", s.Faults)
	fmt.Fprintf(&b, "TableCOWs:\t%d\n", s.TableCOWs)
	fmt.Fprintf(&b, "PageCOWs:\t%d\n", s.PageCOWs)
	fmt.Fprintf(&b, "TLBHitRate:\t%.3f\n", s.TLBHitRate)
	fmt.Fprintf(&b, "TLBShootdowns:\t%d\n", s.TLBShoots)
	return b.String()
}

// Madvise applies madvise-style advice. Only DontNeed is implemented.
func (p *Process) Madvise(start addr.V, size uint64, advice Advice) error {
	switch advice {
	case AdviceDontNeed:
		return p.as.MadviseDontneed(start, size)
	default:
		return fmt.Errorf("kernel: unsupported madvise advice %d", advice)
	}
}

// Advice selects a Madvise behaviour.
type Advice int

// Madvise advice values.
const (
	// AdviceDontNeed discards page contents, keeping the mapping.
	AdviceDontNeed Advice = iota
)
