package kernel

import (
	"crypto/rand"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ckpt"
	"repro/internal/mem/addr"
	"repro/internal/mem/vm"
	"repro/internal/tenant"
	"repro/internal/trace"
)

// Durable checkpoints: the on-disk extension of the in-memory
// Checkpoint primitive. CheckpointTo freezes a twin (microseconds,
// on-demand-fork) and streams its memory into the crash-safe columnar
// format of internal/ckpt; RestoreFrom maps a committed snapshot and
// faults pages in from disk on first touch — fork-from-disk. The twin
// is retained on the returned handle so a later CheckpointTo with
// WithCheckpointParent can diff against it: the COW lineage makes
// "which pages diverged since the parent snapshot" a frame-identity
// comparison, no dirty bits needed.

// Re-exported sentinel errors for the checkpoint store, the disk-side
// analogues of ErrSwapCorrupt/ErrSwapIO.
var (
	ErrCheckpointCorrupt = ckpt.ErrCorrupt
	ErrCheckpointIO      = ckpt.ErrIO
)

// DurableCheckpoint is the handle for one committed snapshot file.
type DurableCheckpoint struct {
	k    *Kernel
	path string
	id   [16]byte

	mu          sync.Mutex
	frozen      *Checkpoint // retained twin; nil after Release
	pages       uint64      // page records written
	bytes       uint64      // committed file size
	chunks      int
	parentRef   string // parent snapshot file name ("" = full)
	incremental bool
}

// Path returns the snapshot's file path.
func (d *DurableCheckpoint) Path() string { return d.path }

// SnapID returns the snapshot's identity as recorded in the footer.
func (d *DurableCheckpoint) SnapID() [16]byte { return d.id }

// Pages returns the number of page records the snapshot holds.
func (d *DurableCheckpoint) Pages() uint64 { return d.pages }

// Bytes returns the committed file size.
func (d *DurableCheckpoint) Bytes() uint64 { return d.bytes }

// Incremental reports whether the snapshot chains to a parent.
func (d *DurableCheckpoint) Incremental() bool { return d.incremental }

// Release frees the retained frozen twin. The file is untouched and
// stays restorable; only incremental chaining from this handle stops.
// Idempotent and safe to race with CheckpointTo using the handle.
func (d *DurableCheckpoint) Release() {
	d.mu.Lock()
	c := d.frozen
	d.frozen = nil
	d.mu.Unlock()
	if c != nil {
		c.Release()
	}
}

// CheckpointOption configures one CheckpointTo call.
type CheckpointOption func(*checkpointCfg)

type checkpointCfg struct {
	parent        *DurableCheckpoint
	crashOnInject bool
}

// WithCheckpointParent makes the snapshot incremental against parent:
// only pages diverged since the parent's capture are written, and the
// file records the parent's name and id, validated when the chain is
// opened. The parent handle must still hold its frozen twin, and the
// new snapshot must be written into the parent's directory.
func WithCheckpointParent(parent *DurableCheckpoint) CheckpointOption {
	return func(c *checkpointCfg) { c.parent = parent }
}

// WithCheckpointCrashOnInject makes write/fsync failpoint hits
// simulate the writer being killed mid-write (temp file left torn)
// instead of returning a clean error. The chaos harness's knob.
func WithCheckpointCrashOnInject() CheckpointOption {
	return func(c *checkpointCfg) { c.crashOnInject = true }
}

// ckptEnv builds the ckpt hooks for work attributed to t (nil ok).
func (k *Kernel) ckptEnv(t *tenant.Tenant) ckpt.Env {
	env := ckpt.Env{Fail: k.fail, Met: k.met}
	if t != nil {
		env.Tenant = t.TenantID()
	}
	return env
}

// CheckpointTo freezes the process and writes the frozen state to path
// as a durable snapshot, committed atomically: a crash at any point
// leaves either the previous file at path or nothing, never a torn
// snapshot. The returned handle retains the frozen twin so later
// incremental checkpoints can diff against it; call Release when no
// child snapshot will chain to it.
func (p *Process) CheckpointTo(path string, opts ...CheckpointOption) (*DurableCheckpoint, error) {
	var cfg checkpointCfg
	for _, o := range opts {
		o(&cfg)
	}
	k := p.k

	var t0 time.Time
	if k.met.Enabled() || k.trc.Enabled() {
		t0 = time.Now()
	}

	// Validate the parent before paying for the fork.
	var parentTwin *Process
	wopt := ckpt.WriterOptions{Env: k.ckptEnv(p.tenant), CrashOnInject: cfg.crashOnInject}
	if cfg.parent != nil {
		if filepath.Dir(path) != filepath.Dir(cfg.parent.path) {
			return nil, fmt.Errorf("kernel: incremental checkpoint %s must live in its parent's directory %s",
				path, filepath.Dir(cfg.parent.path))
		}
		pc := cfg.parent.frozenHandle()
		if pc == nil {
			return nil, fmt.Errorf("kernel: incremental checkpoint: parent %s released its frozen twin", cfg.parent.path)
		}
		parentTwin = pc.frozenProcess()
		if parentTwin == nil || parentTwin.Exited() {
			return nil, fmt.Errorf("kernel: incremental checkpoint: parent %s released its frozen twin", cfg.parent.path)
		}
		wopt.ParentID = cfg.parent.id
		wopt.ParentRef = filepath.Base(cfg.parent.path)
	}
	if _, err := rand.Read(wopt.SnapID[:]); err != nil {
		return nil, fmt.Errorf("kernel: checkpoint id: %w", err)
	}

	c, err := p.Checkpoint()
	if err != nil {
		return nil, err
	}
	twin := c.frozenProcess()

	for _, v := range twin.as.VMAs() {
		wopt.VMAs = append(wopt.VMAs, ckpt.VMARec{
			Start: uint64(v.Range.Start),
			Size:  uint64(v.Range.End - v.Range.Start),
			Prot:  uint8(v.Prot),
			Flags: uint8(v.Flags),
		})
	}

	w, err := ckpt.NewWriter(path, wopt)
	if err != nil {
		c.Release()
		return nil, err
	}
	if parentTwin != nil {
		skipped, verr := twin.as.VisitDivergedPages(parentTwin.as, func(v addr.V, data []byte) error {
			return w.AddPage(uint64(v), data)
		})
		if k.met.Enabled() {
			k.met.Ckpt.PagesSkipped.Add(skipped)
		}
		err = verr
	} else {
		err = twin.as.VisitPresentPages(func(v addr.V, data []byte) error {
			if data == nil {
				// A full snapshot need not record zero pages: restore
				// demand-zeroes any address with no record.
				return nil
			}
			return w.AddPage(uint64(v), data)
		})
	}
	if err != nil {
		w.Abort()
		c.Release()
		return nil, fmt.Errorf("kernel: checkpoint capture: %w", err)
	}

	stats, err := w.Commit()
	if err != nil {
		c.Release()
		return nil, err
	}

	if k.met.Enabled() {
		k.met.Ckpt.WriteLatency.Observe(time.Since(t0))
	}
	if k.trc.Enabled() {
		k.trc.Span(trace.KindCkptWrite, trace.StageNone, trace.ActorApp, t0, stats.Pages, stats.Bytes)
	}

	d := &DurableCheckpoint{
		k:           k,
		path:        path,
		id:          wopt.SnapID,
		frozen:      c,
		pages:       stats.Pages,
		bytes:       stats.Bytes,
		chunks:      stats.Chunks,
		parentRef:   wopt.ParentRef,
		incremental: cfg.parent != nil,
	}
	k.ckptMu.Lock()
	k.ckpts = append(k.ckpts, d)
	k.ckptMu.Unlock()
	return d, nil
}

func (d *DurableCheckpoint) frozenHandle() *Checkpoint {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.frozen
}

// ckptImage is the restore-side backing: one open snapshot chain
// serving lazy page-ins for every process restored from it (and their
// forks — VMA clones share the backing pointer). Chunk CRC mismatches
// and exhausted I/O retries surface from the faulting access as
// ErrCheckpointCorrupt / ErrCheckpointIO instead of reading as zeroes.
type ckptImage struct {
	k       *Kernel
	snap    *ckpt.Snapshot
	name    string
	pageIns atomic.Uint64
}

// BackingName identifies the image in diagnostics.
func (im *ckptImage) BackingName() string { return "ckpt:" + im.name }

// PageAt implements vm.Backing: the snapshot chain's content for the
// page at off. Restored VMAs set FileOff = Range.Start, so off is the
// virtual address being faulted.
func (im *ckptImage) PageAt(off uint64) ([]byte, error) {
	k := im.k
	var t0 time.Time
	if k.met.Enabled() || k.trc.Enabled() {
		t0 = time.Now()
	}
	data, found, err := im.snap.Page(off)
	if err != nil || !found {
		return nil, err
	}
	im.pageIns.Add(1)
	if k.met.Enabled() {
		k.met.Ckpt.PageIns.Inc()
		k.met.Ckpt.PageInLatency.Observe(time.Since(t0))
	}
	if k.trc.Enabled() {
		k.trc.Span(trace.KindCkptPageIn, trace.StageNone, trace.ActorApp, t0, off, 0)
	}
	return data, nil
}

// RestoreOption configures one RestoreFrom call.
type RestoreOption func(*restoreCfg)

type restoreCfg struct {
	tenant *tenant.Tenant
}

// WithRestoreTenant charges the restored process's frames to tenant t
// and runs its forks through admission control — the serverless
// cold-start path: a daemon restart restores each tenant's warm state
// from its snapshot into that tenant's account.
func WithRestoreTenant(t *tenant.Tenant) RestoreOption {
	return func(c *restoreCfg) { c.tenant = t }
}

// RestoreFrom opens the snapshot at path (resolving and validating its
// incremental chain) and creates a process whose address space maps
// it: no page data is read now — each page faults in from the file on
// first touch, CRC-verified per chunk, with transparent retry on
// transient I/O errors. Corruption discovered at fault time surfaces
// from the faulting access as ErrCheckpointCorrupt.
//
// Huge-page mappings are restored as base-page mappings (the content
// is identical; the file format stores 4 KiB records). The image stays
// open for the kernel's lifetime, shared by the restored process and
// any processes forked from it.
func (k *Kernel) RestoreFrom(path string, opts ...RestoreOption) (*Process, error) {
	var cfg restoreCfg
	for _, o := range opts {
		o(&cfg)
	}
	snap, err := ckpt.OpenChain(path, k.ckptEnv(cfg.tenant))
	if err != nil {
		return nil, fmt.Errorf("kernel: restore: %w", err)
	}
	im := &ckptImage{k: k, snap: snap, name: filepath.Base(path)}
	p := k.NewTenantProcess(cfg.tenant)
	for _, vr := range snap.VMAs() {
		flags := vm.MapFlags(vr.Flags) &^ (vm.MapHuge | vm.MapPopulate)
		if _, err := p.as.Mmap(addr.V(vr.Start), vr.Size, vm.Prot(vr.Prot), flags, im, vr.Start); err != nil {
			p.Exit()
			snap.Close()
			return nil, fmt.Errorf("kernel: restore: mapping [%#x,+%#x): %w", vr.Start, vr.Size, err)
		}
	}
	k.ckptMu.Lock()
	k.ckptImages = append(k.ckptImages, im)
	k.ckptMu.Unlock()
	if k.met.Enabled() {
		k.met.Ckpt.Restores.Inc()
	}
	return p, nil
}

// renderCheckpoints produces /proc/odf/checkpoints: one line per
// snapshot written by this kernel and one per open restore image.
func (k *Kernel) renderCheckpoints() string {
	k.ckptMu.Lock()
	ckpts := append([]*DurableCheckpoint(nil), k.ckpts...)
	images := append([]*ckptImage(nil), k.ckptImages...)
	k.ckptMu.Unlock()
	var b strings.Builder
	fmt.Fprintf(&b, "# odf checkpoints: written=%d images=%d\n", len(ckpts), len(images))
	for _, d := range ckpts {
		d.mu.Lock()
		kind := "full"
		if d.incremental {
			kind = "incr"
		}
		twin := "released"
		if d.frozen != nil {
			twin = "retained"
		}
		parent := d.parentRef
		d.mu.Unlock()
		if parent == "" {
			parent = "-"
		}
		fmt.Fprintf(&b, "ckpt  %s id=%x kind=%s pages=%d bytes=%d chunks=%d parent=%s twin=%s\n",
			filepath.Base(d.path), d.id[:4], kind, d.pages, d.bytes, d.chunks, parent, twin)
	}
	for _, im := range images {
		id := im.snap.SnapID()
		fmt.Fprintf(&b, "image %s id=%x chain=%d pages=%d page_ins=%d degraded=%v\n",
			im.name, id[:4], im.snap.ChainLen(), im.snap.Pages(), im.pageIns.Load(), im.snap.Degraded())
	}
	return b.String()
}
