package ckpt

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/failpoint"
	"repro/internal/mem/vm"
)

// chunkCacheCap bounds decoded chunks kept hot per snapshot. Eight
// chunks = 512 page records; fault bursts with locality hit the cache,
// a full sweep re-reads at most once per chunk per round.
const chunkCacheCap = 8

// decodedChunk is one chunk's parsed page records.
type decodedChunk struct {
	vaddrs []uint64
	tlens  []uint16
	offs   []uint32 // prefix sums into data
	data   []byte
}

// Snapshot is an open checkpoint file (plus its incremental parents
// when opened with OpenChain). Page reads are lazy: a chunk is read,
// CRC-verified, and decompressed on first touch, under the store
// policy the swap path shares (vm.StorePolicy): a failed read is
// retried with doubling backoff before the file latches degraded, and a
// CRC mismatch is never retried. Safe for concurrent use.
type Snapshot struct {
	path   string
	f      *os.File
	ft     *footer
	env    Env
	parent *Snapshot

	io     vm.StorePolicy
	readOp vm.StoreOp

	mu       sync.Mutex
	cache    map[int]*decodedChunk
	cacheSeq []int // FIFO eviction order
}

// Open validates and opens a single snapshot file: commit record,
// footer CRC, format version, header magic, and index sanity. It does
// not read any chunk data. Structural problems return ErrCorrupt with
// a precise reason; I/O problems return ErrIO.
func Open(path string, env Env) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("ckpt: open %s: %v: %w", path, err, ErrIO)
	}
	s, err := newSnapshot(path, f, env)
	if err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

func newSnapshot(path string, f *os.File, env Env) (*Snapshot, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("ckpt: stat %s: %v: %w", path, err, ErrIO)
	}
	size := st.Size()
	if size < int64(len(Magic))+commitLen {
		return nil, fmt.Errorf("%w: %s: file too small for a commit record (%d bytes)", ErrCorrupt, path, size)
	}
	var hdr [len(Magic)]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		return nil, fmt.Errorf("ckpt: read header: %v: %w", err, ErrIO)
	}
	if string(hdr[:]) != Magic {
		return nil, fmt.Errorf("%w: %s: bad magic", ErrCorrupt, path)
	}
	var cr [commitLen]byte
	if _, err := f.ReadAt(cr[:], size-commitLen); err != nil {
		return nil, fmt.Errorf("ckpt: read commit record: %v: %w", err, ErrIO)
	}
	if string(cr[16:]) != commitMagic {
		return nil, fmt.Errorf("%w: %s: missing commit record (torn or uncommitted write)", ErrCorrupt, path)
	}
	footerOff := binary.LittleEndian.Uint64(cr[0:])
	footerLen := binary.LittleEndian.Uint32(cr[8:])
	footerCRC := binary.LittleEndian.Uint32(cr[12:])
	if footerOff < uint64(len(Magic)) || uint64(footerLen) > uint64(size) ||
		footerOff+uint64(footerLen) != uint64(size)-commitLen {
		return nil, fmt.Errorf("%w: %s: commit record points outside the file", ErrCorrupt, path)
	}
	fb := make([]byte, footerLen)
	if _, err := f.ReadAt(fb, int64(footerOff)); err != nil {
		return nil, fmt.Errorf("ckpt: read footer: %v: %w", err, ErrIO)
	}
	if crc32.ChecksumIEEE(fb) != footerCRC {
		return nil, fmt.Errorf("%w: %s: footer CRC mismatch", ErrCorrupt, path)
	}
	ft, err := decodeFooter(fb, footerOff)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	s := &Snapshot{
		path:   path,
		f:      f,
		ft:     ft,
		env:    env,
		io:     vm.StorePolicy{ErrIO: ErrIO, ErrCorrupt: ErrCorrupt, Met: env.Met},
		readOp: vm.StoreOp{Failpoint: failpoint.CkptRead},
		cache:  make(map[int]*decodedChunk),
	}
	if m := env.Met; m != nil {
		s.io.Corruptions, s.io.Degrades = &m.Ckpt.Corruptions, &m.Ckpt.Degrades
		s.readOp.Retries, s.readOp.Errors = &m.Ckpt.ReadRetries, &m.Ckpt.ReadErrors
	}
	return s, nil
}

// OpenChain opens path and resolves its incremental-parent chain:
// each parentRef is opened in the same directory and its snapID must
// equal the child's recorded parentID, so a swapped or regenerated
// parent file is rejected instead of silently supplying wrong pages.
func OpenChain(path string, env Env) (*Snapshot, error) {
	s, err := Open(path, env)
	if err != nil {
		return nil, err
	}
	cur, depth := s, 0
	for cur.ft.parentRef != "" {
		depth++
		if depth > maxChainDepth {
			s.Close()
			return nil, fmt.Errorf("%w: %s: parent chain deeper than %d (cycle?)", ErrCorrupt, path, maxChainDepth)
		}
		pp := filepath.Join(filepath.Dir(cur.path), cur.ft.parentRef)
		p, err := Open(pp, env)
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("resolving parent of %s: %w", cur.path, err)
		}
		if p.ft.snapID != cur.ft.parentID {
			p.Close()
			s.Close()
			return nil, fmt.Errorf("%w: %s: parent %s has snapshot id %x, child expects %x",
				ErrCorrupt, cur.path, pp, p.ft.snapID, cur.ft.parentID)
		}
		cur.parent = p
		cur = p
	}
	return s, nil
}

// Path returns the file path this snapshot was opened from.
func (s *Snapshot) Path() string { return s.path }

// SnapID returns the snapshot's identity.
func (s *Snapshot) SnapID() [16]byte { return s.ft.snapID }

// ParentRef returns the incremental parent's file name ("" = full).
func (s *Snapshot) ParentRef() string { return s.ft.parentRef }

// Parent returns the resolved parent snapshot (nil unless OpenChain
// found one).
func (s *Snapshot) Parent() *Snapshot { return s.parent }

// VMAs returns the capture-time mapping table.
func (s *Snapshot) VMAs() []VMARec {
	out := make([]VMARec, len(s.ft.vmas))
	copy(out, s.ft.vmas)
	return out
}

// Pages returns the number of page records in this file alone.
func (s *Snapshot) Pages() uint64 { return s.ft.totalPages }

// Chunks returns the number of chunks in this file alone.
func (s *Snapshot) Chunks() int { return len(s.ft.chunks) }

// ChainLen returns the number of files in the chain (1 = full).
func (s *Snapshot) ChainLen() int {
	n := 0
	for c := s; c != nil; c = c.parent {
		n++
	}
	return n
}

// Degraded reports whether any snapshot in the chain latched degraded
// after exhausting read retries.
func (s *Snapshot) Degraded() bool {
	for c := s; c != nil; c = c.parent {
		if c.io.Degraded() {
			return true
		}
	}
	return false
}

// Close closes the file(s) of the whole chain.
func (s *Snapshot) Close() error {
	var err error
	for c := s; c != nil; c = c.parent {
		if e := c.f.Close(); e != nil && err == nil {
			err = e
		}
	}
	return err
}

// Page returns the recorded content of the page at vaddr v, searching
// this snapshot first and then its parents — the newest record for an
// address wins, so an incremental child's explicit zero record shadows
// parent content. found=false means no snapshot in the chain recorded
// the address (it reads as zeroes in a restore). data may be shorter
// than a page (trailing zeroes trimmed) and is nil for explicit zero
// records; the caller must not retain it past the next Page call.
func (s *Snapshot) Page(v uint64) (data []byte, found bool, err error) {
	for c := s; c != nil; c = c.parent {
		data, found, err = c.lookup(v)
		if err != nil || found {
			return data, found, err
		}
	}
	return nil, false, nil
}

// lookup searches this file alone for v.
func (s *Snapshot) lookup(v uint64) ([]byte, bool, error) {
	refs := s.ft.chunks
	i := sort.Search(len(refs), func(i int) bool { return refs[i].lastV >= v })
	if i == len(refs) || refs[i].firstV > v {
		return nil, false, nil
	}
	dc, err := s.loadChunk(i)
	if err != nil {
		return nil, false, err
	}
	j := sort.Search(len(dc.vaddrs), func(j int) bool { return dc.vaddrs[j] >= v })
	if j == len(dc.vaddrs) || dc.vaddrs[j] != v {
		return nil, false, nil
	}
	if dc.tlens[j] == 0 {
		return nil, true, nil
	}
	return dc.data[dc.offs[j] : dc.offs[j]+uint32(dc.tlens[j])], true, nil
}

// loadChunk reads, CRC-verifies, decompresses, and parses chunk i
// through the cache.
func (s *Snapshot) loadChunk(i int) (*decodedChunk, error) {
	s.mu.Lock()
	if dc, ok := s.cache[i]; ok {
		s.mu.Unlock()
		return dc, nil
	}
	s.mu.Unlock()

	dc, err := s.fetchChunk(i)
	if err != nil {
		return nil, err
	}

	s.mu.Lock()
	if have, ok := s.cache[i]; ok {
		s.mu.Unlock()
		return have, nil
	}
	s.cache[i] = dc
	s.cacheSeq = append(s.cacheSeq, i)
	if len(s.cacheSeq) > chunkCacheCap {
		evict := s.cacheSeq[0]
		s.cacheSeq = s.cacheSeq[1:]
		delete(s.cache, evict)
	}
	s.mu.Unlock()
	return dc, nil
}

// fetchChunk reads chunk i from disk, bypassing the cache.
func (s *Snapshot) fetchChunk(i int) (*decodedChunk, error) {
	ref := s.ft.chunks[i]
	comp := make([]byte, ref.clen)
	err := s.io.Do(&s.readOp, s.env.Fail, s.env.Tenant, func() error {
		_, err := s.f.ReadAt(comp, int64(ref.off))
		return err
	})
	if err == nil {
		err = s.io.Verify(comp, ref.crc)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: chunk %d: %w", s.path, i, err)
	}

	fr := flate.NewReader(bytes.NewReader(comp))
	payload := make([]byte, ref.ulen)
	if _, err := io.ReadFull(fr, payload); err != nil {
		return nil, fmt.Errorf("%w: %s: chunk %d decompression failed: %v", ErrCorrupt, s.path, i, err)
	}
	// The stream must end exactly at ulen.
	if n, _ := fr.Read(make([]byte, 1)); n != 0 {
		return nil, fmt.Errorf("%w: %s: chunk %d longer than recorded", ErrCorrupt, s.path, i)
	}
	fr.Close()

	dc, err := parseChunk(payload, ref)
	if err != nil {
		return nil, fmt.Errorf("%s: chunk %d: %w", s.path, i, err)
	}
	if m := s.env.Met; m.Enabled() {
		m.Ckpt.ChunkLoads.Inc()
	}
	return dc, nil
}

// parseChunk decodes one uncompressed chunk payload, validating it
// against the index entry so a chunk whose CRC matches but whose
// content disagrees with the footer is still rejected.
func parseChunk(payload []byte, ref chunkRef) (*decodedChunk, error) {
	c := &cursor{b: payload}
	count := c.u32()
	if count != ref.count {
		return nil, fmt.Errorf("%w: page count %d disagrees with index (%d)", ErrCorrupt, count, ref.count)
	}
	dc := &decodedChunk{
		vaddrs: make([]uint64, count),
		tlens:  make([]uint16, count),
		offs:   make([]uint32, count),
	}
	for i := range dc.vaddrs {
		dc.vaddrs[i] = c.u64()
	}
	for i := range dc.tlens {
		dc.tlens[i] = c.u16()
	}
	var off uint32
	for i, t := range dc.tlens {
		dc.offs[i] = off
		off += uint32(t)
	}
	dc.data = c.take(int(off))
	if c.err || c.off != len(payload) {
		return nil, fmt.Errorf("%w: malformed chunk payload", ErrCorrupt)
	}
	for i, v := range dc.vaddrs {
		if i > 0 && v <= dc.vaddrs[i-1] {
			return nil, fmt.Errorf("%w: chunk vaddrs not ascending", ErrCorrupt)
		}
	}
	if dc.vaddrs[0] != ref.firstV || dc.vaddrs[count-1] != ref.lastV {
		return nil, fmt.Errorf("%w: chunk vaddr range disagrees with index", ErrCorrupt)
	}
	return dc, nil
}

// VerifyStats summarizes a full-file verification.
type VerifyStats struct {
	Chunks int
	Pages  uint64
	Bytes  int64
}

// Verify reads and checks every chunk of this file (not the chain):
// CRC, decompression, and payload-versus-index agreement. It bypasses
// the cache so every byte on disk is actually read.
func (s *Snapshot) Verify() (VerifyStats, error) {
	var vs VerifyStats
	st, err := s.f.Stat()
	if err != nil {
		return vs, fmt.Errorf("ckpt: stat: %v: %w", err, ErrIO)
	}
	vs.Bytes = st.Size()
	for i := range s.ft.chunks {
		dc, err := s.fetchChunk(i)
		if err != nil {
			return vs, err
		}
		vs.Chunks++
		vs.Pages += uint64(len(dc.vaddrs))
	}
	if vs.Pages != s.ft.totalPages {
		return vs, fmt.Errorf("%w: %s: %d page records found, footer says %d",
			ErrCorrupt, s.path, vs.Pages, s.ft.totalPages)
	}
	return vs, nil
}
