// Package fs provides a small in-memory filesystem with a page cache,
// backing the simulated kernel's file-backed memory mappings (§3.7 of
// the paper). Executables and data files of the simulated applications
// live here; mapping them exercises the same fault paths real programs
// hit for their text and data segments.
package fs

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"repro/internal/mem/addr"
)

// FileSystem is a flat namespace of in-memory files.
type FileSystem struct {
	mu    sync.Mutex
	files map[string]*File
}

// New returns an empty filesystem.
func New() *FileSystem {
	return &FileSystem{files: make(map[string]*File)}
}

// Create creates (or truncates) the named file.
func (fs *FileSystem) Create(name string) *File {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f := &File{name: name, fs: fs, pages: make(map[uint64][]byte)}
	fs.files[name] = f
	return f
}

// Open returns the named file.
func (fs *FileSystem) Open(name string) (*File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[name]
	if !ok {
		return nil, fmt.Errorf("fs: %q: no such file", name)
	}
	return f, nil
}

// Remove deletes the named file from the namespace. Existing mappings
// keep their cached pages alive, like an unlinked-but-open file.
func (fs *FileSystem) Remove(name string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, ok := fs.files[name]; !ok {
		return fmt.Errorf("fs: %q: no such file", name)
	}
	delete(fs.files, name)
	return nil
}

// List returns the file names in sorted order.
func (fs *FileSystem) List() []string {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	names := make([]string, 0, len(fs.files))
	for n := range fs.files {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// File is an in-memory file stored as a sparse set of 4 KiB pages —
// its own page cache. It implements vm.Backing so it can be mapped
// directly into simulated address spaces.
type File struct {
	name string
	fs   *FileSystem

	mu    sync.Mutex
	size  uint64
	pages map[uint64][]byte // page-aligned offset -> 4 KiB page
}

// Name returns the file's name.
func (f *File) Name() string { return f.name }

// BackingName implements vm.Backing.
func (f *File) BackingName() string { return f.name }

// Size returns the file length in bytes.
func (f *File) Size() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.size
}

// PageAt implements vm.Backing: it returns the cached 4 KiB page at the
// given page-aligned offset, or nil for holes (which read as zeroes).
// A page cache read cannot fail.
func (f *File) PageAt(off uint64) ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.pages[addr.PageRoundDown(off)], nil
}

// WriteAt writes p at the given offset, extending the file as needed.
func (f *File) WriteAt(p []byte, off uint64) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := len(p)
	for len(p) > 0 {
		base := addr.PageRoundDown(off)
		pg := f.pages[base]
		if pg == nil {
			pg = make([]byte, addr.PageSize)
			f.pages[base] = pg
		}
		k := copy(pg[off-base:], p)
		p = p[k:]
		off += uint64(k)
	}
	if off > f.size {
		f.size = off
	}
	return n, nil
}

// ReadAt reads into p from the given offset. Reads past EOF return
// io.EOF with the bytes read before it.
func (f *File) ReadAt(p []byte, off uint64) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if off >= f.size {
		return 0, io.EOF
	}
	total := 0
	for len(p) > 0 && off < f.size {
		base := addr.PageRoundDown(off)
		n := addr.PageSize - int(off-base)
		if rem := int(f.size - off); n > rem {
			n = rem
		}
		if n > len(p) {
			n = len(p)
		}
		if pg := f.pages[base]; pg != nil {
			copy(p[:n], pg[off-base:])
		} else {
			clear(p[:n])
		}
		p = p[n:]
		off += uint64(n)
		total += n
	}
	if len(p) > 0 {
		return total, io.EOF
	}
	return total, nil
}

// Truncate sets the file size, dropping cached pages past the end.
func (f *File) Truncate(size uint64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.size = size
	limit := addr.PageRoundUp(size)
	for off := range f.pages {
		if off >= limit {
			delete(f.pages, off)
		}
	}
	// Zero the tail of the last partial page so re-extension reads zeroes.
	if size%addr.PageSize != 0 {
		if pg := f.pages[addr.PageRoundDown(size)]; pg != nil {
			clear(pg[size%addr.PageSize:])
		}
	}
}

// CachedPages returns the number of pages in the file's cache.
func (f *File) CachedPages() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.pages)
}
