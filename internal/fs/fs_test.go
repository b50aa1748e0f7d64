package fs

import (
	"bytes"
	"io"
	"testing"
	"testing/quick"

	"repro/internal/mem/addr"
)

func TestCreateOpenRemove(t *testing.T) {
	fsys := New()
	f := fsys.Create("a.txt")
	if f.Name() != "a.txt" || f.BackingName() != "a.txt" {
		t.Error("name wrong")
	}
	got, err := fsys.Open("a.txt")
	if err != nil || got != f {
		t.Fatalf("Open: %v", err)
	}
	if _, err := fsys.Open("missing"); err == nil {
		t.Error("Open(missing) succeeded")
	}
	if err := fsys.Remove("a.txt"); err != nil {
		t.Fatal(err)
	}
	if err := fsys.Remove("a.txt"); err == nil {
		t.Error("double remove succeeded")
	}
	if _, err := fsys.Open("a.txt"); err == nil {
		t.Error("Open after remove succeeded")
	}
}

func TestList(t *testing.T) {
	fsys := New()
	fsys.Create("b")
	fsys.Create("a")
	fsys.Create("c")
	got := fsys.List()
	want := []string{"a", "b", "c"}
	if len(got) != 3 {
		t.Fatalf("List = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("List[%d] = %q", i, got[i])
		}
	}
}

func TestWriteReadRoundtrip(t *testing.T) {
	f := New().Create("f")
	data := []byte("the quick brown fox")
	if n, err := f.WriteAt(data, 100); err != nil || n != len(data) {
		t.Fatalf("WriteAt = %d, %v", n, err)
	}
	if got := f.Size(); got != 100+uint64(len(data)) {
		t.Errorf("Size = %d", got)
	}
	buf := make([]byte, len(data))
	if n, err := f.ReadAt(buf, 100); err != nil || n != len(data) {
		t.Fatalf("ReadAt = %d, %v", n, err)
	}
	if !bytes.Equal(buf, data) {
		t.Errorf("roundtrip = %q", buf)
	}
}

func TestReadHolesAreZero(t *testing.T) {
	f := New().Create("f")
	f.WriteAt([]byte{1}, 3*addr.PageSize) // creates a hole before it
	buf := make([]byte, 16)
	buf[0] = 0xFF
	if _, err := f.ReadAt(buf, addr.PageSize); err != nil {
		t.Fatal(err)
	}
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("hole byte %d = %#x", i, b)
		}
	}
	if pg, _ := f.PageAt(addr.PageSize); pg != nil {
		t.Error("hole has a cached page")
	}
	if pg, _ := f.PageAt(3 * addr.PageSize); pg == nil {
		t.Error("written page missing from cache")
	}
}

func TestReadPastEOF(t *testing.T) {
	f := New().Create("f")
	f.WriteAt([]byte("abc"), 0)
	buf := make([]byte, 10)
	n, err := f.ReadAt(buf, 0)
	if err != io.EOF || n != 3 {
		t.Errorf("ReadAt = %d, %v; want 3, EOF", n, err)
	}
	if _, err := f.ReadAt(buf, 100); err != io.EOF {
		t.Errorf("read past EOF err = %v", err)
	}
}

func TestWriteAcrossPages(t *testing.T) {
	f := New().Create("f")
	data := make([]byte, 3*addr.PageSize)
	for i := range data {
		data[i] = byte(i % 253)
	}
	f.WriteAt(data, addr.PageSize/2)
	got := make([]byte, len(data))
	if _, err := f.ReadAt(got, addr.PageSize/2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("cross-page write mismatch")
	}
	if f.CachedPages() != 4 {
		t.Errorf("cached pages = %d, want 4", f.CachedPages())
	}
}

func TestTruncate(t *testing.T) {
	f := New().Create("f")
	data := make([]byte, 2*addr.PageSize)
	for i := range data {
		data[i] = 0xAB
	}
	f.WriteAt(data, 0)
	f.Truncate(100)
	if f.Size() != 100 {
		t.Errorf("Size = %d", f.Size())
	}
	if f.CachedPages() != 1 {
		t.Errorf("cached pages after truncate = %d", f.CachedPages())
	}
	// Re-extend: bytes past old EOF must read zero.
	f.WriteAt([]byte{1}, 2000)
	buf := make([]byte, 10)
	f.ReadAt(buf, 100)
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("post-truncate byte %d = %#x", i, b)
		}
	}
}

func TestQuickWriteReadConsistency(t *testing.T) {
	type op struct {
		Off  uint16
		Data []byte
	}
	f := func(ops []op) bool {
		file := New().Create("q")
		shadow := make([]byte, 1<<17)
		maxEnd := uint64(0)
		for _, o := range ops {
			if len(o.Data) == 0 {
				continue
			}
			if len(o.Data) > 4096 {
				o.Data = o.Data[:4096]
			}
			off := uint64(o.Off)
			file.WriteAt(o.Data, off)
			copy(shadow[off:], o.Data)
			if end := off + uint64(len(o.Data)); end > maxEnd {
				maxEnd = end
			}
		}
		if maxEnd == 0 {
			return true
		}
		got := make([]byte, maxEnd)
		if _, err := file.ReadAt(got, 0); err != nil && err != io.EOF {
			return false
		}
		return bytes.Equal(got, shadow[:maxEnd])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
