package odfork_test

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/odfork"
)

func TestQuickstartFlow(t *testing.T) {
	sys := odfork.NewSystem()
	p := sys.NewProcess()
	buf, err := p.Mmap(8*odfork.MiB, odfork.ProtRead|odfork.ProtWrite,
		odfork.MapPrivate|odfork.MapPopulate)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("public api")
	if err := p.WriteAt(msg, buf); err != nil {
		t.Fatal(err)
	}

	child, err := p.Fork(odfork.WithMode(odfork.OnDemand))
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if err := child.ReadAt(got, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Errorf("child read %q", got)
	}
	if err := child.StoreByte(buf, 'X'); err != nil {
		t.Fatal(err)
	}
	if b, _ := p.LoadByte(buf); b != 'p' {
		t.Error("COW violated through public API")
	}
	child.Exit()
	p.Exit()
	if n := sys.AllocatedFrames(); n != 0 {
		t.Errorf("leak: %d frames", n)
	}
	if sys.LiveProcesses() != 0 {
		t.Error("processes leaked")
	}
}

func TestOnDemandIsFast(t *testing.T) {
	sys := odfork.NewSystem()
	p := sys.NewProcess()
	defer p.Exit()
	if _, err := p.Mmap(64*odfork.MiB, odfork.ProtRead|odfork.ProtWrite,
		odfork.MapPrivate|odfork.MapPopulate); err != nil {
		t.Fatal(err)
	}
	measure := func(m odfork.Mode) time.Duration {
		best := time.Hour
		for i := 0; i < 5; i++ {
			t0 := time.Now()
			c, err := p.Fork(odfork.WithMode(m))
			d := time.Since(t0)
			if err != nil {
				t.Fatal(err)
			}
			c.Exit()
			if d < best {
				best = d
			}
		}
		return best
	}
	classic := measure(odfork.Classic)
	odf := measure(odfork.OnDemand)
	if odf >= classic {
		t.Errorf("OnDemand (%v) not faster than Classic (%v)", odf, classic)
	}
}

func TestDefaultModeOptionAndProcfs(t *testing.T) {
	sys := odfork.NewSystem(odfork.WithDefaultMode(odfork.OnDemand))
	p := sys.NewProcess()
	defer p.Exit()
	if _, err := p.Mmap(4*odfork.MiB, odfork.ProtRead|odfork.ProtWrite,
		odfork.MapPrivate|odfork.MapPopulate); err != nil {
		t.Fatal(err)
	}
	c, err := p.Fork() // default mode: OnDemand
	if err != nil {
		t.Fatal(err)
	}
	c.Exit()
	if got := sys.Metrics().Fork.OnDemand().Forks; got != 1 {
		t.Errorf("default-mode fork ran %d on-demand forks, want 1", got)
	}
	if err := sys.SetForkMode(p.PID(), odfork.Classic); err != nil {
		t.Fatal(err)
	}
	c2, err := p.Fork()
	if err != nil {
		t.Fatal(err)
	}
	c2.Exit()
	if got := sys.Metrics().Fork.Classic().Forks; got != 1 {
		t.Errorf("configured fork ran %d classic forks, want 1", got)
	}
	// The Figure 3 attribution of both forks is served from the same
	// counters: the classic fork copied the PTEs of 4 MiB of pages.
	prof, err := sys.Procfs("/proc/odf/profile")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prof, "copy_one_pte") || !strings.Contains(prof, "pt_share_inc") {
		t.Errorf("/proc/odf/profile lacks the fork line items:\n%s", prof)
	}
}

func TestFileMappingPublicAPI(t *testing.T) {
	sys := odfork.NewSystem()
	f := sys.CreateFile("data.bin")
	f.WriteAt([]byte("file contents"), 0)
	if _, err := sys.OpenFile("data.bin"); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.OpenFile("nope"); err == nil {
		t.Error("OpenFile(nope) succeeded")
	}
	p := sys.NewProcess()
	defer p.Exit()
	v, err := p.MmapFile(odfork.PageSize, odfork.ProtRead, odfork.MapPrivate, f, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 13)
	if err := p.ReadAt(got, v); err != nil {
		t.Fatal(err)
	}
	if string(got) != "file contents" {
		t.Errorf("read %q", got)
	}
}

func TestSegfaultTyped(t *testing.T) {
	sys := odfork.NewSystem()
	p := sys.NewProcess()
	defer p.Exit()
	err := p.StoreByte(0x1000, 1)
	if err == nil {
		t.Fatal("unmapped write succeeded")
	}
	if _, ok := err.(*odfork.SegfaultError); !ok {
		t.Errorf("error type %T", err)
	}
}

func TestCheckpointAndProcfsViaPublicAPI(t *testing.T) {
	sys := odfork.NewSystem()
	p := sys.NewProcess()
	defer p.Exit()
	base, err := p.Mmap(4*odfork.MiB, odfork.ProtRead|odfork.ProtWrite,
		odfork.MapPrivate|odfork.MapPopulate)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.StoreByte(base, 0xAA); err != nil {
		t.Fatal(err)
	}
	cp, err := p.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	defer cp.Release()
	p.StoreByte(base, 0xBB)
	s, err := cp.Spawn()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Exit()
	if b, _ := s.LoadByte(base); b != 0xAA {
		t.Errorf("spawn sees %#x", b)
	}
	if st := p.Status(); st.VmSizeKiB != 4*1024 {
		t.Errorf("VmSize = %d", st.VmSizeKiB)
	}
	if p.Maps() == "" {
		t.Error("empty maps")
	}
}

func TestHugeShareOptionViaPublicAPI(t *testing.T) {
	sys := odfork.NewSystem()
	p := sys.NewProcess()
	defer p.Exit()
	base, err := p.Mmap(2*odfork.HugePageSize, odfork.ProtRead|odfork.ProtWrite,
		odfork.MapPrivate|odfork.MapHuge|odfork.MapPopulate)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.StoreByte(base, 7); err != nil {
		t.Fatal(err)
	}
	c, err := p.Fork(odfork.WithMode(odfork.OnDemand), odfork.WithForkOptions(odfork.ForkOptions{ShareHugePMD: true}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Exit()
	if b, _ := c.LoadByte(base); b != 7 {
		t.Errorf("child sees %d", b)
	}
	if err := c.StoreByte(base, 8); err != nil {
		t.Fatal(err)
	}
	if b, _ := p.LoadByte(base); b != 7 {
		t.Error("COW broken through public API huge share")
	}
}
