package container

import (
	"testing"

	"cxlfork/internal/cxl"
	"cxlfork/internal/des"
	"cxlfork/internal/fsim"
	"cxlfork/internal/kernel"
	"cxlfork/internal/params"
)

func node(t *testing.T, dram int64) *kernel.OS {
	t.Helper()
	p := params.Default()
	p.NodeDRAMBytes = dram
	p.CXLBytes = 16 << 20
	return kernel.NewOS("n0", p, des.NewEngine(), cxl.NewDevice(p), fsim.NewFS(), p.NodeDRAMBytes)
}

func TestCreateChargesAndAllocates(t *testing.T) {
	o := node(t, 16<<20)
	rt := NewRuntime(o)
	before := o.Eng.Now()
	if err := rt.Create(); err != nil {
		t.Fatal(err)
	}
	if o.Eng.Now()-before != o.P.ContainerCreate {
		t.Fatalf("charged %v, want %v", o.Eng.Now()-before, o.P.ContainerCreate)
	}
	wantPages := int(o.P.GhostContainerBytes) / o.P.PageSize
	if o.Mem.UsedPages() != wantPages {
		t.Fatalf("ghost occupies %d pages, want %d (512KB)", o.Mem.UsedPages(), wantPages)
	}
}

// TestCreateRollsBackOnOOM fills a node that can hold one ghost but not
// two: the failed Create must return every frame it took and charge no
// time.
func TestCreateRollsBackOnOOM(t *testing.T) {
	p := params.Default()
	o := node(t, p.GhostContainerBytes*3/2)
	rt := NewRuntime(o)
	if err := rt.Create(); err != nil {
		t.Fatal(err)
	}
	used, before := o.Mem.UsedPages(), o.Eng.Now()
	if err := rt.Create(); err == nil {
		t.Fatal("second ghost fit in 1.5 ghosts of memory")
	}
	if o.Mem.UsedPages() != used {
		t.Fatalf("failed create leaked %d pages", o.Mem.UsedPages()-used)
	}
	if o.Eng.Now() != before {
		t.Fatalf("failed create charged %v", o.Eng.Now()-before)
	}
}
