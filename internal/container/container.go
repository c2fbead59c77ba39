package container

import (
	"fmt"

	"cxlfork/internal/kernel"
	"cxlfork/internal/memsim"
)

// Runtime creates containers on one node.
type Runtime struct {
	Node *kernel.OS
}

// NewRuntime returns a container runtime for a node.
func NewRuntime(node *kernel.OS) *Runtime {
	return &Runtime{Node: node}
}

// Create provisions a fresh ghost container, charging the full
// container creation cost and its fixed memory overhead, which stays
// allocated for the life of the node. When the node cannot hold the
// overhead, Create releases what it took and charges nothing.
func (r *Runtime) Create() error {
	p := r.Node.P
	var frames []*memsim.Frame
	overheadPages := int(p.GhostContainerBytes) / p.PageSize
	for i := 0; i < overheadPages; i++ {
		f, err := r.Node.Mem.Alloc()
		if err != nil {
			for _, g := range frames {
				r.Node.Mem.Put(g)
			}
			return fmt.Errorf("container: %w", err)
		}
		frames = append(frames, f)
	}
	r.Node.Eng.Advance(p.ContainerCreate)
	return nil
}
