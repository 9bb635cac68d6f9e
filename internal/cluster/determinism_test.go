package cluster_test

import (
	"fmt"
	"testing"

	"shrimp/internal/addr"
	"shrimp/internal/cluster"
	"shrimp/internal/kernel"
	"shrimp/internal/machine"
	"shrimp/internal/nic"
	"shrimp/internal/udmalib"
	"shrimp/internal/workload"
)

// runDeterministicScenario runs a fixed multi-node workload and returns
// the finished cluster's Digest.
func runDeterministicScenario(t *testing.T) uint64 {
	t.Helper()
	const nodes = 3
	c := cluster.New(cluster.Config{
		Nodes:   nodes,
		Machine: machine.Config{RAMFrames: 64, Kernel: kernel.Config{Quantum: 1500}},
		NIC:     nic.Config{NIPTPages: 8},
	})
	defer c.Shutdown()

	for i := 0; i < nodes; i++ {
		dst := (i + 1) % nodes
		if err := udmalib.MapSendWindow(c.NICs[i], 0, dst, []uint32{40}); err != nil {
			t.Fatal(err)
		}
		i := i
		// Two processes per node: a sender and a compute burner, so the
		// scheduler, the I1 protocol and the backplane all participate.
		c.Nodes[i].Kernel.Spawn("sender", func(p *kernel.Proc) {
			d, err := udmalib.Open(p, c.NICs[i], true)
			if err != nil {
				return
			}
			va, _ := p.Alloc(addr.PageSize)
			p.WriteBuf(va, workload.Payload(1024, byte(i+1)))
			for m := 0; m < 12; m++ {
				if d.Send(va, 0, 1024) != nil {
					return
				}
			}
		})
		c.Nodes[i].Kernel.Spawn("burner", workload.Burner(700, 200_000))
	}
	if err := c.Run(1_000_000_000); err != nil {
		t.Fatal(err)
	}

	return c.Digest()
}

// TestSimulationIsDeterministic checks DESIGN.md §6's guarantee: the
// same configuration produces cycle-identical runs — clocks, scheduler
// decisions, retry counts, packet counts, everything.
func TestSimulationIsDeterministic(t *testing.T) {
	a := runDeterministicScenario(t)
	b := runDeterministicScenario(t)
	if a != b {
		t.Fatalf("two identical runs diverged: digest %016x vs %016x", a, b)
	}
}

// TestSixteenNodeScale drives a 16-node mesh ring (hops up to 6) to
// exercise the windowed lockstep and mesh routing at a size well beyond
// the paper's 4-node prototype.
func TestSixteenNodeScale(t *testing.T) {
	const nodes = 16
	c := cluster.New(cluster.Config{
		Nodes:   nodes,
		Machine: machine.Config{RAMFrames: 64},
		NIC:     nic.Config{NIPTPages: 8},
	})
	defer c.Shutdown()

	errs := make([]error, nodes)
	for i := 0; i < nodes; i++ {
		dst := (i + 5) % nodes // non-neighbor destinations: multi-hop routes
		if err := udmalib.MapSendWindow(c.NICs[i], 0, dst, []uint32{40}); err != nil {
			t.Fatal(err)
		}
		i := i
		c.Nodes[i].Kernel.Spawn(fmt.Sprintf("s%d", i), func(p *kernel.Proc) {
			d, err := udmalib.Open(p, c.NICs[i], true)
			if err != nil {
				errs[i] = err
				return
			}
			va, _ := p.Alloc(addr.PageSize)
			p.WriteBuf(va, workload.Payload(4096, byte(i+1)))
			errs[i] = d.Send(va, 0, 4096)
		})
	}
	if err := c.Run(2_000_000_000); err != nil {
		t.Fatal(err)
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}
	for i := 0; i < nodes; i++ {
		src := (i - 5 + nodes) % nodes
		want := workload.Payload(4096, byte(src+1))
		got, err := c.Nodes[i].RAM.Read(addr.FrameAddr(40), 4096)
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("node %d: payload from %d corrupted at %d", i, src, j)
			}
		}
	}
}
