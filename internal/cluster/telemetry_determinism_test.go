package cluster_test

import (
	"fmt"
	"testing"

	"shrimp/internal/addr"
	"shrimp/internal/cluster"
	"shrimp/internal/kernel"
	"shrimp/internal/machine"
	"shrimp/internal/nic"
	"shrimp/internal/telemetry"
	"shrimp/internal/udmalib"
	"shrimp/internal/workload"
)

// runObservedScenario runs the same fixed multi-node workload as
// determinism_test.go with an optional telemetry registry attached, and
// returns the finished cluster's Digest.
func runObservedScenario(t *testing.T, reg *telemetry.Registry) uint64 {
	t.Helper()
	const nodes = 3
	c := cluster.New(cluster.Config{
		Nodes:   nodes,
		Machine: machine.Config{RAMFrames: 64, Kernel: kernel.Config{Quantum: 1500}},
		NIC:     nic.Config{NIPTPages: 8},
		Metrics: reg,
	})
	defer c.Shutdown()

	for i := 0; i < nodes; i++ {
		dst := (i + 1) % nodes
		if err := udmalib.MapSendWindow(c.NICs[i], 0, dst, []uint32{40}); err != nil {
			t.Fatal(err)
		}
		i := i
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
	c.PublishRollup()

	return c.Digest()
}

// TestTelemetryIsPureObserver checks the central design guarantee of
// internal/telemetry: attaching a registry to every layer of every node
// must not change the simulation in any observable way. The same-seed
// run with telemetry enabled and with it disabled must produce
// byte-identical final state — clocks, scheduler decisions, retry
// counts, bus arbitration, packet counts.
func TestTelemetryIsPureObserver(t *testing.T) {
	plain := runObservedScenario(t, nil)
	reg := telemetry.New()
	observed := runObservedScenario(t, reg)
	if plain != observed {
		t.Fatalf("telemetry perturbed the simulation: digest %016x off vs %016x on", plain, observed)
	}

	// The observed run must also have actually recorded something, or
	// the test proves nothing.
	snap := reg.Snapshot()
	if len(snap.Counters) == 0 || len(snap.Histograms) == 0 {
		t.Fatalf("observed run recorded no telemetry (counters=%d hists=%d)",
			len(snap.Counters), len(snap.Histograms))
	}
	if c, ok := snap.Counter("nic_packets_sent{node=0}"); !ok || c.Value == 0 {
		t.Fatalf("nic_packets_sent{node=0} missing or zero: %+v", snap.Counters)
	}
	if h, ok := snap.Hist("udma_xfer_latency_cycles{node=0}"); !ok || h.Count == 0 || h.P50 <= 0 {
		t.Fatalf("udma_xfer_latency_cycles{node=0} missing or empty")
	}

	// And the telemetry itself is deterministic: a second observed run
	// yields an identical snapshot.
	reg2 := telemetry.New()
	runObservedScenario(t, reg2)
	if fmt.Sprintf("%+v", reg.Snapshot()) != fmt.Sprintf("%+v", reg2.Snapshot()) {
		t.Fatal("two identical observed runs produced different telemetry snapshots")
	}
}
