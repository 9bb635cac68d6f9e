package cluster_test

import (
	"fmt"
	"testing"

	"shrimp/internal/addr"
	"shrimp/internal/cluster"
	"shrimp/internal/interconnect"
	"shrimp/internal/kernel"
	"shrimp/internal/machine"
	"shrimp/internal/nic"
	"shrimp/internal/telemetry"
	"shrimp/internal/udmalib"
	"shrimp/internal/workload"
)

// runParallelWorkload runs a fixed 8-node ring workload (senders,
// compute burners, a lossy wire with the reliability layer fighting it)
// at the given worker count and returns the finished cluster's Digest
// followed by the full telemetry snapshot.
func runParallelWorkload(t *testing.T, workers int) string {
	t.Helper()
	const nodes = 8
	reg := telemetry.New()
	c := cluster.New(cluster.Config{
		Nodes:   nodes,
		Workers: workers,
		Machine: machine.Config{RAMFrames: 64, Kernel: kernel.Config{Quantum: 1500}},
		NIC: nic.Config{
			NIPTPages:   8,
			Reliability: nic.ReliabilityConfig{Enabled: true, Window: 4, MaxPending: 8},
		},
		Fault: interconnect.FaultPlan{
			Seed:     99,
			DropRate: 0.05, DupRate: 0.02, CorruptRate: 0.02, DelayRate: 0.10,
		},
		Metrics: reg,
	})
	defer c.Shutdown()

	for i := 0; i < nodes; i++ {
		dst := (i + 3) % nodes // multi-hop mesh routes
		if err := udmalib.MapSendWindow(c.NICs[i], 0, dst, []uint32{40, 41}); err != nil {
			t.Fatal(err)
		}
		i := i
		c.Nodes[i].Kernel.Spawn("sender", func(p *kernel.Proc) {
			d, err := udmalib.Open(p, c.NICs[i], true)
			if err != nil {
				return
			}
			va, _ := p.Alloc(addr.PageSize)
			p.WriteBuf(va, workload.Payload(2048, byte(i+1)))
			for m := 0; m < 8; m++ {
				if d.SendRetry(va, 0, 2048, udmalib.RetryPolicy{MaxAttempts: 20, Backoff: 512}) != nil {
					return
				}
			}
		})
		c.Nodes[i].Kernel.Spawn("burner", workload.Burner(700, 150_000))
	}
	if err := c.Run(1_000_000_000); err != nil {
		t.Fatal(err)
	}
	c.PublishRollup()

	if pkts, bytes, _, _ := c.Backplane.Stats(); pkts == 0 || bytes == 0 {
		t.Fatalf("workload sent no traffic (pkts=%d bytes=%d): digest would be vacuous", pkts, bytes)
	}
	return fmt.Sprintf("digest=%016x metrics=%+v", c.Digest(), *reg.Snapshot())
}

// TestParallelWorkersBitExact is the tentpole invariant: the simulation
// is a pure function of its configuration, not of the host worker
// count. The cluster Digest and the telemetry snapshot must be
// byte-identical at workers 1, 2, 4 and 8.
func TestParallelWorkersBitExact(t *testing.T) {
	ref := runParallelWorkload(t, 1)
	for _, w := range []int{2, 4, 8} {
		if got := runParallelWorkload(t, w); got != ref {
			t.Fatalf("workers=%d diverged from workers=1:\n  %s\nvs\n  %s", w, got, ref)
		}
	}
}
