package cluster_test

import (
	"testing"

	"shrimp/internal/addr"
	"shrimp/internal/cluster"
	"shrimp/internal/interconnect"
	"shrimp/internal/kernel"
	"shrimp/internal/machine"
	"shrimp/internal/nic"
	"shrimp/internal/udmalib"
	"shrimp/internal/workload"
)

// runDigestRing runs a 4-node ring over a lossy wire with reliable
// delivery — each node sends 6 pages to its neighbour, node 0 sends
// extra more — with cfg mutated first, and returns the finished
// cluster's Digest and how many crashes fired.
func runDigestRing(t *testing.T, extra int, mutate func(*cluster.Config)) (uint64, uint64) {
	t.Helper()
	const nodes = 4
	cfg := cluster.Config{
		Nodes:   nodes,
		Machine: machine.Config{RAMFrames: 64},
		NIC: nic.Config{
			NIPTPages:   8,
			Reliability: nic.ReliabilityConfig{Enabled: true, Window: 4, MaxPending: 8},
		},
		Fault: interconnect.FaultPlan{Seed: 1, DropRate: 0.1},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	c := cluster.New(cfg)
	defer c.Shutdown()

	for i := 0; i < nodes; i++ {
		if err := udmalib.MapSendWindow(c.NICs[i], 0, (i+1)%nodes, []uint32{40}); err != nil {
			t.Fatal(err)
		}
		i, msgs := i, 6
		if i == 0 {
			msgs += extra
		}
		c.Nodes[i].Kernel.Spawn("sender", func(p *kernel.Proc) {
			d, err := udmalib.Open(p, c.NICs[i], true)
			if err != nil {
				return
			}
			va, _ := p.Alloc(addr.PageSize)
			p.WriteBuf(va, workload.Payload(addr.PageSize, byte(i+1)))
			for m := 0; m < msgs; m++ {
				// Loss and crashes are outcomes the digest records, not
				// test failures.
				if d.SendRetry(va, 0, addr.PageSize, udmalib.RetryPolicy{MaxAttempts: 20, Backoff: 512}) != nil {
					return
				}
			}
		})
	}
	if err := c.Run(1_000_000_000); err != nil {
		t.Fatal(err)
	}
	return c.Digest(), c.CrashStats().Crashes
}

// TestDigestSensitivity changes one input per row against a base run
// and requires the Digest to move: a digest blind to any of these would
// let a behaviour change pass every determinism proof.
func TestDigestSensitivity(t *testing.T) {
	base, _ := runDigestRing(t, 0, nil)
	for _, tc := range []struct {
		name   string
		extra  int
		mutate func(*cluster.Config)
	}{
		{"one extra message", 1, nil},
		{"different fault seed", 0, func(cfg *cluster.Config) { cfg.Fault.Seed = 2 }},
		{"crash plan that fires", 0, func(cfg *cluster.Config) {
			cfg.Crash = cluster.CrashPlan{Seed: 1, MTBF: 20_000, MTTR: 20_000, FirstAt: 10_000, MaxCrashes: 1}
		}},
		{"throttled link", 0, func(cfg *cluster.Config) { cfg.Topology.LinkBytesPerCyc = 0.1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, crashes := runDigestRing(t, tc.extra, tc.mutate)
			if tc.name == "crash plan that fires" && crashes == 0 {
				t.Fatal("the crash plan never fired")
			}
			if got == base {
				t.Fatalf("digest %016x unchanged from the base run", got)
			}
		})
	}
}
