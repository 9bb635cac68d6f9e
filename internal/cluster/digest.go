package cluster

import (
	"fmt"
	"hash/fnv"
)

// Digest is the canonical hash of the cluster's simulated state: two
// runs behave the same exactly when their digests match, which is how
// every determinism proof (reruns, worker counts, telemetry on/off) is
// stated. It is FNV-64a over, in a fixed order:
//
//   - per node: clock, kernel stats, UDMA controller stats (when the
//     node has one), I/O bus stats, NIC stats and the fault-injection
//     wrapper's counts (when injection is on);
//   - cluster-wide: backplane launch totals, the fault-plan ledger, the
//     crash ledger and every used link's occupancy ledger.
//
// extra values (state of devices the caller attached outside the
// cluster) are folded in last. Reading the digest never perturbs the
// simulation.
func (c *Cluster) Digest(extra ...any) uint64 {
	h := fnv.New64a()
	for i, n := range c.Nodes {
		fmt.Fprintf(h, "n%d clock=%d kstats=%+v", i, n.Clock.Now(), n.Kernel.Stats())
		if n.UDMA != nil {
			fmt.Fprintf(h, " ustats=%+v", n.UDMA.Stats())
		}
		fmt.Fprintf(h, " bus=%+v nic=%+v", n.Bus.Stats(), c.NICs[i].Stats())
		if f := c.Faulty[i]; f != nil {
			rej, fail := f.Injected()
			fmt.Fprintf(h, " injected=%d/%d", rej, fail)
		}
		fmt.Fprint(h, "|")
	}
	p, by, rp, rb := c.Backplane.Stats()
	fmt.Fprintf(h, "net=%d/%d/%d/%d fault=%+v crash=%+v|", p, by, rp, rb,
		c.Backplane.FaultStats(), c.CrashStats())
	for _, l := range c.Backplane.LinkStats() {
		fmt.Fprintf(h, "L%+v|", l)
	}
	for _, x := range extra {
		fmt.Fprintf(h, "x%+v|", x)
	}
	return h.Sum64()
}
