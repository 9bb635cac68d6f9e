package experiments

import (
	"fmt"

	"shrimp/internal/cluster"
	"shrimp/internal/interconnect"
	"shrimp/internal/kernel"
	"shrimp/internal/machine"
	"shrimp/internal/nic"
	"shrimp/internal/sim"
	"shrimp/internal/stats"
	"shrimp/internal/telemetry"
	"shrimp/internal/udmalib"
	"shrimp/internal/workload"
)

// E18 exercises the routed fabric at scale: a 64-node (8×8) mesh and
// torus under incast-into-one-node, all-to-all exchange and
// bisection-saturation workloads, each on two fabrics:
//
//   - "limited": every routed link at scaleLimitedBPC bytes/cycle —
//     well below the 0.55 B/cyc EISA receive bus, so the links (not
//     the receiver) are the bottleneck and XY routing funnels incast
//     through the one or two links feeding the victim's router;
//   - "ample": links at the host-interface rate (2.9 B/cyc), where the
//     receiver's bus is the bottleneck and the fabric never saturates.
//
// Goodput on the limited fabric must visibly flatten at link capacity
// — more senders buy queueing, not throughput — while the ample fabric
// runs several times faster. The torus's wraparound links double the
// inbound capacity at the incast victim and roughly halve all-to-all
// link loads, which the cross-topology checks pin down.
const (
	scaleNodes      = 64
	scaleWidth      = 8
	scaleMsgSize    = 4096
	scaleLimitedBPC = 0.1 // bytes/cycle per routed link on the "limited" fabric
)

// scaleCase is one e18 run: a topology, a fabric capacity, a workload
// and a worker count.
type scaleCase struct {
	name     string
	topo     interconnect.Topology
	workload string // "incast", "alltoall" or "bisect"
	senders  []int  // incast senders (nil = every node but the victim)
	messages int    // per sender (per destination for alltoall)
	workers  int
	metrics  *telemetry.Registry // optional rollup mirror (pure observer)
}

// scaleRun is what one case measures.
type scaleRun struct {
	digest     uint64
	bytes      uint64
	elapsed    sim.Cycles
	goodput    float64 // aggregate payload bytes per simulated cycle
	hotBusy    uint64  // busiest link's busy cycles
	hotFrac    float64 // busiest link's busy fraction of elapsed
	waitCycles uint64  // total cycles packets queued on links
	peakQueue  uint64  // deepest link FIFO backlog anywhere
	linksUsed  int
}

// scaleTopo builds the 8×8 declaration at the given per-link capacity
// (0 = host-interface rate, the "ample" fabric).
func scaleTopo(kind interconnect.Kind, bpc float64) interconnect.Topology {
	return interconnect.Topology{Kind: kind, Nodes: scaleNodes, Width: scaleWidth, LinkBytesPerCyc: bpc}
}

// RunScaleOut is E18. See the package-level constants above for the
// fabric regimes; the checks assert where each regime's bottleneck sits
// and that the routed fabric stays bit-exact under host parallelism.
func RunScaleOut() (*Result, error) {
	res := &Result{
		ID:    "e18",
		Title: "Routed fabric at scale: 64-node mesh/torus link contention",
		Paper: "extension — the paper's 2-node prototype rides a real routed Paragon mesh; this models that fabric's links and lets them saturate",
	}

	type cell struct {
		workload string
		kind     interconnect.Kind
		fabric   string
		bpc      float64
		messages int
	}
	var cells []cell
	for _, wk := range []struct {
		name string
		msgs int
	}{{"incast", 6}, {"alltoall", 1}, {"bisect", 8}} {
		for _, kind := range []interconnect.Kind{interconnect.KindMesh, interconnect.KindTorus} {
			cells = append(cells,
				cell{wk.name, kind, "limited", scaleLimitedBPC, wk.msgs},
				cell{wk.name, kind, "ample", 0, wk.msgs})
		}
	}

	tbl := stats.NewTable(
		fmt.Sprintf("64-node routed fabric (8×8), %d B messages: goodput vs link capacity", scaleMsgSize),
		"workload", "topology", "fabric", "goodput B/cyc", "MB/s", "elapsed Mcyc", "hot link busy", "queue wait Mcyc", "peak queue")
	costs := machine.SHRIMP1996()
	runs := make(map[string]*scaleRun, len(cells))
	for _, cl := range cells {
		sc := scaleCase{
			name:     fmt.Sprintf("%s_%s_%s", cl.workload, cl.kind, cl.fabric),
			topo:     scaleTopo(cl.kind, cl.bpc),
			workload: cl.workload,
			messages: cl.messages,
			workers:  4,
		}
		r, err := runScaleCase(sc)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sc.name, err)
		}
		runs[sc.name] = r
		tbl.AddRow(cl.workload, cl.kind.String(), cl.fabric,
			fmt.Sprintf("%.3f", r.goodput),
			fmt.Sprintf("%.1f", mbps(costs, int(r.bytes), r.elapsed)),
			fmt.Sprintf("%.2f", float64(r.elapsed)/1e6),
			fmt.Sprintf("%.0f%%", 100*r.hotFrac),
			fmt.Sprintf("%.2f", float64(r.waitCycles)/1e6),
			fmt.Sprintf("%d", r.peakQueue))
		res.metric(sc.name+"_goodput_bpc", r.goodput)
		res.metric(sc.name+"_elapsed_cycles", float64(r.elapsed))
		res.metric(sc.name+"_peak_queue", float64(r.peakQueue))
	}
	res.Tables = append(res.Tables, tbl)

	// Incast flattening sweep: senders drawn from rows 1+ only, so on
	// the mesh every byte funnels through the single column link into
	// the victim's router — quadrupling the offered load must buy
	// (almost) nothing.
	series := &stats.Series{Name: "incast goodput vs sender count (mesh, limited fabric)",
		XLabel: "senders", YLabel: "goodput B/cyc"}
	sweepTbl := stats.NewTable(
		fmt.Sprintf("Incast flattening at link capacity (%.2f B/cyc): senders from rows 1+, mesh", scaleLimitedBPC),
		"senders", "offered B/cyc", "goodput B/cyc", "hot link busy", "peak queue")
	var sweepGoodputs []float64
	for _, k := range []int{14, 28, 56} {
		senders := make([]int, k)
		for i := range senders {
			senders[i] = scaleWidth + i // nodes 8.. — all with y >= 1
		}
		sc := scaleCase{
			name:     fmt.Sprintf("incast_flat_%d", k),
			topo:     scaleTopo(interconnect.KindMesh, scaleLimitedBPC),
			workload: "incast",
			senders:  senders,
			messages: 6,
			workers:  4,
		}
		r, err := runScaleCase(sc)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sc.name, err)
		}
		// Offered load: every sender's bus can source a message each
		// ~(startup + size/DMABytesPerCyc) cycles.
		perMsg := float64(costs.RecvDMAStartup) + float64(scaleMsgSize)/costs.DMABytesPerCyc
		offered := float64(k) * float64(scaleMsgSize) / perMsg
		sweepTbl.AddRow(fmt.Sprintf("%d", k), fmt.Sprintf("%.2f", offered),
			fmt.Sprintf("%.3f", r.goodput),
			fmt.Sprintf("%.0f%%", 100*r.hotFrac),
			fmt.Sprintf("%d", r.peakQueue))
		series.Add(float64(k), r.goodput)
		sweepGoodputs = append(sweepGoodputs, r.goodput)
		res.metric(fmt.Sprintf("incast_flat_senders_%d_goodput_bpc", k), r.goodput)
	}
	res.Tables = append(res.Tables, sweepTbl)
	res.Series = append(res.Series, series)

	// --- shape checks -----------------------------------------------------

	mi := runs["incast_mesh_limited"]
	res.check("limited incast flattens at link capacity",
		mi.goodput >= 0.5*scaleLimitedBPC && mi.goodput <= 2.5*scaleLimitedBPC,
		"mesh incast goodput %.3f B/cyc vs %.2f B/cyc per link (63 senders share the victim's 2 inbound links)",
		mi.goodput, scaleLimitedBPC)

	ai := runs["incast_mesh_ample"]
	res.check("ample fabric does not flatten at link capacity",
		ai.goodput >= 2.5*mi.goodput,
		"ample incast %.3f B/cyc vs limited %.3f (receiver bus %.2f B/cyc is the ample bottleneck)",
		ai.goodput, mi.goodput, costs.DMABytesPerCyc)

	lo, hi := sweepGoodputs[0], sweepGoodputs[0]
	for _, g := range sweepGoodputs {
		if g < lo {
			lo = g
		}
		if g > hi {
			hi = g
		}
	}
	res.check("incast goodput is flat as offered load quadruples",
		lo > 0 && hi/lo <= 1.25,
		"goodputs %.3f..%.3f B/cyc across 14/28/56 senders (all behind one column link)", lo, hi)

	ti := runs["incast_torus_limited"]
	res.check("torus wraparound widens the incast funnel",
		ti.goodput >= 1.4*mi.goodput,
		"torus incast %.3f vs mesh %.3f B/cyc (4 inbound links vs 2)", ti.goodput, mi.goodput)

	// All-to-all: the torus's wraparound halves each dimension's worst
	// crossing load. End-to-end goodput moves less (every destination
	// still has an incast funnel on its last hop), so the check pins
	// the hottest link's occupancy, with goodput as a no-regression
	// guard.
	ma, ta := runs["alltoall_mesh_limited"], runs["alltoall_torus_limited"]
	res.check("torus spreads the all-to-all hot-spot (halved worst-link load)",
		float64(ta.hotBusy) <= 0.75*float64(ma.hotBusy) && ta.goodput >= 0.95*ma.goodput,
		"hottest link busy %.2f Mcyc (torus) vs %.2f (mesh); goodput %.3f vs %.3f B/cyc",
		float64(ta.hotBusy)/1e6, float64(ma.hotBusy)/1e6, ta.goodput, ma.goodput)

	mb, ab := runs["bisect_mesh_limited"], runs["bisect_mesh_ample"]
	crossCap := 2 * scaleWidth * scaleLimitedBPC // W crossing links per direction
	res.check("bisection exchange saturates the crossing links",
		mb.goodput >= 0.5*crossCap && mb.goodput <= 1.25*crossCap,
		"mesh bisect goodput %.3f B/cyc vs %.1f B/cyc crossing capacity", mb.goodput, crossCap)
	res.check("ample fabric clears the bisection bottleneck",
		ab.goodput >= 2*mb.goodput,
		"ample %.3f vs limited %.3f B/cyc", ab.goodput, mb.goodput)

	// --- determinism: worker equivalence and run-twice --------------------

	prove(res, "contention resolution is bit-identical at workers 1/2/4/8 and on a rerun", func(w int) (*scaleRun, error) {
		return runScaleCase(scaleCase{
			topo:     scaleTopo(interconnect.KindMesh, scaleLimitedBPC),
			workload: "incast",
			messages: 6,
			workers:  w,
		})
	}, func(r *scaleRun) uint64 { return r.digest }, 1, 2, 4, 8)

	res.metric("fabric_links_used_incast", float64(mi.linksUsed))
	res.metric("incast_wait_cycles", float64(mi.waitCycles))
	res.Notes = append(res.Notes,
		fmt.Sprintf("limited fabric: %.2f B/cyc per directed link — below the %.2f B/cyc receive bus, so links are the bottleneck", scaleLimitedBPC, costs.DMABytesPerCyc),
		"ample fabric: links at the host-interface rate (2.9 B/cyc); incast is then bound by the victim's EISA receive bus",
		"contention is charged at barriers in the deterministic (arrive, src, seq) merge order, so link queueing is a pure function of what was sent",
		"XY routing funnels mesh incast through 2 inbound links at the victim's router; the torus's wraparound links make it 4")
	return res, nil
}

// runScaleCase builds the 64-node cluster, wires the workload's send
// windows, runs it to completion and reads back goodput, the per-link
// occupancy ledger and the cluster digest.
func runScaleCase(sc scaleCase) (*scaleRun, error) {
	nodes := sc.topo.Nodes
	c := cluster.New(cluster.Config{
		Nodes:    nodes,
		Topology: sc.topo,
		Workers:  sc.workers,
		Window:   20_000,
		Machine:  machine.Config{RAMFrames: 96, Kernel: kernel.Config{Quantum: 2000}},
		NIC:      nic.Config{NIPTPages: uint32(nodes)},
		Metrics:  sc.metrics,
	})
	defer c.Shutdown()

	// sends[i] lists (NIPT entry, destination) pairs for node i's
	// sender process; empty means the node only receives.
	type target struct{ entry, dst int }
	sends := make([][]target, nodes)
	switch sc.workload {
	case "incast":
		senders := sc.senders
		if senders == nil {
			for i := 1; i < nodes; i++ {
				senders = append(senders, i)
			}
		}
		for _, s := range senders {
			sends[s] = []target{{0, 0}}
		}
	case "alltoall":
		for i := 0; i < nodes; i++ {
			e := 0
			for j := 0; j < nodes; j++ {
				if j == i {
					continue
				}
				sends[i] = append(sends[i], target{e, j})
				e++
			}
		}
	case "bisect":
		// Every node exchanges with the node half the ring away in its
		// row: the whole machine's traffic crosses the column-W/2
		// bisection (mesh) or splits between it and the wraparound
		// links (torus). 8×8 only (e18's grid).
		for i := 0; i < nodes; i++ {
			x, y := i%scaleWidth, i/scaleWidth
			sends[i] = []target{{0, y*scaleWidth + (x+scaleWidth/2)%scaleWidth}}
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", sc.workload)
	}

	errs := make([]error, nodes)
	var wantBytes uint64
	for i := 0; i < nodes; i++ {
		if len(sends[i]) == 0 {
			continue
		}
		for _, tg := range sends[i] {
			if err := udmalib.MapSendWindow(c.NICs[i], uint32(tg.entry), tg.dst, []uint32{48}); err != nil {
				return nil, err
			}
		}
		wantBytes += uint64(len(sends[i]) * sc.messages * scaleMsgSize)
		i, targets := i, sends[i]
		c.Nodes[i].Kernel.Spawn(fmt.Sprintf("sender%d", i), func(p *kernel.Proc) {
			d, err := udmalib.Open(p, c.NICs[i], true)
			if err != nil {
				errs[i] = err
				return
			}
			va, err := p.Alloc(scaleMsgSize)
			if err != nil {
				errs[i] = err
				return
			}
			if err := p.WriteBuf(va, workload.Payload(scaleMsgSize, byte(i+1))); err != nil {
				errs[i] = err
				return
			}
			for m := 0; m < sc.messages; m++ {
				for _, tg := range targets {
					if err := d.Send(va, uint32(tg.entry)*4096, scaleMsgSize); err != nil {
						errs[i] = err
						return
					}
				}
			}
		})
	}
	if err := c.Run(5_000_000_000); err != nil {
		return nil, err
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("sender %d: %w", i, err)
		}
	}

	if sc.metrics != nil {
		c.PublishRollup()
	}
	_, bytes, _, _ := c.Backplane.Stats()
	if bytes != wantBytes {
		return nil, fmt.Errorf("wire carried %d bytes, want %d", bytes, wantBytes)
	}
	r := &scaleRun{bytes: bytes, elapsed: c.MaxNow()}
	if r.elapsed > 0 {
		r.goodput = float64(bytes) / float64(r.elapsed)
	}

	ls := c.Backplane.LinkStats()
	r.linksUsed = len(ls)
	for _, l := range ls {
		if l.BusyCycles > r.hotBusy {
			r.hotBusy = l.BusyCycles
		}
		r.waitCycles += l.WaitCycles
		if l.PeakQueue > r.peakQueue {
			r.peakQueue = l.PeakQueue
		}
	}
	if r.elapsed > 0 {
		r.hotFrac = float64(r.hotBusy) / float64(r.elapsed)
	}
	r.digest = c.Digest()
	return r, nil
}

// IncastRun is the readout of one standalone incast run — the
// cmd/shrimpsim `-scenario incast` face of the e18 machinery.
type IncastRun struct {
	Digest     uint64 // cluster.Digest of the finished run
	Bytes      uint64
	Elapsed    sim.Cycles
	GoodputBPC float64 // aggregate payload bytes per simulated cycle
	HotBusy    uint64  // busiest link's busy cycles
	HotFrac    float64 // busiest link's busy fraction of elapsed
	WaitCycles uint64  // total cycles packets queued on links
	PeakQueue  uint64  // deepest link FIFO backlog anywhere
	LinksUsed  int
}

// RunIncast drives every node but node 0 to push `messages` page-sized
// transfers into node 0 across an N-node routed fabric of the given
// kind, with every link at linkBPC bytes/cycle (0 = the host-interface
// rate, so the receiver bus is the bottleneck instead of the fabric).
// The width is the near-square default. Identical arguments produce an
// identical Digest at any worker count.
func RunIncast(nodes int, kind interconnect.Kind, linkBPC float64, messages, workers int, reg *telemetry.Registry) (*IncastRun, error) {
	if nodes < 2 {
		return nil, fmt.Errorf("incast needs at least 2 nodes (got %d)", nodes)
	}
	if messages < 1 {
		messages = 1
	}
	if workers < 1 {
		workers = 1
	}
	topo := interconnect.Topology{Kind: kind, Nodes: nodes, LinkBytesPerCyc: linkBPC}
	r, err := runScaleCase(scaleCase{topo: topo, workload: "incast",
		messages: messages, workers: workers, metrics: reg})
	if err != nil {
		return nil, err
	}
	return &IncastRun{
		Digest:     r.digest,
		Bytes:      r.bytes,
		Elapsed:    r.elapsed,
		GoodputBPC: r.goodput,
		HotBusy:    r.hotBusy,
		HotFrac:    r.hotFrac,
		WaitCycles: r.waitCycles,
		PeakQueue:  r.peakQueue,
		LinksUsed:  r.linksUsed,
	}, nil
}

// ScaleLimitedBPC is the constrained per-link capacity the incast
// scenario and e18 share for their "limited" fabric.
const ScaleLimitedBPC = scaleLimitedBPC
