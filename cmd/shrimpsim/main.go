// Command shrimpsim runs interactive scenarios on the simulated SHRIMP
// machine — a quick way to watch the UDMA mechanism work without
// writing a program against the library.
//
// Usage:
//
//	shrimpsim -scenario send        # two-instruction UDMA send on one node
//	shrimpsim -scenario cluster     # 4-node deliberate-update exchange
//	shrimpsim -scenario share       # untrusting processes share the device
//	shrimpsim -scenario paging      # UDMA under memory pressure (I2/I4)
//	shrimpsim -scenario faults      # injected faults, per-transfer recovery
//	shrimpsim -scenario lossy       # lossy wire vs the reliable delivery protocol
//	shrimpsim -scenario contention  # queued senders: latency under load
//	shrimpsim -scenario incast      # routed-fabric incast: goodput vs link capacity
//	shrimpsim -scenario incast -nodes 64 -topology torus
//	shrimpsim -scenario serve       # open-loop load at a fixed offered rate
//	shrimpsim -scenario serve -rate 1000 -nodes 4
//	shrimpsim -scenario churn       # short-lived flows vs a bounded NIPT cache
//	shrimpsim -scenario churn -capacity 16
//	shrimpsim -scenario chaos       # node crash–restart schedule vs availability
//	shrimpsim -scenario fuzz        # randomized run under the invariant auditor
//	shrimpsim -scenario fuzz -seed 7 -count 100
//	shrimpsim -list                 # scenario index with one-line descriptions
//	shrimpsim -nodes 8 -size 16384  # scenario parameters
//	shrimpsim -workers 8            # host goroutines for cluster windows and
//	                                # seed/rate sweeps (results are identical
//	                                # at any worker count)
//
// Observation flags (work with every scenario; telemetry is a pure
// observer, so they never change simulated results):
//
//	-metrics              print a telemetry snapshot (counters, gauges,
//	                      latency histograms with p50/p90/p99)
//	-metrics-out FILE     write the snapshot as JSON
//	-trace-out FILE       write a Chrome trace_event JSON file; open it
//	                      at https://ui.perfetto.dev
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"shrimp/internal/addr"
	"shrimp/internal/cluster"
	"shrimp/internal/device"
	"shrimp/internal/experiments"
	"shrimp/internal/interconnect"
	"shrimp/internal/kernel"
	"shrimp/internal/loadgen"
	"shrimp/internal/machine"
	"shrimp/internal/nic"
	"shrimp/internal/sim"
	"shrimp/internal/simcheck"
	"shrimp/internal/telemetry"
	"shrimp/internal/trace"
	"shrimp/internal/udmalib"
	"shrimp/internal/workload"
)

// scenarioIndex is the -list readout: every scenario in presentation
// order with the one-liner a new user needs to pick one.
var scenarioIndex = []struct{ name, desc string }{
	{"send", "two-instruction UDMA send on one node"},
	{"cluster", "N-node deliberate-update ring exchange"},
	{"share", "untrusting processes share one device (I1 protection)"},
	{"paging", "UDMA under memory pressure (I2/I4 guards)"},
	{"autoupdate", "plain stores propagate to a remote page, no initiation"},
	{"faults", "injected device faults vs per-transfer recovery"},
	{"lossy", "lossy wire vs the reliable delivery sublayer"},
	{"contention", "queued senders: latency distributions under load"},
	{"incast", "routed-fabric incast: goodput flattens at per-link capacity"},
	{"serve", "open-loop load at a fixed offered rate, SLO readout"},
	{"churn", "short-lived flows vs a bounded NIPT cache"},
	{"chaos", "seeded node crash–restart schedule vs availability SLOs"},
	{"fuzz", "randomized runs under the simcheck invariant auditor"},
}

func main() {
	var (
		scenario   = flag.String("scenario", "send", "send | cluster | share | paging | autoupdate | faults | lossy | contention | incast | serve | churn | chaos | fuzz")
		list       = flag.Bool("list", false, "list the scenarios with one-line descriptions and exit")
		nodes      = flag.Int("nodes", 4, "cluster scenario: node count")
		size       = flag.Int("size", 4096, "message size in bytes")
		senders    = flag.Int("senders", 4, "share/contention scenarios: processes")
		seed       = flag.Uint64("seed", experiments.FaultSeed, "faults/fuzz scenarios: RNG seed (fuzz: first seed)")
		count      = flag.Int("count", 1, "fuzz scenario: number of consecutive seeds to run")
		rate       = flag.Float64("rate", 300, "serve/churn scenarios: offered load in messages per million cycles")
		topology   = flag.String("topology", "mesh", "incast scenario: routed fabric kind (mesh | torus)")
		capacity   = flag.Int("capacity", 8, "churn scenario: NIPT cache capacity in entries (0 = unbounded)")
		withTrace  = flag.Bool("trace", false, "send scenario: dump the hardware event trace")
		metrics    = flag.Bool("metrics", false, "print a telemetry snapshot after the scenario")
		metricsOut = flag.String("metrics-out", "", "write the telemetry snapshot as JSON to this file")
		traceOut   = flag.String("trace-out", "", "write a Chrome trace_event JSON file (Perfetto) to this file")
		workers    = flag.Int("workers", 1, "host goroutines: cluster node windows, fuzz seeds and experiment sweeps (results identical at any value)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the scenario to this file")
		memprofile = flag.String("memprofile", "", "write an allocation profile to this file at exit")
	)
	flag.Parse()
	if *list {
		fmt.Println("scenarios:")
		for _, sc := range scenarioIndex {
			fmt.Printf("  %-12s %s\n", sc.name, sc.desc)
		}
		return
	}
	if *workers < 1 {
		*workers = 1
	}
	experiments.SetSweepWorkers(*workers)

	if *cpuprofile != "" {
		f, perr := os.Create(*cpuprofile)
		if perr == nil {
			perr = pprof.StartCPUProfile(f)
		}
		if perr != nil {
			fmt.Fprintf(os.Stderr, "shrimpsim: cpuprofile: %v\n", perr)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, perr := os.Create(*memprofile)
			if perr != nil {
				fmt.Fprintf(os.Stderr, "shrimpsim: memprofile: %v\n", perr)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the final live set
			if perr := pprof.Lookup("allocs").WriteTo(f, 0); perr != nil {
				fmt.Fprintf(os.Stderr, "shrimpsim: memprofile: %v\n", perr)
			}
		}()
	}

	o := newObs(*metrics, *metricsOut, *traceOut)

	var err error
	switch *scenario {
	case "send":
		err = scenarioSend(*size, *withTrace, o)
	case "cluster":
		err = scenarioCluster(*nodes, *size, *workers, o)
	case "share":
		err = scenarioShare(*senders, *size, o)
	case "paging":
		err = scenarioPaging(*size, o)
	case "autoupdate":
		err = scenarioAutoUpdate(o)
	case "faults":
		err = scenarioSweep(fmt.Sprintf("# fault injection (seed %#x): rejections and completion failures vs bounded retry", *seed),
			"fault-recovery", func() (*experiments.Result, error) { return experiments.RunFaultInjectionSeeded(*seed) })
	case "lossy":
		s := seedOr(*seed, experiments.LossySeed)
		err = scenarioSweep(fmt.Sprintf("# lossy wire (seed %#x): drop/corrupt/dup/reorder vs seq/ACK/retransmit/CRC", s),
			"lossy-wire", func() (*experiments.Result, error) { return experiments.RunLossyWireSeeded(s) })
	case "contention":
		err = scenarioContention(*senders, *size, o)
	case "incast":
		err = scenarioIncast(*nodes, *topology, *workers, o)
	case "serve":
		err = scenarioServe(*seed, *nodes, *rate, o)
	case "churn":
		err = scenarioChurn(*seed, *nodes, *rate, *capacity, o)
	case "chaos":
		err = scenarioChaos(*seed, *nodes, *rate, o)
	case "fuzz":
		err = scenarioFuzz(*seed, *count, *workers)
	default:
		err = fmt.Errorf("unknown scenario %q", *scenario)
	}
	if err == nil {
		err = o.finish(os.Stdout)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "shrimpsim: %v\n", err)
		os.Exit(1)
	}
}

// obs bundles the observation flags: one telemetry registry shared by
// every layer of the scenario's machine(s), plus the tracer sources that
// feed the Chrome trace export. All fields stay nil when no observation
// flag is set, so scenarios pay nothing.
type obs struct {
	metrics    bool
	metricsOut string
	traceOut   string
	reg        *telemetry.Registry
	sources    []telemetry.TraceSource
	costs      *sim.CostModel
}

func newObs(metrics bool, metricsOut, traceOut string) *obs {
	o := &obs{metrics: metrics, metricsOut: metricsOut, traceOut: traceOut}
	if metrics || metricsOut != "" || traceOut != "" {
		o.reg = telemetry.New()
	}
	return o
}

// registry returns the shared registry (nil when observation is off —
// every SetMetrics consumer treats that as "instruments disabled").
func (o *obs) registry() *telemetry.Registry { return o.reg }

// addSource registers a hardware tracer for the Chrome trace export.
func (o *obs) addSource(name string, tr *trace.Tracer) {
	if tr != nil {
		o.sources = append(o.sources, telemetry.TraceSource{Name: name, Tracer: tr})
	}
}

// setCosts records the cost model used to convert cycles to trace
// timestamps (the last scenario machine wins; scenarios share one model).
func (o *obs) setCosts(c *sim.CostModel) { o.costs = c }

// finish renders whatever the flags asked for.
func (o *obs) finish(w io.Writer) error {
	if o.reg == nil {
		return nil
	}
	snap := o.reg.Snapshot()
	if o.metrics {
		fmt.Fprintln(w, "\n# telemetry snapshot")
		snap.WriteText(w)
	}
	if o.metricsOut != "" {
		f, err := os.Create(o.metricsOut)
		if err != nil {
			return err
		}
		if err := snap.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "telemetry snapshot written to %s\n", o.metricsOut)
	}
	if o.traceOut != "" {
		costs := o.costs
		if costs == nil {
			costs = machine.SHRIMP1996()
		}
		f, err := os.Create(o.traceOut)
		if err != nil {
			return err
		}
		if err := telemetry.WriteChromeTrace(f, costs, o.reg, o.sources...); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "trace written to %s (open at https://ui.perfetto.dev)\n", o.traceOut)
	}
	return nil
}

func scenarioSend(size int, withTrace bool, o *obs) error {
	fmt.Printf("# one-node UDMA send of %d bytes to a buffer device\n", size)
	n := machine.New(0, machine.Config{Metrics: o.registry()})
	o.setCosts(n.Costs)
	buf := device.NewBuffer("buf", uint32(size/addr.PageSize+2), 4, 0)
	n.AttachDevice(buf, 0)
	defer n.Kernel.Shutdown()

	var tr *trace.Tracer
	if withTrace || o.traceOut != "" {
		tr = trace.New(n.Clock, 256)
		n.UDMA.SetTracer(tr)
		n.Kernel.SetTracer(tr)
		o.addSource("node0", tr)
	}

	var done sim.Cycles
	var sendErr error
	n.Kernel.Spawn("app", func(p *kernel.Proc) {
		d, err := udmalib.Open(p, buf, true)
		if err != nil {
			sendErr = err
			return
		}
		va, _ := p.Alloc(size)
		p.WriteBuf(va, workload.Payload(size, 1))
		start := p.Now()
		sendErr = d.Send(va, 0, size)
		done = p.Now() - start
	})
	if err := n.Kernel.Run(sim.Forever); err != nil {
		return err
	}
	if sendErr != nil {
		return sendErr
	}
	fmt.Printf("sent %d bytes in %.1f µs (%.1f MB/s) — %d initiations, %d kernel page faults\n",
		size, n.Micros(done),
		float64(size)/n.Costs.Seconds(done)/1e6,
		n.UDMA.Stats().Initiations, n.Kernel.Stats().PageFaults)
	fmt.Println("the kernel was not involved in any initiation: only in creating proxy mappings on first touch")
	if withTrace {
		fmt.Println("\nhardware event trace:")
		tr.Dump(os.Stdout)
		fmt.Printf("summary: %s\n", tr.Summary())
	}
	return nil
}

func scenarioCluster(nodes, size, workers int, o *obs) error {
	fmt.Printf("# %d-node deliberate-update ring, %d bytes per message\n", nodes, size)
	c := cluster.New(cluster.Config{
		Nodes:   nodes,
		Workers: workers,
		Machine: machine.Config{RAMFrames: 128},
		NIC:     nic.Config{NIPTPages: 64},
		Metrics: o.registry(),
	})
	o.setCosts(c.Nodes[0].Costs)
	defer c.Shutdown()

	pages := (size + addr.PageSize - 1) / addr.PageSize
	errs := make([]error, nodes)
	for i := 0; i < nodes; i++ {
		dst := (i + 1) % nodes
		pfns := make([]uint32, pages)
		for j := range pfns {
			pfns[j] = uint32(64 + j)
		}
		if err := udmalib.MapSendWindow(c.NICs[i], 0, dst, pfns); err != nil {
			return err
		}
		i := i
		c.Nodes[i].Kernel.Spawn(fmt.Sprintf("peer%d", i), func(p *kernel.Proc) {
			d, err := udmalib.Open(p, c.NICs[i], true)
			if err != nil {
				errs[i] = err
				return
			}
			va, _ := p.Alloc(size)
			p.WriteBuf(va, workload.Payload(size, byte(i+1)))
			errs[i] = d.Send(va, 0, size)
		})
	}
	if err := c.Run(1_000_000_000); err != nil {
		return err
	}
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("node %d: %w", i, err)
		}
	}
	// Drain through the cluster so deferred backplane mailboxes keep
	// flushing; per-node RunUntilIdle would strand undelivered mail.
	c.DrainHardware()
	for i := 0; i < nodes; i++ {
		s := c.NICs[i].Stats()
		fmt.Printf("node %d: sent %d B in %d packet(s), received %d B, clock %.0f µs\n",
			i, s.BytesSent, s.PacketsSent, s.BytesReceived,
			c.Nodes[i].Costs.Micros(c.Nodes[i].Clock.Now()))
	}
	c.PublishRollup()
	return nil
}

func scenarioShare(senders, size int, o *obs) error {
	fmt.Printf("# %d untrusting processes share one UDMA device (%d B messages)\n", senders, size)
	n := machine.New(0, machine.Config{
		Kernel:  kernel.Config{Quantum: 2000},
		Metrics: o.registry(),
	})
	o.setCosts(n.Costs)
	buf := device.NewBuffer("buf", uint32(senders+1), 4, 0)
	n.AttachDevice(buf, 0)
	defer n.Kernel.Shutdown()

	errs := make([]error, senders)
	retries := make([]uint64, senders)
	for i := 0; i < senders; i++ {
		i := i
		n.Kernel.Spawn(fmt.Sprintf("p%d", i), func(p *kernel.Proc) {
			d, err := udmalib.Open(p, buf, true)
			if err != nil {
				errs[i] = err
				return
			}
			va, _ := p.Alloc(size)
			p.WriteBuf(va, workload.Payload(size, byte(i+1)))
			for m := 0; m < 16; m++ {
				if err := d.Send(va, uint32(i)<<addr.PageShift, size); err != nil {
					errs[i] = err
					return
				}
			}
			retries[i] = d.Stats().Retries
		})
	}
	if err := n.Kernel.Run(sim.Forever); err != nil {
		return err
	}
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("process %d: %w", i, err)
		}
	}
	ks := n.Kernel.Stats()
	fmt.Printf("context switches: %d, I1 Invals: %d (one per switch)\n", ks.ContextSwitches, ks.Invals)
	for i := 0; i < senders; i++ {
		want := workload.Payload(size, byte(i+1))
		got := buf.Bytes(i*addr.PageSize, size)
		ok := true
		for j := range want {
			if got[j] != want[j] {
				ok = false
			}
		}
		fmt.Printf("process %d: %d retries, data intact: %v\n", i, retries[i], ok)
	}
	return nil
}

func scenarioAutoUpdate(o *obs) error {
	fmt.Println("# automatic update: plain stores propagate to a remote page, no initiation at all")
	c := cluster.New(cluster.Config{Nodes: 2, NIC: nic.Config{NIPTPages: 8}, Metrics: o.registry()})
	o.setCosts(c.Nodes[0].Costs)
	defer c.Shutdown()

	var sendErr error
	c.Nodes[0].Kernel.Spawn("writer", func(p *kernel.Proc) {
		// Export straight to raw remote frames 40.. (control plane).
		if err := udmalib.MapSendWindow(c.NICs[0], 0, 1, []uint32{40}); err != nil {
			sendErr = err
			return
		}
		src, _ := p.Alloc(addr.PageSize)
		if err := p.MapAutoUpdate(c.NICs[0], src, 1, 0); err != nil {
			sendErr = err
			return
		}
		start := p.Now()
		for i := uint32(0); i < 16; i++ {
			p.Store(src+addr.VAddr(i*4), 0x1000+i)
		}
		c.NICs[0].FlushAutoUpdate()
		fmt.Printf("16 plain stores published in %.1f µs of CPU time\n", p.Micros(p.Now()-start))
	})
	if err := c.Run(1_000_000_000); err != nil {
		return err
	}
	if sendErr != nil {
		return sendErr
	}
	st := c.NICs[0].Stats()
	fmt.Printf("snooped words: %d, combined packets: %d\n", st.AutoWords, st.AutoPackets)
	w, _ := c.Nodes[1].RAM.ReadWord(addr.FrameAddr(40))
	fmt.Printf("remote word 0 = %#x (want 0x1000)\n", w)
	c.PublishRollup()
	return nil
}

// scenarioSweep runs a seeded experiment sweep — faults (E12: injected
// device rejections and completion failures vs bounded retry) or lossy
// (E13: drop/corrupt/dup/reorder vs the NIC's reliability sublayer) —
// and prints its tables, checks and notes. The sweep runs twice and the
// rendered tables must match bit-exactly: faults and loss included, the
// run is a pure function of the seed.
func scenarioSweep(title, what string, run func() (*experiments.Result, error)) error {
	fmt.Println(title)
	render := func(res *experiments.Result) string {
		var sb strings.Builder
		for _, t := range res.Tables {
			t.Render(&sb)
		}
		return sb.String()
	}
	res, err := experiments.Prove(func(int) (*experiments.Result, error) { return run() }, render, 1)
	if err != nil {
		return err
	}
	fmt.Print(render(res))
	fmt.Println()
	for _, c := range res.Checks {
		mark := "PASS"
		if !c.Pass {
			mark = "FAIL"
		}
		fmt.Printf("  [%s] %s", mark, c.Name)
		if c.Detail != "" {
			fmt.Printf(" — %s", c.Detail)
		}
		fmt.Println()
	}
	for _, note := range res.Notes {
		fmt.Printf("  note: %s\n", note)
	}
	fmt.Println("\nsecond run with the same seed reproduced every row exactly")
	if !res.Passed() {
		return fmt.Errorf("%s checks failed", what)
	}
	return nil
}

// scenarioIncast drives every node but node 0 to dump page-sized
// messages into node 0 across a routed fabric (-nodes, -topology),
// twice: once with every link throttled well below the receiver's bus
// rate — the fabric is the bottleneck and goodput flattens at the
// capacity of the victim router's inbound links — and once with ample
// links, where the receiver's bus is the bottleneck instead. The
// limited run is then proved: a rerun and a run at a different worker
// count must reproduce its digest bit-exactly, because contention is
// resolved in merge order at barriers, not host arrival order.
func scenarioIncast(nodes int, topology string, workers int, o *obs) error {
	kind, err := interconnect.ParseKind(topology)
	if err != nil {
		return err
	}
	if nodes < 2 {
		nodes = 2
	}
	const messages = 6
	o.setCosts(machine.SHRIMP1996())
	fmt.Printf("# incast on a routed %d-node %s: %d senders × %d × 4096 B into node 0\n",
		nodes, kind, nodes-1, messages)

	otherWorkers := 4
	if workers == otherWorkers {
		otherWorkers = 1
	}
	reg := o.registry()
	limited, err := experiments.Prove(func(w int) (*experiments.IncastRun, error) {
		r, err := experiments.RunIncast(nodes, kind, experiments.ScaleLimitedBPC, messages, w, reg)
		reg = nil // observe the first run only
		return r, err
	}, func(r *experiments.IncastRun) uint64 { return r.Digest }, workers, otherWorkers)
	if err != nil {
		return err
	}
	ample, err := experiments.RunIncast(nodes, kind, 0, messages, workers, nil)
	if err != nil {
		return err
	}
	row := func(name string, r *experiments.IncastRun, bpc float64) {
		cap := "host rate"
		if bpc > 0 {
			cap = fmt.Sprintf("%.2f B/cyc", bpc)
		}
		fmt.Printf("%-8s links at %-10s goodput %.3f B/cyc, hot link %3.0f%% busy, queue wait %.2f Mcyc, peak queue %d, %d links used\n",
			name, cap, r.GoodputBPC, 100*r.HotFrac, float64(r.WaitCycles)/1e6, r.PeakQueue, r.LinksUsed)
	}
	row("limited", limited, experiments.ScaleLimitedBPC)
	row("ample", ample, 0)
	if limited.GoodputBPC < ample.GoodputBPC {
		fmt.Println("the throttled fabric is the bottleneck: extra offered load becomes link queueing, not goodput")
	}
	fmt.Printf("\nfingerprint %016x reproduced exactly: rerun and a %d-worker run\n",
		limited.Digest, otherWorkers)
	return nil
}

// scenarioTrial runs one open-loop loadgen trial (the serve, churn and
// chaos scenarios differ only in tc) with the observation registry
// attached, prints title(res), the per-class SLO table and post(res) —
// the scenario's own readout lines, returning an error when the trial
// broke a scenario check — and proves the trial a pure function of its
// seed: a 4-worker run and a serial rerun must reproduce its
// fingerprint.
func scenarioTrial(tc loadgen.TrialConfig, title func(*loadgen.Result) string, post func(*loadgen.Result) error, o *obs) error {
	if tc.Nodes < 2 {
		tc.Nodes = 2
	}
	costs := machine.SHRIMP1996()
	o.setCosts(costs)
	reg := o.registry()
	res, err := experiments.Prove(func(w int) (*loadgen.Result, error) {
		tc.Workers, tc.Metrics = w, reg
		reg = nil // observe the first run only
		return loadgen.RunTrial(tc)
	}, (*loadgen.Result).Fingerprint, 1, 4)
	if err != nil {
		return err
	}
	fmt.Println(title(res))
	res.WriteTable(os.Stdout, costs)
	if err := post(res); err != nil {
		return err
	}
	fmt.Printf("\nfingerprint %016x reproduced exactly: serial rerun and a 4-worker run\n", res.Fingerprint())
	return nil
}

// printRecovery prints the trial's ordering and recovery counters.
func printRecovery(res *loadgen.Result) {
	fmt.Printf("order violations %d, retries %d, credit stalls %d, retransmits %d\n",
		res.OrderViolations, res.Retries, res.CreditStalls, res.Retransmits)
}

// scenarioServe offers a seeded Poisson schedule of PIO, UDMA and
// multi-page traffic at a fixed rate across per-destination FIFO flows;
// the SLO readout is achieved rate, goodput and per-class sojourn
// percentiles.
func scenarioServe(seed uint64, nodes int, rate float64, o *obs) error {
	seed = seedOr(seed, experiments.ServeSeed)
	tc := loadgen.TrialConfig{Config: loadgen.Config{Nodes: nodes, Seed: seed, Rate: rate}}
	return scenarioTrial(tc, func(res *loadgen.Result) string {
		return fmt.Sprintf("# open-loop serving (seed %#x): %d nodes, %d messages across %d flows",
			seed, res.Cfg.Nodes, res.Messages, res.Cfg.Flows)
	}, func(res *loadgen.Result) error {
		printRecovery(res)
		if res.AchievedRate < 0.9*res.OfferedRate {
			fmt.Println("the offered rate is past the saturation knee: queues grew and sojourn tails absorbed the backlog")
		} else {
			fmt.Println("the system kept up with the offered rate (below the saturation knee)")
		}
		return nil
	}, o)
}

// scenarioChurn runs the connection-churn workload: a live population
// of short-lived flows (each dying after a few messages, a fresh flow
// taking its slot), one NIPT entry per flow, against a bounded on-board
// NIPT cache over the host-memory backing table, with idle reliability
// state reclaimed at lockstep barriers. The readout shows what the
// cache costs — misses, evictions, refill cycles, sojourn tails.
func scenarioChurn(seed uint64, nodes int, rate float64, capacity int, o *obs) error {
	seed = seedOr(seed, experiments.ChurnSeed)
	tc := loadgen.TrialConfig{
		Config:           loadgen.Config{Nodes: nodes, Seed: seed, Rate: rate, Churn: true},
		NIPTCapacity:     capacity,
		NIPTRefillJitter: 64,
		IdleReclaimAge:   150_000,
	}
	capLabel := fmt.Sprint(capacity)
	if capacity == 0 {
		capLabel = "unbounded"
	}
	return scenarioTrial(tc, func(res *loadgen.Result) string {
		return fmt.Sprintf("# connection churn (seed %#x): %d nodes, %d messages, %d live flows, NIPT capacity %s",
			seed, res.Cfg.Nodes, res.Messages, res.Cfg.ActiveFlows, capLabel)
	}, func(res *loadgen.Result) error {
		printRecovery(res)
		if capacity > 0 && res.NIPTMisses == 0 {
			fmt.Println("the cache held the whole working set: no refills were ever paid")
		}
		return nil
	}, o)
}

// scenarioChaos runs the serving trial under a seeded node crash–restart
// schedule (cluster.CrashPlan): whole nodes power off at lockstep
// barriers, peers fail fast to a typed DeliveryError, and the rebooted
// node's serving complement respawns from the host-memory progress
// state. The availability readout — crashes, downtime, dip depth,
// time-to-recover — prints with the SLO table; the schedule must fire
// and every message must be delivered or failed typed.
func scenarioChaos(seed uint64, nodes int, rate float64, o *obs) error {
	seed = seedOr(seed, experiments.ChaosSeed)
	tc := loadgen.TrialConfig{
		Config:        loadgen.Config{Nodes: nodes, Seed: seed, Rate: rate},
		RetxTimeout:   6_000,
		RelMaxRetries: 3,
		Crash: cluster.CrashPlan{Seed: seed, MTBF: 400_000,
			MTTR: 150_000, FirstAt: 150_000, MaxCrashes: 2},
	}
	return scenarioTrial(tc, func(res *loadgen.Result) string {
		return fmt.Sprintf("# crash–restart chaos (seed %#x): %d nodes, %d messages under a seeded crash schedule",
			seed, res.Cfg.Nodes, res.Messages)
	}, func(res *loadgen.Result) error {
		if res.Crashes == 0 {
			return fmt.Errorf("the crash schedule never fired inside the trial's span; offer more load (-rate, default messages) or rerun with another -seed")
		}
		if res.Delivered+res.Failed != res.Messages {
			return fmt.Errorf("accounting across crashes: %d delivered + %d failed != %d offered",
				res.Delivered, res.Failed, res.Messages)
		}
		fmt.Printf("crash ledgers: %d B abandoned on crashed senders, %d B crash-dropped on the wire/boards\n",
			res.CrashAbandonedBytes, res.CrashDroppedBytes)
		return nil
	}, o)
}

// seedOr remaps the -seed default (the faults scenario's seed) to the
// scenario's own default seed.
func seedOr(seed, def uint64) uint64 {
	if seed == experiments.FaultSeed {
		return def
	}
	return seed
}

// scenarioFuzz runs seeded randomized scenarios under simcheck's
// online invariant auditor — the command-line face of the deterministic
// simulation checker. A failure prints the violation list, the event
// trail and the one-command go-test repro.
func scenarioFuzz(seed uint64, count, workers int) error {
	seed = seedOr(seed, 1)
	if count < 1 {
		count = 1
	}
	fmt.Printf("# simcheck fuzz: %d seed(s) starting at %d, auditing I1–I4 every window\n", count, seed)
	// Each seed is an independent simulation, so the sweep fans out over
	// host workers; reports come back (and print) in seed order.
	failures := 0
	for _, rep := range simcheck.Sweep(seed, count, workers, simcheck.Options{}) {
		fmt.Println(rep)
		if rep.Failed() {
			failures++
		}
	}
	if failures > 0 {
		return fmt.Errorf("%d of %d seeds violated an invariant", failures, count)
	}
	return nil
}

func scenarioPaging(size int, o *obs) error {
	fmt.Printf("# UDMA sends while a pager thrashes memory (I2/I4 at work)\n")
	n := machine.New(0, machine.Config{RAMFrames: 48, Metrics: o.registry()})
	o.setCosts(n.Costs)
	buf := device.NewBuffer("buf", 8, 4, 0)
	n.AttachDevice(buf, 0)
	defer n.Kernel.Shutdown()

	var sendErr error
	n.Kernel.Spawn("sender", func(p *kernel.Proc) {
		d, err := udmalib.Open(p, buf, true)
		if err != nil {
			sendErr = err
			return
		}
		va, _ := p.Alloc(size)
		p.WriteBuf(va, workload.Payload(size, 5))
		for m := 0; m < 32 && sendErr == nil; m++ {
			sendErr = d.Send(va, 0, size)
		}
	})
	n.Kernel.Spawn("pager", workload.Pager(60, 40_000_000))
	if err := n.Kernel.Run(sim.Forever); err != nil {
		return err
	}
	if sendErr != nil {
		return sendErr
	}
	ks := n.Kernel.Stats()
	fmt.Printf("evictions: %d, page-ins: %d, I4 guard skips: %d, proxy faults: %d, pins: %d\n",
		ks.Evictions, ks.PageIns, ks.EvictionStallsI4, ks.ProxyFaults, ks.Pins)
	fmt.Println("no page was ever pinned for UDMA; the replacement sweep simply avoided in-flight frames")
	return nil
}

// scenarioContention drives many time-sliced senders through one UDMA
// controller so its request queue actually fills: transfer latency
// (enqueue to completion) and queue wait become distributions worth
// looking at, which is exactly what the telemetry histograms are for.
func scenarioContention(senders, size int, o *obs) error {
	const messages = 64
	fmt.Printf("# %d time-sliced senders push %d × %d B messages through one UDMA controller\n",
		senders, messages, size)
	n := machine.New(0, machine.Config{
		Kernel:  kernel.Config{Quantum: 2000},
		Metrics: o.registry(),
	})
	o.setCosts(n.Costs)
	if o.traceOut != "" {
		tr := trace.New(n.Clock, 4096)
		n.UDMA.SetTracer(tr)
		n.Kernel.SetTracer(tr)
		o.addSource("node0", tr)
	}
	buf := device.NewBuffer("buf", uint32(senders+1), 4, 0)
	n.AttachDevice(buf, 0)
	defer n.Kernel.Shutdown()

	errs := make([]error, senders)
	retries := make([]uint64, senders)
	for i := 0; i < senders; i++ {
		i := i
		n.Kernel.Spawn(fmt.Sprintf("p%d", i), func(p *kernel.Proc) {
			d, err := udmalib.Open(p, buf, true)
			if err != nil {
				errs[i] = err
				return
			}
			va, _ := p.Alloc(size)
			p.WriteBuf(va, workload.Payload(size, byte(i+1)))
			for m := 0; m < messages; m++ {
				if err := d.Send(va, uint32(i)<<addr.PageShift, size); err != nil {
					errs[i] = err
					return
				}
			}
			retries[i] = d.Stats().Retries
		})
	}
	if err := n.Kernel.Run(sim.Forever); err != nil {
		return err
	}
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("process %d: %w", i, err)
		}
	}
	var totalRetries uint64
	for _, r := range retries {
		totalRetries += r
	}
	us := n.UDMA.Stats()
	ks := n.Kernel.Stats()
	fmt.Printf("%d transfers completed in %.0f µs: %d retries, %d context switches, %d Invals\n",
		us.Completions, n.Micros(n.Clock.Now()), totalRetries,
		ks.ContextSwitches, ks.Invals)
	if o.registry() == nil {
		fmt.Println("(rerun with -metrics to see the latency distribution)")
	}
	return nil
}
