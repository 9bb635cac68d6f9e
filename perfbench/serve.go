package main

import (
	"fmt"
	"runtime"
	"time"

	"shrimp/internal/cluster"
	"shrimp/internal/interconnect"
	"shrimp/internal/kernel"
	"shrimp/internal/loadgen"
	"shrimp/internal/machine"
	"shrimp/internal/nic"
)

// serve-mesh32: open-loop seeded Poisson arrivals in loadgen's default
// 6:3:1 class mix on a 32-node mesh, at a fixed rate below the knee, on
// a clean wire with an unbounded NIPT. It loads the lockstep barrier
// and its merge, fabric routing and link contention, the loadgen
// driver, and the set-up of 32 nodes; reliability and NIPT misses stay
// at zero.
func serveMesh32(tc trialConfig) loadgen.TrialConfig {
	return withTrialDefaults(loadgen.TrialConfig{
		Config: loadgen.Config{
			Nodes:    32,
			Seed:     tc.seed,
			Rate:     1000,
			Messages: tc.size(6000, 200),
			Flows:    8192,
		},
		Workers: tc.workers,
	})
}

// churn-lossy: 8 nodes in churn mode (48 live flows of ~2 messages
// each, one NIPT entry per flow) against a bounded NIPT of 24 entries
// with refill jitter and idle-state reclaim, over a lossy wire. The
// same nic layer as serve-mesh32, used the other way: NIPT refills,
// retransmits, resequencing and duplicate drops instead of streaming.
func churnLossy(tc trialConfig) loadgen.TrialConfig {
	return withTrialDefaults(loadgen.TrialConfig{
		Config: loadgen.Config{
			Nodes:       8,
			Seed:        tc.seed,
			Rate:        400,
			Messages:    tc.size(3000, 200),
			Churn:       true,
			ActiveFlows: 48,
			MsgsPerFlow: 2,
		},
		Workers:          tc.workers,
		NIPTCapacity:     24,
		NIPTRefillJitter: 64,
		IdleReclaimAge:   150_000,
		Fault: interconnect.FaultPlan{
			Seed: tc.seed ^ 0x10_55, DropRate: 0.05, DupRate: 0.02,
			CorruptRate: 0.02, DelayRate: 0.05,
		},
	})
}

// withTrialDefaults spells out the TrialConfig defaults RunTrial would
// apply, so the traced path below builds the identical cluster.
func withTrialDefaults(tc loadgen.TrialConfig) loadgen.TrialConfig {
	tc.Window = 2000
	tc.RAMFrames = 128
	tc.Limit = 2_000_000_000
	tc.RetxTimeout = 100_000
	return tc
}

// clusterConfig is the cluster loadgen.RunTrial builds for tc. The
// traced run's fingerprint matching the untraced one's proves the two
// stay the same.
func clusterConfig(tc loadgen.TrialConfig, plan *loadgen.Plan) cluster.Config {
	return cluster.Config{
		Nodes:    tc.Nodes,
		Topology: tc.Topology,
		Machine: machine.Config{
			RAMFrames: tc.RAMFrames,
			Kernel:    kernel.Config{Quantum: 2000},
		},
		NIC: nic.Config{
			NIPTPages:        plan.NIPTEntries(),
			PIOWindow:        true,
			NIPTCapacity:     tc.NIPTCapacity,
			NIPTRefillJitter: tc.NIPTRefillJitter,
			NIPTSeed:         tc.Seed,
			Reliability: nic.ReliabilityConfig{
				Enabled:        true,
				RetxTimeout:    tc.RetxTimeout,
				MaxRetries:     tc.RelMaxRetries,
				IdleReclaimAge: tc.IdleReclaimAge,
			},
		},
		Crash:           tc.Crash,
		Window:          tc.Window,
		Workers:         tc.Workers,
		FaultInject:     tc.FaultInject,
		FaultSeed:       tc.Seed,
		FaultRejectRate: tc.FaultRejectRate,
		FaultFailRate:   tc.FaultFailRate,
		Fault:           tc.Fault,
	}
}

// runLoadgen runs one loadgen trial. Normally the trial is
// loadgen.RunTrial, and set-up is timed on its own beforehand by making
// the construction calls RunTrial makes (BuildPlan, cluster.New,
// NewDriver) and discarding the cluster. To trace or sample the heap,
// the benchmark makes every call RunTrial makes itself.
func runLoadgen(tc loadgen.TrialConfig, ttc trialConfig) (*trialOut, error) {
	rec := ttc.rec
	var (
		setup, wall time.Duration
		use         memUse
		res         *loadgen.Result
		layer       map[string]float64
		err         error
	)
	if !ttc.manual() {
		t0 := time.Now()
		plan := loadgen.BuildPlan(tc.Config)
		cl := cluster.New(clusterConfig(tc, plan))
		loadgen.NewDriver(plan, cl, loadgen.DriverOptions{Retry: tc.Retry})
		setup = time.Since(t0)
		discard(cl)
		runtime.GC()

		start := readMem()
		t1 := time.Now()
		res, err = loadgen.RunTrial(tc)
		wall = time.Since(t1)
		use = readMem().since(start)
	} else {
		start := readMem()
		t0 := time.Now()
		var (
			plan *loadgen.Plan
			cl   *cluster.Cluster
			dr   *loadgen.Driver
		)
		rec.do("setup.plan", func() { plan = loadgen.BuildPlan(tc.Config) })
		rec.do("setup.cluster_new", func() { cl = cluster.New(clusterConfig(tc, plan)) })
		rec.do("setup.new_driver", func() { dr = loadgen.NewDriver(plan, cl, loadgen.DriverOptions{Retry: tc.Retry}) })
		setup = time.Since(t0)
		ttc.heap.sample()
		err = drive(cl, tc.Limit, ttc, dr.PublishControl, dr.Err)
		if err == nil {
			rec.do("loadgen.finish", func() { res, err = dr.Finish() })
		}
		wall = time.Since(t0)
		use = readMem().since(start)
		ttc.heap.sample()
		layer = layerCounts(cl)
		cl.Shutdown()
	}
	if err != nil {
		return nil, err
	}
	if res.Delivered+res.Failed != res.Messages {
		return nil, fmt.Errorf("%d delivered + %d failed != %d offered", res.Delivered, res.Failed, res.Messages)
	}
	if res.OrderViolations != 0 {
		return nil, fmt.Errorf("%d per-flow FIFO order violations", res.OrderViolations)
	}
	if layer != nil {
		layer["loadgen.max_queue_depth"] = float64(res.MaxQueueDepth)
	}
	costs := machine.SHRIMP1996()
	mid := res.Classes[loadgen.ClassMid]
	return &trialOut{
		setup:       setup,
		wall:        wall,
		mem:         use,
		attempted:   res.Messages,
		delivered:   res.Delivered,
		goodputMBs:  float64(res.DeliveredBytes) / costs.Seconds(res.Elapsed) / 1e6,
		p50us:       costs.Micros(1) * mid.P50,
		p99us:       costs.Micros(1) * mid.P99,
		fingerprint: res.Fingerprint(),
		layer:       layer,
	}, nil
}

// discard tears down a cluster whose processes never ran.
// Kernel.Shutdown kills a process that has not started by starting it,
// and one that blocks before it reaches a kill point (a receiver's first
// Sleep) stays parked with its goroutine and the whole cluster still
// reachable. Shutting down again until every process has exited
// releases them.
func discard(cl *cluster.Cluster) {
	for _, n := range cl.Nodes {
		for !n.Kernel.AllExited() {
			n.Kernel.Shutdown()
		}
	}
	cl.Shutdown()
}
