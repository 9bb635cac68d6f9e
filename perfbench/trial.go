package main

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	"shrimp/internal/cluster"
	"shrimp/internal/sim"
)

// trialConfig is one trial's inputs.
type trialConfig struct {
	seed    uint64
	scale   float64 // 1 = the benchmark's size; the smoke test shrinks it
	workers int     // cluster host workers
	rec     *recorder
	heap    *heapSampler // non-nil for the trial that measures the live heap
}

// size scales a full-size count, keeping at least min.
func (tc trialConfig) size(full, min int) int {
	n := int(float64(full) * tc.scale)
	if n < min {
		n = min
	}
	return n
}

// manual reports whether the trial must drive the cluster itself
// rather than through cluster.Run or loadgen.RunTrial, to time or
// sample between barriers.
func (tc trialConfig) manual() bool { return tc.rec != nil || tc.heap != nil }

// trialOut is one trial's outcome: host costs, simulated results and
// the per-layer counts read back from the cluster.
type trialOut struct {
	setup, wall time.Duration
	mem         memUse

	attempted, delivered int // messages
	goodputMBs           float64
	p50us, p99us         float64
	fingerprint          uint64

	// layer holds per-layer counts and span times; nil when the trial
	// ran through an entry point that hides the cluster.
	layer map[string]float64
}

// simValues is the part of a trial the simulation alone determines.
func (o *trialOut) simValues() [5]float64 {
	return [5]float64{o.goodputMBs, o.p50us, o.p99us, float64(o.delivered), float64(o.attempted)}
}

// memUse is what a trial allocated: bytes, objects and GC cycles.
type memUse struct {
	allocBytes, mallocs, gcCycles uint64
}

func readMetrics(names ...string) []uint64 {
	s := make([]metrics.Sample, len(names))
	for i, n := range names {
		s[i].Name = n
	}
	metrics.Read(s)
	v := make([]uint64, len(s))
	for i := range s {
		v[i] = s[i].Value.Uint64()
	}
	return v
}

func readMem() memUse {
	v := readMetrics("/gc/heap/allocs:bytes", "/gc/heap/allocs:objects", "/gc/cycles/total:gc-cycles")
	return memUse{v[0], v[1], v[2]}
}

func (m memUse) since(start memUse) memUse {
	return memUse{m.allocBytes - start.allocBytes, m.mallocs - start.mallocs, m.gcCycles - start.gcCycles}
}

// heapSampler finds a trial's largest live heap by collecting garbage
// and reading the live heap after set-up, every `every` lockstep
// barriers, and at the end of the run. The points are fixed in
// simulated progress, so the peak repeats from run to run, unlike a
// reading taken whenever the collector happens to run.
type heapSampler struct {
	every, rounds int
	peak          uint64
}

func (h *heapSampler) sample() {
	if h == nil {
		return
	}
	runtime.GC()
	if live := readMetrics("/gc/heap/live:bytes")[0]; live > h.peak {
		h.peak = live
	}
}

func (h *heapSampler) barrier() {
	if h == nil {
		return
	}
	if h.rounds++; h.rounds%h.every == 0 {
		h.sample()
	}
}

// drive runs a cluster to completion through its public lockstep calls,
// the loop cluster.Run and loadgen.RunTrial run, with each call in a
// span and the heap sampled at barriers. publish (nil for none) is the
// driver's barrier control hook and errf its mid-run error check.
func drive(cl *cluster.Cluster, limit sim.Cycles, tc trialConfig, publish func(), errf func() error) error {
	rec := tc.rec
	window := cl.Window()
	var horizon sim.Cycles
	for {
		if publish != nil {
			rec.do("loadgen.publish", publish)
		}
		tc.heap.barrier()
		base := cl.MinNow()
		if horizon > base {
			base = horizon
		}
		horizon = base + window
		if horizon < base || horizon > limit {
			horizon = limit
		}
		var progress bool
		var err error
		rec.do("cluster.step", func() { progress, err = cl.Step(horizon) })
		if err != nil {
			return err
		}
		if errf != nil {
			if err := errf(); err != nil {
				return err
			}
		}
		if cl.AllIdle() {
			rec.do("cluster.drain", cl.DrainHardware)
			return nil
		}
		if horizon >= limit {
			return fmt.Errorf("still running at the %d-cycle limit", limit)
		}
		if !progress {
			var next sim.Cycles
			rec.do("cluster.next_runnable", func() { next = cl.NextRunnable(horizon) })
			if next == sim.Forever {
				return errors.New("cluster deadlocked")
			}
			if next > horizon {
				horizon = next - window
			}
		}
	}
}

// layerCounts reads every layer's counters back from a finished
// cluster. The values repeat exactly for a seed.
func layerCounts(cl *cluster.Cluster) map[string]float64 {
	var ctx, invals, walks, tlbHit, tlbMiss, inits, loads, stores, xfers, xferBytes uint64
	for _, n := range cl.Nodes {
		ks := n.Kernel.Stats()
		ctx += ks.ContextSwitches
		invals += ks.Invals
		w, _ := n.MMU.Stats()
		walks += w
		h, m := n.TLB.Stats()
		tlbHit += h
		tlbMiss += m
		if n.UDMA != nil {
			cs := n.UDMA.Stats()
			inits += cs.Initiations
			loads += cs.Loads
			stores += cs.Stores
		}
		t, b := n.Engine.Stats()
		xfers += t
		xferBytes += b
	}
	var sent, retx, lookups, hits, misses, stalls, dups, reclaims uint64
	for _, nic := range cl.NICs {
		s := nic.Stats()
		sent += s.PacketsSent
		retx += s.Retransmits
		lookups += s.NIPTLookups
		hits += s.NIPTHits
		misses += s.NIPTMisses
		stalls += s.CreditStalls
		dups += s.DupDropped
		reclaims += s.SenderReclaims + s.ReceiverReclaims
	}
	pkts, _, _, _ := cl.Backplane.Stats()
	var busiest uint64
	for _, l := range cl.Backplane.LinkStats() {
		if l.BusyCycles > busiest {
			busiest = l.BusyCycles
		}
	}
	// Every status LOAD that is not the second half of an initiation
	// (STORE then LOAD) is a completion poll.
	polls := loads - stores
	return map[string]float64{
		"kernel.ctx_switches":             float64(ctx),
		"kernel.invals":                   float64(invals),
		"mmu.tlb_hit_ratio":               ratio(tlbHit, tlbHit+tlbMiss),
		"mmu.walks":                       float64(walks),
		"core.initiations":                float64(inits),
		"udmalib.polls":                   float64(polls),
		"udmalib.polls_per_initiation":    ratio(polls, inits),
		"dma.transfers":                   float64(xfers),
		"dma.mb":                          float64(xferBytes) / 1e6,
		"nic.retx_ratio":                  ratio(retx, sent),
		"nic.nipt_hit_ratio":              ratio(hits, lookups),
		"nic.nipt_misses":                 float64(misses),
		"nic.credit_stalls":               float64(stalls),
		"nic.dup_dropped":                 float64(dups),
		"nic.reclaims":                    float64(reclaims),
		"interconnect.packets":            float64(pkts),
		"interconnect.max_link_busy_frac": ratio(busiest, uint64(cl.MaxNow())),
		"cluster.rounds":                  float64(cl.Rounds()),
	}
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
