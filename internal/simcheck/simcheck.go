// Package simcheck is the deterministic simulation checker: it
// generates randomized multi-node scenarios from a seed — interleaved
// UDMA transfers, context switches, paging pressure, faulty-device
// injection, PIO traffic, process kills — and audits the paper's four
// kernel invariants (plus end-to-end byte conservation and monotonic
// simulated time) after every lockstep window. Because every source of
// nondeterminism flows from sim.RNG and the event clocks, any failure
// reproduces exactly from its seed:
//
//	go test ./internal/simcheck -run TestSimCheck -simcheck.seed=N
//
// The auditor observes only: it reads kernel frame tables, page tables
// and controller reference counts between windows (when no process is
// mid-instruction) and never advances a clock, so checked and
// unchecked runs are cycle-identical.
package simcheck

import (
	"fmt"
	"strings"

	"shrimp/internal/kernel"
	"shrimp/internal/sim"
	"shrimp/internal/sweep"
	"shrimp/internal/telemetry"
	"shrimp/internal/trace"
)

// Violation is one detected invariant breach.
type Violation struct {
	Node      int
	Step      int    // lockstep window index (-1: before/after stepping)
	Invariant string // "I1".."I4", "conservation", "memory", "refcount", ...
	Detail    string
}

func (v Violation) String() string {
	return fmt.Sprintf("node %d step %d: %s: %s", v.Node, v.Step, v.Invariant, v.Detail)
}

// Options tunes a checker run.
type Options struct {
	// Hooks deliberately break the kernel under test — the checker's own
	// tests use them to prove the auditor catches each violation class.
	Hooks kernel.TestHooks
	// Override mutates the seed-derived scenario configuration before
	// the cluster is built (bias tests toward specific pressure).
	Override func(*ScenarioConfig)
	// MaxViolations stops the run after this many findings (default 8);
	// one broken invariant tends to trip the auditor every window.
	MaxViolations int
	// Workers sets cluster.Config.Workers: how many host goroutines run
	// node windows in parallel. Any value yields the same fingerprint,
	// violations, metrics and traces as Workers=1 — the tentpole
	// invariant TestSimCheckWorkerEquivalence holds over seeds.
	Workers int
	// Metrics attaches a telemetry registry to the scenario's cluster
	// (nil = instruments off). Used by the parallel-determinism tests to
	// compare snapshots across worker counts.
	Metrics *telemetry.Registry
}

// Report is the outcome of one seeded run.
type Report struct {
	Seed       uint64
	Cfg        ScenarioConfig
	Steps      int // lockstep windows executed
	Violations []Violation
	// Trail is the event-ring slice of TrailNode captured at the first
	// violation — the compact repro context a builder reads first.
	Trail     []trace.Event
	TrailNode int
	// Fingerprint is the final cluster.Digest with the scratch devices'
	// counts folded in; two runs of the same seed must produce the same
	// fingerprint.
	Fingerprint uint64
	// TraceSummaries holds each node's trace.Summary at end of run —
	// per-kind lifetime event counts, compared across worker counts by
	// the parallel-determinism tests.
	TraceSummaries []string
}

// Failed reports whether any violation was detected.
func (r *Report) Failed() bool { return len(r.Violations) > 0 }

// ReproCommand is the one-command reproduction for this seed.
func (r *Report) ReproCommand() string {
	return fmt.Sprintf("go test ./internal/simcheck -run TestSimCheck -simcheck.seed=%d", r.Seed)
}

// String renders the report; for failures it includes every violation,
// the event trail and the repro command.
func (r *Report) String() string {
	var b strings.Builder
	if !r.Failed() {
		fmt.Fprintf(&b, "simcheck seed %d: ok (%d nodes, %d steps, fp %016x)",
			r.Seed, r.Cfg.Nodes, r.Steps, r.Fingerprint)
		return b.String()
	}
	fmt.Fprintf(&b, "simcheck seed %d: FAIL (%d violations in %d steps)\n",
		r.Seed, len(r.Violations), r.Steps)
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "  %s\n", v)
	}
	if len(r.Trail) > 0 {
		fmt.Fprintf(&b, "trail (node %d, last %d events):\n", r.TrailNode, len(r.Trail))
		for _, e := range r.Trail {
			fmt.Fprintf(&b, "  %s\n", e)
		}
	}
	fmt.Fprintf(&b, "repro: %s", r.ReproCommand())
	return b.String()
}

// Run executes one seeded scenario under the online auditor and
// returns its report.
func Run(seed uint64, opts Options) *Report {
	if opts.MaxViolations <= 0 {
		opts.MaxViolations = 8
	}
	s := buildScenario(seed, opts)
	defer s.cl.Shutdown()

	var horizon sim.Cycles
	step := 0
	for ; ; step++ {
		// Re-base on the furthest-behind clock, mirroring cluster.Run:
		// an overshooting processor is caught up in one round instead of
		// ceil(overshoot/window) no-op windows (which used to eat into
		// the MaxSteps liveness budget doing nothing).
		base := s.cl.MinNow()
		if horizon > base {
			base = horizon
		}
		horizon = base + s.cfg.Window
		s.step = step
		s.runKills(step)
		s.publishControl()
		s.inStep = true
		progress, err := s.cl.Step(horizon)
		s.inStep = false
		s.collect()
		if err != nil {
			s.fail(0, "runtime", err.Error())
		}
		s.audit(step)
		if s.serve != nil {
			if err := s.serve.Err(); err != nil {
				s.fail(0, "serve-error", err.Error())
				break
			}
		}
		if s.capped() {
			break
		}
		if s.cl.AllIdle() {
			s.cl.DrainHardware()
			s.drained = true
			s.audit(step)
			break
		}
		s.maybeStopReceivers()
		if step >= s.cfg.MaxSteps {
			s.fail(0, "liveness", fmt.Sprintf("no completion after %d windows", step))
			break
		}
		if !progress {
			// Nothing ran and nothing is parked mid-flight: a round that
			// makes no progress is a deadlock exactly when no node has a
			// future event or overshot clock to wake to.
			next := s.cl.NextRunnable(horizon)
			if next == sim.Forever {
				s.fail(0, "liveness", "cluster deadlock: no progress and no pending events")
				break
			}
			if next > horizon {
				horizon = next - s.cfg.Window // re-based past next at loop top
			}
		}
	}
	s.finalVerify()

	summaries := make([]string, len(s.tracers))
	for i, tr := range s.tracers {
		summaries[i] = tr.Summary()
	}
	return &Report{
		Seed:           seed,
		Cfg:            s.cfg,
		Steps:          step + 1,
		Violations:     s.violations,
		Trail:          s.trail,
		TrailNode:      s.trailNode,
		Fingerprint:    s.fingerprint(),
		TraceSummaries: summaries,
	}
}

// Sweep runs count seeded scenarios (seeds first..first+count-1), up to
// workers at a time. Every run builds its own cluster, so runs share
// nothing and the parallelism is trivially safe; reports come back in
// seed order, so sweep output is byte-identical at any worker count.
// (opts.Workers parallelism *within* each run composes freely with
// this, but for throughput sweeps prefer one worker per seed.)
func Sweep(first uint64, count, workers int, opts Options) []*Report {
	return sweep.Run(count, workers, func(i int) *Report {
		return Run(first+uint64(i), opts)
	})
}

// fingerprint is the cluster digest with every node's scratch-device
// transfer counts folded in (the scratch devices sit outside the
// cluster); any divergence between two runs of one seed shows up here.
func (s *scenario) fingerprint() uint64 {
	counts := make([][2]uint64, len(s.scratch))
	for i, d := range s.scratch {
		counts[i][0], counts[i][1] = d.Counts()
	}
	return s.cl.Digest(counts)
}
