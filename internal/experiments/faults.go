package experiments

import (
	"errors"
	"fmt"

	"shrimp/internal/core"
	"shrimp/internal/device"
	"shrimp/internal/kernel"
	"shrimp/internal/machine"
	"shrimp/internal/sim"
	"shrimp/internal/stats"
	"shrimp/internal/sweep"
	"shrimp/internal/udmalib"
	"shrimp/internal/workload"
)

// FaultSeed is the default RNG seed for the fault-injection sweep; the
// shrimpsim scenario overrides it from the command line.
const FaultSeed = 0x5eed_fa17

// faultTrial is one point of the fault-injection sweep: messages sent
// through SendRetry against a device that rejects initiations and fails
// completions at the given per-transfer probability.
type faultTrial struct {
	Rate      float64
	Messages  int
	Delivered int
	Exhausted int

	Rejected uint64 // device-injected validation rejections
	Failed   uint64 // device-injected completion failures
	Retries  uint64 // library resend attempts beyond the first
	Backoffs uint64 // backoff waits between attempts

	EngineFailures uint64 // failed completions the engine counted
	CtrlFailures   uint64 // accepted-then-failed transfers (controller)

	Elapsed sim.Cycles
	// RecoveryCycles sums, over messages that needed at least one
	// resend but were delivered, the time beyond a clean send.
	RecoveryCycles sim.Cycles
	Recovered      int

	Costs *sim.CostModel
}

func (t *faultTrial) goodput() float64 {
	return mbps(t.Costs, t.Delivered*faultMsgBytes, t.Elapsed)
}

const (
	faultMsgBytes = 4096
	faultMsgCount = 48
)

// runFaultTrial sends faultMsgCount one-page messages through a faulty
// device injecting rejections and completion failures at probability
// rate each, recovering with udmalib.SendRetry. cleanSend is the
// per-message time measured at rate zero (pass 0 when measuring it).
func runFaultTrial(rate float64, seed uint64, cleanSend sim.Cycles) (*faultTrial, error) {
	n := machine.New(0, machine.Config{
		RAMFrames: 96,
		UDMA:      core.Config{QueueDepth: 4},
	})
	inner := device.NewBuffer("buf", 8, 4, 0)
	faulty := device.NewFaulty(inner)
	faulty.InjectRates(sim.NewRNG(seed), rate, rate)
	n.AttachDevice(faulty, 0)
	defer n.Kernel.Shutdown()

	t := &faultTrial{Rate: rate, Messages: faultMsgCount, Costs: n.Costs}
	err := runOn(n, "sender", func(p *kernel.Proc) error {
		d, err := udmalib.Open(p, faulty, true)
		if err != nil {
			return err
		}
		va, err := p.Alloc(faultMsgBytes)
		if err != nil {
			return err
		}
		if err := p.WriteBuf(va, workload.Payload(faultMsgBytes, 3)); err != nil {
			return err
		}
		pol := udmalib.DefaultRetryPolicy()
		start := p.Now()
		for i := 0; i < faultMsgCount; i++ {
			before := d.Stats()
			sendStart := p.Now()
			err := d.SendRetry(va, 0, faultMsgBytes, pol)
			switch {
			case err == nil:
				t.Delivered++
				if d.Stats().Failures > before.Failures {
					// Delivered despite at least one failed attempt:
					// the extra time is the recovery cost.
					t.Recovered++
					if extra := p.Now() - sendStart - cleanSend; extra > 0 {
						t.RecoveryCycles += extra
					}
				}
			case errors.As(err, new(*udmalib.RetryExhaustedError)):
				t.Exhausted++
			default:
				return err
			}
		}
		t.Elapsed = p.Now() - start
		st := d.Stats()
		t.Retries, t.Backoffs = st.Retries, st.Backoffs
		return nil
	})
	if err != nil {
		return nil, err
	}
	t.Rejected, t.Failed = faulty.Injected()
	t.EngineFailures, _ = n.Engine.FailStats()
	t.CtrlFailures = n.UDMA.Stats().Failures
	return t, nil
}

// faultFingerprint condenses a trial into the tuple two same-seed runs
// must reproduce exactly.
func faultFingerprint(t *faultTrial) string {
	return fmt.Sprintf("d=%d x=%d rej=%d fail=%d bk=%d el=%d rec=%d",
		t.Delivered, t.Exhausted, t.Rejected, t.Failed, t.Backoffs, t.Elapsed, t.RecoveryCycles)
}

// RunFaultInjection is E12: graceful recovery from injected hardware
// faults. The paper's termination discussion anticipates "memory system
// errors that the DMA hardware cannot handle transparently"; this
// experiment injects initiation rejections and completion-time failures
// at a swept per-transfer probability and measures what the recovery
// machinery (status-word error bits, the library's bounded
// retry-with-backoff) preserves: every fault is either recovered or
// reported, goodput degrades but survives, and the whole run — faults
// included — is deterministic under a fixed seed.
func RunFaultInjection() (*Result, error) {
	return RunFaultInjectionSeeded(FaultSeed)
}

// RunFaultInjectionSeeded is RunFaultInjection under a caller-chosen
// seed (the shrimpsim faults scenario takes it from the command line).
func RunFaultInjectionSeeded(seed uint64) (*Result, error) {
	res := &Result{
		ID:    "e12",
		Title: "Fault injection: per-transfer error recovery",
		Paper: "termination for 'memory system errors that the DMA hardware cannot handle transparently' (Section 6)",
	}

	clean, err := runFaultTrial(0, seed, 0)
	if err != nil {
		return nil, fmt.Errorf("clean run: %w", err)
	}
	cleanSend := clean.Elapsed / sim.Cycles(clean.Messages)

	rates := []float64{0, 0.01, 0.05, 0.1, 0.2}
	tbl := stats.NewTable("Recovery under injected faults (48 × 4 KB messages)",
		"fault rate", "delivered", "given up", "injected rej/fail",
		"backoffs", "goodput MB/s", "mean recovery µs")
	// One independent single-node machine per rate: fan the sweep out
	// across workers, keep the table in rate order.
	type trialOut struct {
		t   *faultTrial
		err error
	}
	outs := sweep.Run(len(rates), sweepWorkers, func(i int) trialOut {
		t, err := runFaultTrial(rates[i], seed, cleanSend)
		return trialOut{t, err}
	})
	var trials []*faultTrial
	for i, out := range outs {
		if out.err != nil {
			return nil, fmt.Errorf("rate %.2f: %w", rates[i], out.err)
		}
		t := out.t
		trials = append(trials, t)
		recovery := "-"
		if t.Recovered > 0 {
			recovery = fmt.Sprintf("%.1f", t.Costs.Micros(t.RecoveryCycles)/float64(t.Recovered))
		}
		tbl.AddRow(fmt.Sprintf("%.2f", rates[i]),
			fmt.Sprintf("%d/%d", t.Delivered, t.Messages),
			fmt.Sprintf("%d", t.Exhausted),
			fmt.Sprintf("%d/%d", t.Rejected, t.Failed),
			fmt.Sprintf("%d", t.Backoffs),
			fmt.Sprintf("%.1f", t.goodput()),
			recovery)
	}
	res.Tables = append(res.Tables, tbl)

	series := &stats.Series{Name: "goodput vs fault rate", XLabel: "per-transfer fault probability", YLabel: "MB/s"}
	for _, t := range trials {
		series.Add(t.Rate, t.goodput())
	}
	res.Series = append(res.Series, series)

	zero, worst := trials[0], trials[len(trials)-1]
	res.check("zero rate injects nothing and delivers everything",
		zero.Rejected == 0 && zero.Failed == 0 && zero.Delivered == zero.Messages,
		"rej=%d fail=%d delivered=%d/%d", zero.Rejected, zero.Failed, zero.Delivered, zero.Messages)
	var faulted, accounted bool
	for _, t := range trials[1:] {
		if t.Rejected+t.Failed > 0 {
			faulted = true
		}
		if t.Delivered+t.Exhausted == t.Messages {
			accounted = true
		} else {
			accounted = false
			break
		}
	}
	res.check("faults actually fired at nonzero rates", faulted, "")
	res.check("every message delivered or reported (no hangs, no panics)", accounted,
		"worst rate: %d delivered + %d given up of %d", worst.Delivered, worst.Exhausted, worst.Messages)
	res.check("goodput degrades under faults but survives",
		worst.goodput() < zero.goodput() && worst.goodput() > 0,
		"%.1f MB/s at rate %.2f vs %.1f MB/s clean", worst.goodput(), worst.Rate, zero.goodput())
	res.check("recovery observed (failed attempts later delivered)",
		worst.Recovered > 0, "%d messages recovered at rate %.2f", worst.Recovered, worst.Rate)

	// Determinism: the sweep's fault pattern is a pure function of the
	// seed, so reruns must reproduce the worst-rate trial bit-exactly.
	again, err := Prove(func(int) (*faultTrial, error) {
		return runFaultTrial(worst.Rate, seed, cleanSend)
	}, faultFingerprint, 1)
	if err != nil {
		return nil, err
	}
	fp1, fp2 := faultFingerprint(worst), faultFingerprint(again)
	res.check("same seed reproduces the run exactly", fp1 == fp2, "%s vs %s", fp1, fp2)
	res.metric("clean_goodput_mbps", zero.goodput())
	res.metric("worst_rate_goodput_mbps", worst.goodput())
	res.metric("worst_rate_delivered", float64(worst.Delivered))
	res.metric("worst_rate_recovered", float64(worst.Recovered))
	res.Notes = append(res.Notes,
		fmt.Sprintf("seed %#x; retry policy: %d attempts, backoff 256 cycles doubling", seed, udmalib.DefaultRetryPolicy().MaxAttempts))
	return res, nil
}
