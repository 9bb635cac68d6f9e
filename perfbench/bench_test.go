package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"strings"
	"testing"
)

// TestSmoke runs every workload at a tiny size, untraced and traced,
// and checks that each run is correct, reports every metric with its
// unit, and that the host-time shares of a traced run sum to 1.
func TestSmoke(t *testing.T) {
	for _, wl := range workloads {
		wl := wl
		t.Run(wl.name, func(t *testing.T) {
			rep, err := run(options{workload: wl.name, seed: 7, scale: 0.02}, io.Discard)
			if err != nil || !rep.Correct {
				t.Fatalf("untraced run: correct=%v err=%v", rep.Correct, err)
			}
			checkMetrics(t, rep, endToEnd)
			for _, d := range endToEnd {
				if rep.Metrics[d.Name].Value <= 0 {
					t.Errorf("%s = %v, want > 0", d.Name, rep.Metrics[d.Name].Value)
				}
			}

			rep, err = run(options{workload: wl.name, seed: 7, scale: 0.1, trace: true, outDir: t.TempDir()}, io.Discard)
			if err != nil || !rep.Correct {
				t.Fatalf("traced run: correct=%v err=%v", rep.Correct, err)
			}
			checkMetrics(t, rep, perLayer)
			var sum float64
			for name, m := range rep.Metrics {
				if strings.HasPrefix(name, "host.") && strings.HasSuffix(name, "_frac") {
					sum += m.Value
				}
			}
			// The shares are fractions of one sample total, so they sum
			// to 1 up to float rounding.
			if math.Abs(sum-1) > 1e-9 {
				t.Errorf("host.*_frac sum to %v, want 1 within 1e-9", sum)
			}
		})
	}
}

// checkMetrics requires exactly the metrics defs names, with their units.
func checkMetrics(t *testing.T, rep *report, defs []metricDef) {
	t.Helper()
	if len(rep.Metrics) != len(defs) {
		t.Errorf("%d metrics reported, want %d", len(rep.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := rep.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", d.Name)
		case m.Unit != d.Unit:
			t.Errorf("metric %s unit %q, want %q", d.Name, m.Unit, d.Unit)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json's workload and metric lists
// the same as the program's.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(bj.Workloads), len(workloads))
	}
	for i := range bj.Workloads {
		if i < len(workloads) && bj.Workloads[i].Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, bj.Workloads[i].Name, workloads[i].name)
		}
	}
	same := func(what string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
}

func TestBucketOf(t *testing.T) {
	for _, c := range []struct {
		stack []string // leaf first
		want  string
	}{
		{[]string{"runtime.memmove", "shrimp/internal/mem.(*Physical).Write", "shrimp/internal/dma.(*Engine).Start"}, "mem"},
		{[]string{"runtime.lock2", "runtime.chanrecv", "shrimp/internal/kernel.(*Proc).doYield"}, "sched"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcAssistAlloc", "runtime.mallocgc", "shrimp/internal/nic.(*Interface).launch"}, "gc"},
		{[]string{"runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.findRunnable", "runtime.schedule"}, "sched"},
		{[]string{"shrimp/internal/addr.PageOff", "shrimp/internal/kernel.(*Proc).Load"}, "other"},
		{[]string{"shrimp/internal/sim.(*Clock).AdvanceTo", "shrimp/internal/cluster.(*Cluster).DrainHardware"}, "sim"},
		{[]string{"runtime.mallocgc", "main.buildPairPlan"}, "other"},
	} {
		if got := bucketOf(c.stack); got != c.want {
			t.Errorf("bucketOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}
