// Command perfbench is the simulator's benchmark. It runs one workload
// repeatedly for a fixed time from a seed, checks every trial's output,
// and prints the end-to-end metrics (or, with -trace 1, the per-layer
// metrics) ending with one JSON line. See README.md.
package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"time"
)

// workload is one input set the benchmark runs.
type workload struct {
	name string
	// workers is the cluster's host worker count (capped at nproc).
	workers int
	run     func(trialConfig) (*trialOut, error)
	// crossWorkers re-runs the trial at another worker count after the
	// measurement and requires the same simulated results.
	crossWorkers bool
}

var workloads = []workload{
	{name: "udma-pair", workers: 1, run: runPair},
	{name: "serve-mesh32", workers: 2, crossWorkers: true, run: func(tc trialConfig) (*trialOut, error) {
		return runLoadgen(serveMesh32(tc), tc)
	}},
	{name: "churn-lossy", workers: 2, run: func(tc trialConfig) (*trialOut, error) {
		return runLoadgen(churnLossy(tc), tc)
	}},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// defaultSeed is the seed whose fingerprints are recorded in
// fingerprints.json; a run at it must reproduce them exactly.
const defaultSeed = 1

// profileHz is the traced trials' CPU sampling rate.
const profileHz = 1000

// heapEvery is how many lockstep barriers pass between live-heap
// samples in the heap-sampling trial.
const heapEvery = 256

//go:embed fingerprints.json
var fingerprintsJSON []byte

// options is one benchmark invocation.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	outDir   string  // where a traced run writes its spans
	scale    float64 // trial size; 1 except in the smoke test
}

// report is the invocation's result: the final JSON line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: udma-pair, serve-mesh32 or churn-lossy")
	flag.Uint64Var(&o.seed, "seed", defaultSeed, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 30, "measurement time per run")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.StringVar(&o.outDir, "outdir", ".bench_build", "directory for a traced run's span file")
	flag.Parse()
	o.trace = trace == 1
	o.scale = 1
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	if _, ok := findWorkload(o.workload); !ok || o.seconds < 0 || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q)\n", o.workload)
		flag.Usage()
		os.Exit(2)
	}
	rep, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	line, jerr := json.Marshal(rep)
	if jerr != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", jerr)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

// run measures one workload and writes the human-readable lines to w.
// The returned report is what the last output line carries; err says
// why it is not correct.
func run(o options, w io.Writer) (*report, error) {
	wl, _ := findWorkload(o.workload)
	workers := wl.workers
	if n := runtime.NumCPU(); workers > n {
		workers = n
	}
	tc := trialConfig{seed: o.seed, scale: o.scale, workers: workers}
	rep := &report{Metrics: map[string]metric{}}

	ctx := map[string]any{
		"workload": o.workload, "seed": o.seed, "trace": o.trace,
		"host_cpus": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "workers": workers, "seconds": o.seconds,
	}
	fmt.Fprintf(w, "context %s\n", mustJSON(ctx))

	// One warm-up trial fills the Go runtime's caches and pools; its
	// results are the reference every later trial must reproduce.
	ref, err := trial(wl, tc)
	if err != nil {
		return failRun(rep, fmt.Errorf("warm-up trial: %w", err))
	}
	var checks []error
	same := func(what string, t *trialOut, err error) {
		switch {
		case err != nil:
			checks = append(checks, fmt.Errorf("%s: %w", what, err))
		case t.fingerprint != ref.fingerprint || t.simValues() != ref.simValues():
			checks = append(checks, fmt.Errorf("%s: fingerprint %016x, the warm-up's %016x", what, t.fingerprint, ref.fingerprint))
		}
	}

	var plain, traced []*trialOut
	var samples []stackSample
	var rec *recorder
	if o.trace {
		rec = newRecorder()
	}
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for len(checks) == 0 && (len(plain) < 3 || time.Now().Before(deadline)) {
		t, err := trial(wl, tc)
		if same(fmt.Sprintf("trial %d", len(plain)), t, err); err != nil {
			break
		}
		plain = append(plain, t)
		if !o.trace {
			continue
		}
		t, s, err := tracedTrial(wl, tc, rec)
		if same(fmt.Sprintf("traced trial %d", len(traced)), t, err); err != nil {
			break
		}
		traced = append(traced, t)
		samples = append(samples, s...)
	}
	if wl.crossWorkers {
		xtc := tc
		xtc.workers = 3 - workers // the other of 1 and 2
		t, err := trial(wl, xtc)
		same(fmt.Sprintf("%d-worker trial", xtc.workers), t, err)
	}
	var peakHeap uint64
	if !o.trace {
		htc := tc
		htc.heap = &heapSampler{every: heapEvery}
		t, err := trial(wl, htc)
		same("heap-sampling trial", t, err)
		peakHeap = htc.heap.peak
	}
	if o.seed == defaultSeed && o.scale == 1 {
		if err := checkRecorded(o.workload, ref.fingerprint); err != nil {
			checks = append(checks, err)
		}
	}
	fmt.Fprintf(w, "fingerprint %016x trials %d traced %d\n", ref.fingerprint, len(plain), len(traced))

	for _, t := range plain {
		rep.Attempted += t.attempted
		rep.Failed += t.attempted - t.delivered
	}
	if rep.Failed > 0 {
		checks = append(checks, fmt.Errorf("%d of %d messages not delivered", rep.Failed, rep.Attempted))
	}
	if len(checks) > 0 {
		return failRun(rep, errors.Join(checks...))
	}

	defs := endToEnd
	if o.trace {
		defs = perLayer
		layerMetrics(rep, plain, traced, samples)
		ctx["cpu_samples"] = len(samples)
		if err := writeTrace(o, rec, ctx); err != nil {
			return failRun(rep, err)
		}
	} else {
		e2eMetrics(rep, ref, plain, peakHeap)
	}
	for _, d := range defs {
		m := rep.Metrics[d.Name]
		fmt.Fprintf(w, "metric %-34s %14.6g %-6s %s is better\n", d.Name, m.Value, d.Unit, d.Better)
	}
	rep.Correct = true
	return rep, nil
}

// failRun marks a whole run failed: a failed check fails every message
// it attempted.
func failRun(rep *report, err error) (*report, error) {
	if rep.Attempted == 0 {
		rep.Attempted = 1
	}
	rep.Failed = rep.Attempted
	return rep, err
}

// tracedTrial runs one trial with spans recorded and the CPU profiled,
// returning the trial (span times folded into its layer metrics) and
// its profile samples.
func tracedTrial(wl workload, tc trialConfig, rec *recorder) (*trialOut, []stackSample, error) {
	rec.trial++
	tc.rec = rec
	var prof bytes.Buffer
	// Sample at profileHz rather than pprof's 100 Hz so one run holds
	// thousands of samples. Setting the rate first makes
	// StartCPUProfile print a harmless warning to standard error.
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, nil, err
	}
	t, err := trial(wl, tc)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, nil, err
	}
	samples, err := decodeProfile(prof.Bytes())
	if err != nil {
		return nil, nil, err
	}
	for _, k := range []string{"cluster.step", "loadgen.publish", "loadgen.finish", "setup.plan", "setup.cluster_new"} {
		t.layer[k+"_s"] = rec.sum(k)
	}
	return t, samples, nil
}

// trial runs one trial from a collected heap, so trials do not pay for
// each other's garbage.
func trial(wl workload, tc trialConfig) (*trialOut, error) {
	runtime.GC()
	return wl.run(tc)
}

// e2eMetrics fills the end-to-end metrics: host costs as medians over
// the measured trials, simulated values from the warm-up trial, which
// every other trial reproduced exactly.
func e2eMetrics(rep *report, ref *trialOut, ts []*trialOut, peakHeap uint64) {
	med := func(f func(*trialOut) float64) float64 { return medianOf(ts, f) }
	set := func(name string, v float64) {
		for _, d := range endToEnd {
			if d.Name == name {
				rep.Metrics[name] = metric{v, d.Unit}
			}
		}
	}
	set("wall_s", med(func(t *trialOut) float64 { return t.wall.Seconds() }))
	set("setup_s", med(func(t *trialOut) float64 { return t.setup.Seconds() }))
	set("msgs_per_s", med(func(t *trialOut) float64 { return float64(t.delivered) / (t.wall - t.setup).Seconds() }))
	set("alloc_mb", med(func(t *trialOut) float64 { return float64(t.mem.allocBytes) / 1e6 }))
	set("peak_heap_mb", float64(peakHeap)/1e6)
	set("sim_goodput_mb_s", ref.goodputMBs)
	set("sim_p50_us", ref.p50us)
	set("sim_p99_us", ref.p99us)
	set("delivered_ratio", float64(ref.delivered)/float64(ref.attempted))
}

// layerMetrics fills the per-layer metrics: host-time shares from the
// CPU profile of the traced trials, counts from a traced trial (they
// repeat exactly), span times as medians over the traced trials, and
// allocation counts from the untraced trials beside them.
func layerMetrics(rep *report, plain, traced []*trialOut, samples []stackSample) {
	units := map[string]string{}
	for _, d := range perLayer {
		units[d.Name] = d.Unit
		rep.Metrics[d.Name] = metric{0, d.Unit}
	}
	set := func(name string, v float64) { rep.Metrics[name] = metric{v, units[name]} }

	var total float64
	share := map[string]float64{}
	for _, s := range samples {
		share[bucketOf(s.funcs)] += float64(s.nanos)
		total += float64(s.nanos)
	}
	for _, b := range hostBuckets {
		if total > 0 {
			set("host."+b+"_frac", share[b]/total)
		}
	}
	for name, v := range traced[0].layer {
		if _, ok := units[name]; ok {
			set(name, v)
		}
	}
	for _, name := range []string{"cluster.step_s", "loadgen.publish_s", "loadgen.finish_s", "setup.plan_s", "setup.cluster_new_s"} {
		name := name
		set(name, medianOf(traced, func(t *trialOut) float64 { return t.layer[name] }))
	}
	if r := traced[0].layer["cluster.rounds"]; r > 0 {
		set("cluster.step_us_per_round", rep.Metrics["cluster.step_s"].Value/r*1e6)
	}
	set("host.mallocs", medianOf(plain, func(t *trialOut) float64 { return float64(t.mem.mallocs) }))
	set("host.gc_cycles", medianOf(plain, func(t *trialOut) float64 { return float64(t.mem.gcCycles) }))
	wallOf := func(t *trialOut) float64 { return t.wall.Seconds() }
	set("trace.overhead_frac", medianOf(traced, wallOf)/medianOf(plain, wallOf)-1)
}

// writeTrace writes the traced run's spans as Chrome trace-event JSON,
// with the run's context as metadata.
func writeTrace(o options, rec *recorder, ctx map[string]any) error {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	return rec.writeChrome(filepath.Join(o.outDir, fmt.Sprintf("trace-%s-%d.json", o.workload, o.seed)), ctx)
}

// medianOf is the median of f over trials ts.
func medianOf(ts []*trialOut, f func(*trialOut) float64) float64 {
	v := make([]float64, len(ts))
	for i, t := range ts {
		v[i] = f(t)
	}
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// checkRecorded compares a default-seed fingerprint with the one
// recorded in fingerprints.json.
func checkRecorded(workload string, fp uint64) error {
	var recorded map[string]string
	if err := json.Unmarshal(fingerprintsJSON, &recorded); err != nil {
		return fmt.Errorf("fingerprints.json: %w", err)
	}
	want, err := strconv.ParseUint(recorded[workload], 16, 64)
	if err != nil {
		return fmt.Errorf("fingerprints.json has no fingerprint for %s", workload)
	}
	if fp != want {
		return fmt.Errorf("seed %d fingerprint %016x, fingerprints.json records %016x", defaultSeed, fp, want)
	}
	return nil
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(b)
}
