package main

// metricDef names one reported metric: its unit and which direction is
// better. The lists below must match BENCHMARK.json's end_to_end and
// per_layer lists exactly (the smoke test checks it).
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd is what a user of the simulator sees: host cost of a trial
// (wall_s, setup_s, msgs_per_s, alloc_mb, peak_heap_mb) and what the
// modelled SHRIMP machine did (sim_*, exact for a fixed seed).
var endToEnd = []metricDef{
	{"wall_s", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"msgs_per_s", "1/s", "higher"},
	{"alloc_mb", "MB", "lower"},
	{"peak_heap_mb", "MB", "lower"},
	{"sim_goodput_mb_s", "MB/s", "higher"},
	{"sim_p50_us", "us", "lower"},
	{"sim_p99_us", "us", "lower"},
	{"delivered_ratio", "ratio", "higher"},
}

// hostBuckets are the CPU-profile buckets, one per simulator module on
// the hot path plus the Go runtime's scheduler handoff (sched) and
// garbage collector (gc). Every other package lands in other, so the
// shares sum to 1.
var hostBuckets = []string{
	"kernel", "mmu", "core", "dma", "udmalib", "mem", "bus", "nic",
	"interconnect", "cluster", "sweep", "loadgen", "sim",
	"sched", "gc", "other",
}

// perLayer is reported by a traced run only. Counts are per trial and
// repeat exactly for a seed; times are medians over the traced trials.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, b := range hostBuckets {
		defs = append(defs, metricDef{"host." + b + "_frac", "frac", "lower"})
	}
	return append(defs,
		metricDef{"host.mallocs", "count", "lower"},
		metricDef{"host.gc_cycles", "count", "lower"},
		metricDef{"kernel.ctx_switches", "count", "lower"},
		metricDef{"kernel.invals", "count", "lower"},
		metricDef{"mmu.tlb_hit_ratio", "ratio", "higher"},
		metricDef{"mmu.walks", "count", "lower"},
		metricDef{"core.initiations", "count", "lower"},
		metricDef{"udmalib.polls", "count", "lower"},
		metricDef{"udmalib.polls_per_initiation", "ratio", "lower"},
		metricDef{"dma.transfers", "count", "lower"},
		metricDef{"dma.mb", "MB", "lower"},
		metricDef{"nic.retx_ratio", "ratio", "lower"},
		metricDef{"nic.nipt_hit_ratio", "ratio", "higher"},
		metricDef{"nic.nipt_misses", "count", "lower"},
		metricDef{"nic.credit_stalls", "count", "lower"},
		metricDef{"nic.dup_dropped", "count", "lower"},
		metricDef{"nic.reclaims", "count", "lower"},
		metricDef{"interconnect.packets", "count", "lower"},
		metricDef{"interconnect.max_link_busy_frac", "frac", "lower"},
		metricDef{"cluster.rounds", "count", "lower"},
		metricDef{"cluster.step_s", "s", "lower"},
		metricDef{"cluster.step_us_per_round", "us", "lower"},
		metricDef{"loadgen.publish_s", "s", "lower"},
		metricDef{"loadgen.finish_s", "s", "lower"},
		metricDef{"loadgen.max_queue_depth", "count", "lower"},
		metricDef{"setup.plan_s", "s", "lower"},
		metricDef{"setup.cluster_new_s", "s", "lower"},
		metricDef{"trace.overhead_frac", "frac", "lower"},
	)
}()
