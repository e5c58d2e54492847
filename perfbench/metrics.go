package main

import (
	"fmt"
	"regexp"
	"sort"
)

// metricDef names one printed metric and its unit. The lists below are
// the benchmark's whole vocabulary: BENCHMARK.json at the repository
// root must list exactly these names (names_test.go checks it).
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are printed by every untraced run (--trace 0), on every
// workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"delivered_minst_per_s", "Minst/s"},
	{"jobs_per_s", "1/s"},
	{"host_cpu_s", "s"},
	{"peak_rss_mb", "MB"},
	{"hit_ms_p50", "ms"},
	{"miss_ms_p50", "ms"},
}

// stageNames are the cycle-loop stages the CPU profile is mapped onto.
var stageNames = []string{"fetch", "decode", "issue", "commit", "mem", "core", "trace", "gc", "other"}

// selfLayers are the span layers whose self time the traced run reports.
var selfLayers = []string{"experiments", "http", "server", "cluster", "run", "workload", "wspec", "emu", "trace", "pipeline"}

// perLayer are printed by every traced run (--trace 1), on every
// workload. A layer a workload does not exercise reports 0 and the
// report line says why.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"hit_ms_tail", "ms"},
		{"miss_ms_tail", "ms"},
		{"workload.build_ms", "ms"},
		{"wspec.compile_ms", "ms"},
		{"emu.minst_per_s", "Minst/s"},
		{"trace.record_minst_per_s", "Minst/s"},
		{"trace.ckpt_record_ms", "ms"},
		{"trace.bytes_per_inst", "B"},
		{"trace.encode_ms", "ms"},
		{"trace.decode_ms", "ms"},
		{"trace.encoded_bytes_per_inst", "B"},
		{"trace.replay_minst_per_s", "Minst/s"},
		{"pipeline.replay_minst_per_s", "Minst/s"},
		{"pipeline.recording_minst_per_s", "Minst/s"},
		{"pipeline.host_ns_per_cycle", "ns"},
		{"pipeline.alloc_bytes_per_kinst", "B"},
		{"pipeline.uop_news", "count"},
		{"pipeline.vop_news", "count"},
		{"pipeline.sim_cycles", "count"},
		{"pipeline.sim_committed", "count"},
	}
	for _, s := range stageNames {
		defs = append(defs, metricDef{"pipeline.stage." + s, "share"})
	}
	defs = append(defs,
		metricDef{"experiments.results_requested", "count"},
		metricDef{"experiments.sims_executed", "count"},
		metricDef{"experiments.memo_hit_ratio", "ratio"},
		metricDef{"experiments.recordings", "count"},
		metricDef{"experiments.replays", "count"},
		metricDef{"experiments.run_ms_p50", "ms"},
		metricDef{"experiments.run_ms_max", "ms"},
		metricDef{"experiments.pool_busy_share", "share"},
		metricDef{"experiments.tail_idle_s", "s"},
		metricDef{"experiments.shard_ms_p50", "ms"},
		metricDef{"server.queue_wait_ms_p50", "ms"},
		metricDef{"server.cache_lookup_ms_p50", "ms"},
		metricDef{"server.compute_ms_p50", "ms"},
		metricDef{"server.http_ms_p50", "ms"},
		metricDef{"server.result_hit_ratio", "ratio"},
		metricDef{"server.disk_hit_share", "share"},
		metricDef{"server.trace_store_hit_ratio", "ratio"},
		metricDef{"server.response_kb_p50", "KiB"},
		metricDef{"cluster.remote_share", "share"},
		metricDef{"cluster.shard_rtt_ms_p50", "ms"},
		metricDef{"cluster.dispatch_overhead_ms_p50", "ms"},
		metricDef{"cluster.artifact_pulls", "count"},
		metricDef{"cluster.artifact_pull_ms_p50", "ms"},
		metricDef{"cluster.requeues", "count"},
		metricDef{"runtime.gc_cpu_share", "share"},
		metricDef{"runtime.alloc_gb", "GB"},
		metricDef{"runtime.gc_cycles", "count"},
		metricDef{"bench.tracing_overhead", "ratio"},
	)
	for _, l := range selfLayers {
		defs = append(defs, metricDef{"selftime." + l + "_s", "s"})
	}
	return defs
}()

var namePattern = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects a run's metric values by name.
type metricSet map[string]float64

// render checks that vals holds exactly the names in defs and returns
// them with their units.
func (vals metricSet) render(defs []metricDef) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if len(vals) != len(defs) {
		var extra []string
		for name := range vals {
			if _, ok := out[name]; !ok {
				extra = append(extra, name)
			}
		}
		sort.Strings(extra)
		return nil, fmt.Errorf("metrics measured but not declared: %v", extra)
	}
	return out, nil
}
