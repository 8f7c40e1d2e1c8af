package main

import "slices"

// metricDef names one reported metric. In lists the workloads that must
// produce it; a per-layer metric of a layer a workload never calls is
// reported as 0 there. End-to-end metrics are produced by every workload.
type metricDef struct {
	Name string
	Unit string
	In   []string
}

const (
	wEmbed  = "embed_paper"
	wATPG   = "atpg_core"
	wGrade  = "fault_grade"
	wDaemon = "daemon_mix"
)

var workloadNames = []string{wEmbed, wATPG, wGrade, wDaemon}

// endToEnd are the metrics of an untraced run (--trace 0).
var endToEnd = []metricDef{
	{"setup_s", "s", workloadNames},
	{"peak_mem_mb", "MB", workloadNames},
	{"ok_ratio", "ratio", workloadNames},
	{"request_cpu_s", "s", workloadNames},
}

var (
	inEmbed  = []string{wEmbed}
	inATPG   = []string{wATPG}
	inGrade  = []string{wGrade}
	inDaemon = []string{wDaemon}
	inCores  = []string{wATPG, wGrade}
)

// perLayer are the metrics of a traced run (--trace 1).
var perLayer = []metricDef{
	{"trace.overhead_ratio", "ratio", workloadNames},
	{"trace.wall_s", "s", workloadNames},
	{"bench.self_s", "s", workloadNames},
	{"netlist.self_s", "s", inCores},
	{"faultsim.self_s", "s", []string{wATPG, wGrade, wDaemon}},
	{"atpg.self_s", "s", []string{wATPG, wDaemon}},
	{"encoder.self_s", "s", []string{wEmbed, wDaemon}},
	{"stateskip.self_s", "s", inEmbed},
	{"decompressor.self_s", "s", inEmbed},
	{"server.self_s", "s", inDaemon},

	{"embed_s", "s", inEmbed},
	{"tdv_bits", "bits", inEmbed},
	{"reduced_tsl", "vectors", inEmbed},
	{"atpg_s", "s", inATPG},
	{"fault_coverage", "ratio", inATPG},
	{"test_cubes", "count", inATPG},
	{"grade_s", "s", inGrade},
	{"job_p50_s", "s", inDaemon},
	{"job_p90_s", "s", inDaemon},
	{"jobs_per_s", "1/s", inDaemon},

	{"netlist.read_bench_s", "s", inCores},
	{"netlist.levels_s", "s", inCores},

	{"faultsim.grade_w1_s", "s", inGrade},
	{"faultsim.grade_w8_s", "s", inGrade},
	{"faultsim.fault_patterns_per_s_w1", "1/s", inGrade},
	{"faultsim.fault_patterns_per_s_w8", "1/s", inGrade},
	{"faultsim.detected", "count", inGrade},
	{"faultsim.universe_s", "s", inCores},
	{"faultsim.faults", "count", inCores},
	{"faultsim.regrade_s", "s", inATPG},

	{"atpg.run_all_scoap_s", "s", inATPG},
	{"atpg.run_all_multi_s", "s", inATPG},
	{"atpg.faults_per_s_scoap", "1/s", inATPG},
	{"atpg.faults_per_s_multi", "1/s", inATPG},
	{"atpg.backtracks_scoap", "count", inATPG},
	{"atpg.backtracks_multi", "count", inATPG},
	{"atpg.aborted_scoap", "count", inATPG},
	{"atpg.aborted_multi", "count", inATPG},
	{"atpg.untestable_scoap", "count", inATPG},
	{"atpg.untestable_multi", "count", inATPG},
	{"atpg.tables_s", "s", inATPG},

	{"encoder.encode_s", "s", inEmbed},
	{"encoder.encode_s.s9234", "s", inEmbed},
	{"encoder.encode_s.s15850", "s", inEmbed},
	{"encoder.checks", "count", inEmbed},
	{"encoder.checks_per_s", "1/s", inEmbed},
	{"encoder.seeds", "count", inEmbed},
	{"encoder.table_builds", "count", inEmbed},
	{"encoder.verify_s", "s", inEmbed},

	{"stateskip.index_s", "s", inEmbed},
	{"stateskip.reduce_s", "s", inEmbed},
	{"stateskip.reductions", "count", inEmbed},
	{"stateskip.useful_segments", "count", inEmbed},
	{"stateskip.verify_s", "s", inEmbed},

	{"decompressor.run_s", "s", inEmbed},
	{"decompressor.clocks", "count", inEmbed},
	{"decompressor.skip_clocks", "count", inEmbed},
	{"decompressor.verify_s", "s", inEmbed},

	{"experiments.cache_hit_ratio", "ratio", inDaemon},
	{"experiments.cache_lookups", "count", inDaemon},
	{"experiments.builds", "count", inDaemon},
	{"experiments.evictions", "count", inDaemon},

	{"server.submit_p50_s", "s", inDaemon},
	{"server.submit_p90_s", "s", inDaemon},
	{"server.queue_wait_p50_s", "s", inDaemon},
	{"server.queue_wait_p90_s", "s", inDaemon},
	{"server.run_p50_s.encode", "s", inDaemon},
	{"server.run_p50_s.atpg", "s", inDaemon},
	{"server.run_p50_s.coverage", "s", inDaemon},
	{"server.result_lag_p50_s", "s", inDaemon},
	{"server.jobs", "count", inDaemon},
	{"server.rejected", "count", inDaemon},
	{"server.retries", "count", inDaemon},

	{"journal.depth", "records", inDaemon},
	{"journal.bytes", "bytes", inDaemon},
	{"journal.replay_s", "s", inDaemon},
}

func (m metricDef) requiredFor(workload string) bool { return slices.Contains(m.In, workload) }
