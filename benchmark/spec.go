package main

// The benchmark's contract: workload names, metric names, units,
// directions and regression bounds. BENCHMARK.json at the repo root is the
// same table for the driver; TestBenchmarkJSONMatchesSpec keeps the two in
// step. README.md carries the rationale for every row.

// Workload names are fixed: later issues cite them.
const (
	wlMemSingle   = "mem-single"
	wlDurablePair = "durable-pair"
	wlRouted3G    = "routed-3g"
	wlSimReplay   = "sim-replay"
)

type workloadSpec struct {
	Name string
	Why  string
}

var workloadSpecs = []workloadSpec{
	{wlMemSingle, "one prorp-serve, no WAL: HTTP, JSON, shard lock, history insert and Algorithm 4 do all the work, the journal none"},
	{wlDurablePair, "primary with -wal-fsync always -quorum-acks 1 plus one replica: fsync and the quorum wait dominate, predictor and HTTP are noise"},
	{wlRouted3G, "three shard groups, all traffic enters at g1: two thirds of requests take the proxy hop, kpi and the beat scatter-gather"},
	{wlSimReplay, "no sockets: the same ops as direct ShardedFleet calls plus prorp.Simulate, so predictor and history store are all of the work"},
}

type metricSpec struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd lists what a caller of the control plane sees. Every workload
// reports every one of them (see README.md for what each means on
// sim-replay, which has no sockets, and on the serving workloads, which run
// no simulator).
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"capacity_rps", "1/s", "higher", 0.25},
	{"login_p50_ms", "ms", "lower", 0.25},
	{"logout_tmean_ms", "ms", "lower", 0.25},
	{"get_p50_ms", "ms", "lower", 0.25},
	{"beat_p50_ms", "ms", "lower", 0.25},
	{"server_cpu_us_per_op", "us", "lower", 0.25},
	{"sim_dbdays_per_s", "1/s", "higher", 0.25},
	{"qos_warm_pct", "%", "higher", 0.05},
	{"cogs_idle_pct", "%", "lower", 0.05},
}

// perLayer lists the single-layer numbers of the traced run. They carry no
// bound. A metric whose layer is not on a workload's path reads 0 there
// (the journal on mem-single, the router outside routed-3g).
var perLayer = []metricSpec{
	{"server.http_rtt_us", "us", "lower", 0},
	{"server.serve_http_us", "us", "lower", 0},
	{"server.net_us", "us", "lower", 0},
	{"server.self_us", "us", "lower", 0},
	{"server.unattributed_pct", "%", "lower", 0},
	{"admission.acquire_ns", "ns", "lower", 0},
	{"shardmap.owner_of_ns", "ns", "lower", 0},
	{"wal.append_us", "us", "lower", 0},
	{"wal.append_nosync_us", "us", "lower", 0},
	{"wal.fsync_us", "us", "lower", 0},
	{"wal.bytes_per_op", "B", "lower", 0},
	{"wal.fsyncs_per_op", "count", "lower", 0},
	{"wal.replayed_records", "count", "higher", 0},
	{"repl.quorum_wait_us", "us", "lower", 0},
	{"shardedfleet.login_us", "us", "lower", 0},
	{"shardedfleet.logout_us", "us", "lower", 0},
	{"shardedfleet.explain_us", "us", "lower", 0},
	{"shardedfleet.resume_op_us", "us", "lower", 0},
	{"shardedfleet.due_scan_us", "us", "lower", 0},
	{"shardedfleet.archive_write_ms", "ms", "lower", 0},
	{"shardedfleet.restore_ms", "ms", "lower", 0},
	{"predictor.predict_us", "us", "lower", 0},
	{"predictor.predict_p99_us", "us", "lower", 0},
	{"historystore.insert_ns", "ns", "lower", 0},
	{"historystore.first_last_login_ns", "ns", "lower", 0},
	{"historystore.tuples_per_db", "count", "lower", 0},
	{"historystore.bytes_per_db", "B", "lower", 0},
	{"btree.insert_ns", "ns", "lower", 0},
	{"engine.run_s", "s", "lower", 0},
	{"workload.generate_ms", "ms", "lower", 0},
	{"engine.prewarms", "count", "lower", 0},
	{"engine.physical_pauses", "count", "lower", 0},
	{"engine.qos_warm_pct", "%", "higher", 0},
	{"engine.cogs_idle_pct", "%", "lower", 0},
	{"server.rss_mb", "MB", "lower", 0},
	{"server.snapshot_ms", "ms", "lower", 0},
	{"server.snapshot_bytes", "B", "lower", 0},
	{"server.restart_ms", "ms", "lower", 0},
	{"server.local_login_p50_us", "us", "lower", 0},
	{"server.proxied_login_p50_us", "us", "lower", 0},
	{"router.proxy_hop_us", "us", "lower", 0},
	{"server.scatter_kpi_p50_ms", "ms", "lower", 0},
	{"admission.shed", "count", "lower", 0},
	{"breaker.opens", "count", "lower", 0},
	{"loadgen.cpu_us_per_op", "us", "lower", 0},
	{"loadgen.closed.login_p99_ms", "ms", "lower", 0},
	{"loadgen.trace_overhead_pct", "%", "lower", 0},
	{"loadgen.open.r1.login_p50_ms", "ms", "lower", 0},
	{"loadgen.open.r1.login_p99_ms", "ms", "lower", 0},
	{"loadgen.open.r2.login_p50_ms", "ms", "lower", 0},
	{"loadgen.open.r2.login_p99_ms", "ms", "lower", 0},
	{"loadgen.open.r3.login_p50_ms", "ms", "lower", 0},
	{"loadgen.open.r3.login_p99_ms", "ms", "lower", 0},
	{"loadgen.open.late_p99_ms", "ms", "lower", 0},
	{"loadgen.open.slo_rps", "1/s", "higher", 0},
}
