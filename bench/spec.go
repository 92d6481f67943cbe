package main

import "time"

// spec is one workload. Round sizes are operation counts, never timers:
// a run of --seconds S executes roundOps×S operations per round, so the
// same arguments always do the same work. The counts are set so that on
// this box the timed rounds of a run take about S seconds together.
type spec struct {
	name string
	// gets and puts choose the keys read and written.
	gets, puts dist
	getShare   float64
	net        bool
	// roundOps is the closed-loop operations per round per second of
	// --seconds (embedded rounds, or net_mixed's saturate windows).
	roundOps int
	// pacedOps is the open-loop requests per window per second of
	// --seconds (net_mixed only), sent at pacedRate requests/s in total.
	pacedOps  int
	pacedRate float64
	// limit is the latency an operation must finish within to count
	// towards within_limit: closed-loop call time when embedded, due
	// time to reply in net_mixed's paced phase. Calibrated once so that
	// the baseline lands in 0.98–0.998, then frozen.
	limit time.Duration
}

const (
	setups       = 3  // the store is built this often; setup_s is the median, the last build is measured on
	rounds       = 11 // timed rounds (or windows per phase); metrics are medians over them
	tracedRounds = 4  // a traced run: untraced, traced, untraced, traced, at half size
	pipeline     = 16
)

// specs lists the workloads in BENCHMARK.json order; see README.md for
// why each was chosen.
var specs = []spec{
	{
		name:     "ingest_uniform",
		gets:     dist{kind: "uniform"},
		puts:     dist{kind: "uniform"},
		getShare: 0.10,
		roundOps: 13_000,
		limit:    50 * time.Microsecond,
	},
	{
		name:     "update_skewed",
		gets:     dist{kind: "hotcold", hotKeys: 0.003, hotAccess: 0.99},
		puts:     dist{kind: "hotcold", hotKeys: 0.003, hotAccess: 0.99},
		getShare: 0.10,
		roundOps: 40_000,
		limit:    50 * time.Microsecond,
	},
	{
		name:     "read_zipf",
		gets:     dist{kind: "zipf", zipfS: 1.2},
		puts:     dist{kind: "uniform"},
		getShare: 0.95,
		roundOps: 30_000,
		limit:    50 * time.Microsecond,
	},
	{
		name:      "net_mixed",
		gets:      dist{kind: "hotcold", hotKeys: 0.20, hotAccess: 0.80},
		puts:      dist{kind: "hotcold", hotKeys: 0.20, hotAccess: 0.80},
		getShare:  0.50,
		net:       true,
		roundOps:  9_000,
		pacedOps:  750,
		pacedRate: 24_000,
		limit:     20 * time.Millisecond,
	},
}

func findSpec(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// metricDef names one reported number. BENCHMARK.json repeats these
// tables; a test keeps the two in step.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the gated metrics: those whose same-code spread on this
// host fits a bound of at most 10 % (setup_s, which the benchmark contract
// requires here, is the one exception; see README.md).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"write_amp", "x", "lower"},
	{"space_amp", "x", "lower"},
	{"within_limit", "share", "higher"},
}

// perLayer are reported and not gated. The first five are end-to-end
// metrics the issue wanted gated, demoted by its own rule ("a metric that
// needs more than 10 % ... is demoted"): the timings spread 6–35 % on this
// host however they are averaged, and read_amp 6–8 % on read_zipf, where
// it follows which blocks the admission filter happens to keep.
var perLayer = []metricDef{
	{"ops_per_s", "1/s", "higher"},
	{"cpu_us_per_op", "us", "lower"},
	{"put_mid_us", "us", "lower"},
	{"get_mid_us", "us", "lower"},
	{"read_amp", "reads/get", "lower"},

	{"vfs.wal_bytes_per_user_byte", "x", "lower"},
	{"vfs.sst_bytes_per_user_byte", "x", "lower"},
	{"vfs.clidx_bytes_per_user_byte", "x", "lower"},
	{"vfs.manifest_bytes_per_user_byte", "x", "lower"},
	{"vfs.write_ops_per_put", "ops/put", "lower"},
	{"vfs.syncs_per_kput", "syncs/kput", "lower"},
	{"vfs.read_ops_per_get", "ops/get", "lower"},
	{"vfs.read_bytes_per_get", "B/get", "lower"},
	{"vfs.fg_busy_share", "share", "lower"},
	{"vfs.bg_busy_s", "s", "lower"},
	{"vfs.fg_sst_reads_per_get", "reads/get", "lower"},

	{"wal.append_ns", "ns", "lower"},
	{"wal.bytes_per_record", "B", "lower"},

	{"memtable.set_ns", "ns", "lower"},
	{"memtable.update_ns", "ns", "lower"},
	{"memtable.get_ns", "ns", "lower"},
	{"memtable.separate_ms", "ms", "lower"},
	{"memtable.read_hit_share", "share", "higher"},
	{"memtable.hot_kept_per_flush", "keys/flush", "higher"},
	{"memtable.flush_skips", "count", "higher"},

	{"sstable.build_mb_per_s", "MB/s", "higher"},
	{"sstable.get_hit_ns", "ns", "lower"},
	{"sstable.get_miss_ns", "ns", "lower"},
	{"sstable.cache_get_ns", "ns", "lower"},
	{"sstable.iter_entries_per_s", "1/s", "higher"},
	{"sstable.cache_hit_rate", "share", "higher"},
	{"sstable.cache_evictions_per_kget", "1/kget", "lower"},
	{"sstable.cache_rejects_per_kget", "1/kget", "lower"},
	{"sstable.l0_files_mean", "files", "lower"},
	{"sstable.files_after_quiesce", "files", "lower"},

	{"compaction.merge_entries_per_s", "1/s", "higher"},
	{"compaction.count", "count", "lower"},
	{"compaction.deferred", "count", "higher"},
	{"compaction.busy_s", "s", "lower"},
	{"compaction.write_bytes_per_user_byte", "x", "lower"},
	{"compaction.read_bytes_per_user_byte", "x", "lower"},
	{"compaction.discarded_share", "share", "higher"},

	{"lsm.flush_count", "count", "lower"},
	{"lsm.flush_busy_s", "s", "lower"},
	{"lsm.flush_bytes_per_user_byte", "x", "lower"},
	{"lsm.stall_count", "count", "lower"},
	{"lsm.stall_s", "s", "lower"},
	{"lsm.debt_bytes_before_quiesce", "B", "lower"},
	{"lsm.quiesce_s", "s", "lower"},

	{"bgsched.submit_to_run_us", "us", "lower"},
	{"bgsched.completed_tasks", "count", "lower"},
	{"bgsched.busy_share", "share", "lower"},
	{"bgsched.queue_depth_max", "tasks", "lower"},

	{"shard.put_p99_us", "us", "lower"},
	{"shard.get_p99_us", "us", "lower"},
	{"shard.put_p999_us", "us", "lower"},
	{"shard.get_p999_us", "us", "lower"},
	{"shard.put_samples", "count", "higher"},
	{"shard.get_samples", "count", "higher"},
	{"shard.apply_mid_us", "us", "lower"},
	{"shard.write_imbalance", "x", "lower"},
	{"shard.fullscan_keys_per_s", "1/s", "higher"},

	{"server.ops_per_group", "ops/group", "higher"},
	{"server.store_get_us", "us", "lower"},
	{"server.store_prepare_us", "us", "lower"},
	{"server.barrier_wait_us", "us", "lower"},
	{"server.self_us_per_op", "us", "lower"},

	{"resp.encode_cmd_ns", "ns", "lower"},
	{"resp.decode_cmd_ns", "ns", "lower"},
	{"resp.decode_reply_ns", "ns", "lower"},

	{"client.send_flush_us_per_batch", "us", "lower"},
	{"client.late_mid_us", "us", "lower"},
	{"client.late_max_us", "us", "lower"},
	{"client.paced_p99_us", "us", "lower"},
	{"client.saturate_mid_us", "us", "lower"},

	{"proc.calib_ms", "ms", "lower"},
	{"proc.setup_raw_s", "s", "lower"},
	{"proc.rss_peak_mb", "MB", "lower"},
	{"proc.gc_cycles", "count", "lower"},
	{"proc.gc_pause_ms", "ms", "lower"},
	{"proc.trace_overhead_share", "share", "lower"},
}
