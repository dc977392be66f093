package main

// metricDef names one reported metric: its unit, which direction is better,
// and — for a per-layer metric — the end-to-end metric and workload it
// should move. BENCHMARK.json lists the same names; the tests keep the two in
// step.
type metricDef struct {
	name, unit, better string
	layer              bool
	moves              string
}

var metricDefs = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "ops_per_s", unit: "1/s", better: "higher"},
	{name: "read_p50_us", unit: "us", better: "lower"},
	{name: "read_p99_us", unit: "us", better: "lower"},
	{name: "write_p50_us", unit: "us", better: "lower"},
	{name: "heap_mb", unit: "MB", better: "lower"},
	{name: "recovery_s", unit: "s", better: "lower"},

	{name: "client.write_p99_us", unit: "us", better: "lower", layer: true, moves: "none: the end-to-end write tail, unbounded because its spread between runs is too wide to bound"},
	{name: "trace.session_us", unit: "us", better: "lower", layer: true, moves: "read_p50_us, write_p50_us: all workloads (the Session span the self times below add up to)"},
	{name: "relmerge.self_us", unit: "us", better: "lower", layer: true, moves: "read_p50_us, write_p50_us: chain-merged-write; 0 where the session is in-process"},
	{name: "relmerge.bytes_per_op", unit: "B", better: "lower", layer: true, moves: "read_p50_us, write_p50_us: chain-merged-write"},
	{name: "server.self_us", unit: "us", better: "lower", layer: true, moves: "read_p50_us, write_p50_us: chain-merged-write"},
	{name: "server.socket_us", unit: "us", better: "lower", layer: true, moves: "read_p50_us, write_p50_us: chain-merged-write (part of server.self_us)"},
	{name: "server.writes_per_batch", unit: "count", better: "higher", layer: true, moves: "write_p50_us: chain-merged-write"},
	{name: "server.overloaded", unit: "count", better: "lower", layer: true, moves: "client.write_p99_us: chain-merged-write"},
	{name: "engine.self_us", unit: "us", better: "lower", layer: true, moves: "read_p50_us, write_p50_us: every workload"},
	{name: "engine.fetch_us.p50", unit: "us", better: "lower", layer: true, moves: "read_p50_us, ops_per_s: star-profile-read"},
	{name: "engine.fetch_us.p99", unit: "us", better: "lower", layer: true, moves: "read_p99_us: star-profile-read"},
	{name: "engine.lookups_per_read", unit: "count", better: "lower", layer: true, moves: "read_p50_us: star-profile-read (9 on the base design, 1 merged)"},
	{name: "go.allocs_per_op", unit: "count", better: "lower", layer: true, moves: "read_p50_us, ops_per_s: star-profile-read"},
	{name: "engine.write_us.p50", unit: "us", better: "lower", layer: true, moves: "write_p50_us: chain-merged-write, star-shard-batch"},
	{name: "engine.write_us.p99", unit: "us", better: "lower", layer: true, moves: "client.write_p99_us: chain-merged-write, star-shard-batch"},
	{name: "engine.publish_us.p50", unit: "us", better: "lower", layer: true, moves: "write_p50_us: chain-merged-write, star-shard-batch"},
	{name: "engine.declarative_checks_per_write", unit: "count", better: "lower", layer: true, moves: "write_p50_us: chain-merged-write, star-shard-batch"},
	{name: "engine.trigger_firings_per_write", unit: "count", better: "lower", layer: true, moves: "write_p50_us: chain-merged-write, star-shard-batch"},
	{name: "engine.lock_acquisitions_per_write", unit: "count", better: "lower", layer: true, moves: "write_p50_us: chain-merged-write, star-shard-batch"},
	{name: "engine.violations", unit: "count", better: "lower", layer: true, moves: "none: counts the deliberately invalid writes refused"},
	{name: "wal.fsyncs_per_write", unit: "count", better: "lower", layer: true, moves: "write_p50_us, client.write_p99_us: chain-merged-write"},
	{name: "wal.fsync_us.p50", unit: "us", better: "lower", layer: true, moves: "write_p50_us: chain-merged-write"},
	{name: "wal.fsync_us.p99", unit: "us", better: "lower", layer: true, moves: "client.write_p99_us: chain-merged-write, star-shard-batch"},
	{name: "wal.appends_per_write", unit: "count", better: "lower", layer: true, moves: "write_p50_us: chain-merged-write"},
	{name: "wal.append_bytes_per_write", unit: "B", better: "lower", layer: true, moves: "disk_bytes_per_user_byte: chain-merged-write"},
	{name: "wal.checkpoint_ms", unit: "ms", better: "lower", layer: true, moves: "client.write_p99_us: chain-merged-write"},
	{name: "wal.replay_records", unit: "count", better: "lower", layer: true, moves: "recovery_s: chain-merged-write, star-shard-batch"},
	{name: "disk_bytes_per_user_byte", unit: "ratio", better: "lower", layer: true, moves: "the durable workloads' write cost; 0 on the in-memory one"},
	{name: "shard.self_us", unit: "us", better: "lower", layer: true, moves: "write_p50_us, ops_per_s: star-shard-batch"},
	{name: "shard.remote_probes_per_write", unit: "count", better: "lower", layer: true, moves: "write_p50_us, ops_per_s: star-shard-batch"},
	{name: "shard.probe_hit_rate", unit: "ratio", better: "higher", layer: true, moves: "write_p50_us, ops_per_s: star-shard-batch"},
	{name: "shard.cross_batch_share", unit: "ratio", better: "lower", layer: true, moves: "write_p50_us, client.write_p99_us: star-shard-batch"},
	{name: "shard.compensations", unit: "count", better: "lower", layer: true, moves: "client.write_p99_us: star-shard-batch"},
	{name: "shard.cache_invalidations_per_write", unit: "count", better: "lower", layer: true, moves: "write_p50_us: star-shard-batch"},
	{name: "core.merge_ms", unit: "ms", better: "lower", layer: true, moves: "setup_s: chain-merged-write"},
	{name: "core.map_state_s", unit: "s", better: "lower", layer: true, moves: "setup_s: chain-merged-write"},
	{name: "setup.generate_s", unit: "s", better: "lower", layer: true, moves: "setup_s: every workload"},
	{name: "setup.load_s", unit: "s", better: "lower", layer: true, moves: "setup_s: every workload"},
	{name: "setup.checkpoint_s", unit: "s", better: "lower", layer: true, moves: "setup_s: chain-merged-write, star-shard-batch"},
	{name: "go.gc_cycles", unit: "count", better: "lower", layer: true, moves: "read_p99_us, client.write_p99_us: every workload"},
	{name: "go.gc_pause_ms", unit: "ms", better: "lower", layer: true, moves: "read_p99_us, client.write_p99_us: every workload"},
	{name: "trace.overhead", unit: "ratio", better: "higher", layer: true, moves: "none: traced ops_per_s over untraced ops_per_s"},
}

func lookupDef(name string) (metricDef, bool) {
	for _, d := range metricDefs {
		if d.name == name {
			return d, true
		}
	}
	return metricDef{}, false
}
