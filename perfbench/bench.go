package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/pkg/relmerge"
)

// config is one benchmark run.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	dataDir  string // scratch directory for logs and span dumps
	setups   int    // set-ups per run; setup_s is their median
	warmup   time.Duration
	tailOps  int     // ops per client between the last checkpoint and Close
	scale    float64 // data-size multiplier (1 = the published sizes)

	// wrap, when set, wraps every client's Session (the checker's tests
	// inject faulty sessions through it).
	wrap func(relmerge.Session) relmerge.Session
}

func (cfg *config) scaled(n int) int {
	if v := int(float64(n) * cfg.scale); v > 16 {
		return v
	}
	return 16
}

// setupTimes are the parts of one set-up, in seconds.
type setupTimes struct {
	total, generate, load, checkpoint, merge, mapState float64
}

// recoveryResult is what finish measured after the timed phase.
type recoveryResult struct {
	seconds    float64       // Open (or reload) of the state the run left behind
	replay     float64       // log records replayed by that Open
	checkpoint time.Duration // the checkpoint before the tail (durable workloads)
}

// bench is one set-up workload, ready to run.
type bench struct {
	clients []*client
	reg     *relmerge.Registry
	op      func(c *client)
	tr      *tracer // server-side tracing (wire workloads, traced runs only)
	durable bool
	wire    bool
	sharded bool
	times   setupTimes
	// finish checkpoints, runs the fixed tail, closes the backend, times its
	// recovery and checks the recovered state against the clients' models
	// (failures are recorded on the clients).
	finish func() (recoveryResult, error)
	// close releases everything still open; safe to call more than once.
	close func()
}

// workloadDef is one workload; BENCHMARK.json gives the reason for each.
type workloadDef struct {
	name  string
	setup func(cfg *config, dir string) (*bench, error)
}

var workloads = []workloadDef{
	{name: "star-profile-read", setup: setupStar},
	{name: "chain-merged-write", setup: setupChain},
	{name: "star-shard-batch", setup: setupSharded},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// result is one run's outcome.
type result struct {
	attempted, failed int64
	errs              []string
	metrics           map[string]float64
	info              []string // human-readable notes: sample counts, run metadata
}

func (r *result) correct() bool { return r.failed == 0 }

// count adds the clients' run totals.
func (r *result) count(clients []*client) {
	for _, c := range clients {
		r.attempted += c.ops
		r.failed += c.failed
		r.errs = append(r.errs, c.firstErrs...)
	}
}

// window is what the clients did in one or more measured phases.
type window struct {
	elapsed              time.Duration
	ops, userBytes       int64
	reads, writes, maint []latencies
	reg                  regSnap
	mallocs, gcs         uint64
	gcPause              uint64
}

func newWindow() *window { return &window{reg: regSnap{}} }

// measure runs the clients for d and accumulates into w.
func measure(b *bench, d time.Duration, w *window) {
	for _, c := range b.clients {
		c.resetWindow()
	}
	before := snapshot(b.reg)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	w.elapsed += runLoop(b.clients, d, b.op)
	runtime.ReadMemStats(&m1)
	w.reg.add(snapshot(b.reg).sub(before))
	w.mallocs += m1.Mallocs - m0.Mallocs
	w.gcs += uint64(m1.NumGC - m0.NumGC)
	w.gcPause += m1.PauseTotalNs - m0.PauseTotalNs
	for _, c := range b.clients {
		w.ops += c.winOps
		w.userBytes += c.userBytes
		w.reads = append(w.reads, append(latencies(nil), c.reads...))
		w.writes = append(w.writes, append(latencies(nil), c.writes...))
		w.maint = append(w.maint, append(latencies(nil), c.maint...))
	}
}

func (w *window) opsPerSec() float64 { return float64(w.ops) / w.elapsed.Seconds() }

func countOf(recs []latencies) int {
	n := 0
	for _, r := range recs {
		n += len(r)
	}
	return n
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// run sets the workload up cfg.setups times and measures each set-up for an
// equal share of cfg.seconds, so the measured time is spread over the whole
// run; the last set-up is then closed and its recovery timed. Failures
// of the system under test are counted in the result; an error means the
// benchmark itself could not run.
func run(cfg config) (*result, error) {
	wd, ok := findWorkload(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	runDir := filepath.Join(cfg.dataDir, fmt.Sprintf("%s-%d", cfg.workload, os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)

	res := &result{metrics: map[string]float64{}}
	var times []setupTimes
	var heaps []float64
	var st selfTimes
	plain, traced := newWindow(), newWindow()
	share := cfg.seconds / time.Duration(cfg.setups)
	var b *bench
	defer func() {
		if b != nil {
			b.close()
		}
	}()
	for i := 0; i < cfg.setups; i++ {
		if b != nil {
			b.close()
			b = nil
		}
		dir := filepath.Join(runDir, fmt.Sprintf("setup-%d", i))
		start := time.Now()
		nb, err := wd.setup(&cfg, dir)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		b = nb
		b.times.total = time.Since(start).Seconds()
		times = append(times, b.times)

		if cfg.wrap != nil {
			for _, c := range b.clients {
				c.raw = cfg.wrap(c.raw)
				c.sess = c.raw
			}
		}
		var tr *tracer
		if cfg.trace {
			if tr = b.tr; tr == nil {
				tr = newTracer()
			}
			for _, c := range b.clients {
				c.traced = &tracedSession{Session: c.raw, tr: tr}
			}
		}

		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		heaps = append(heaps, float64(ms.HeapAlloc)/(1<<20))

		runLoop(b.clients, cfg.warmup, b.op)
		if !cfg.trace {
			measure(b, share, plain)
		} else {
			// Half of the share untraced, half traced, on the same set-up.
			measure(b, share/2, plain)
			for _, c := range b.clients {
				c.sess = c.traced
			}
			tr.on.Store(true)
			measure(b, share/2, traced)
			tr.on.Store(false)
			for _, c := range b.clients {
				c.sess = c.raw
			}
			var sessions [][]span
			for _, c := range b.clients {
				sessions = append(sessions, c.traced.(*tracedSession).spans)
			}
			if b.wire {
				st.add(tr.wireSelf(sessions))
			} else {
				st.add(sessionSelf(sessions))
			}
		}
		if i < cfg.setups-1 {
			res.count(b.clients)
		}
	}

	// Recovery of the last set-up; its checks land on its clients.
	rec, err := b.finish()
	if err != nil {
		return nil, fmt.Errorf("recovery: %w", err)
	}
	res.count(b.clients)

	pick := func(f func(setupTimes) float64) float64 {
		xs := make([]float64, len(times))
		for i, t := range times {
			xs[i] = f(t)
		}
		return median(xs)
	}
	setupS := pick(func(t setupTimes) float64 { return t.total })
	maintAll := append(append([]latencies(nil), plain.maint...), traced.maint...)
	res.info = append(res.info,
		fmt.Sprintf("setups=%d setup_s=%v ops=%d elapsed_s=%.3f reads=%d writes=%d checkpoints=%d",
			len(times), setupS, plain.ops, plain.elapsed.Seconds(), countOf(plain.reads), countOf(plain.writes), countOf(maintAll)))

	if !cfg.trace {
		rq, _ := quantiles(plain.reads, 0.5, 0.99)
		wq, _ := quantiles(plain.writes, 0.5)
		m := res.metrics
		m["setup_s"] = setupS
		m["ops_per_s"] = plain.opsPerSec()
		m["read_p50_us"], m["read_p99_us"] = rq[0], rq[1]
		m["write_p50_us"] = wq[0]
		m["heap_mb"] = median(heaps)
		m["recovery_s"] = rec.seconds
		return res, nil
	}

	// Per-layer metrics: registry and runtime counts from the untraced
	// halves, span splits from the traced ones.
	if err := os.MkdirAll(filepath.Join(cfg.dataDir, "spans"), 0o755); err == nil {
		path := filepath.Join(cfg.dataDir, "spans", cfg.workload+".jsonl")
		if err := writeDump(path, st.dump); err != nil {
			res.info = append(res.info, "span dump: "+err.Error())
		} else {
			res.info = append(res.info, fmt.Sprintf("spans: %d written to %s", len(st.dump), path))
		}
	}
	res.info = append(res.info, fmt.Sprintf("traced session calls=%d unmatched=%d", st.calls, st.unmatched))

	m := res.metrics
	u := plain.reg
	writes := float64(countOf(plain.writes))
	reads := float64(countOf(plain.reads))
	ops := float64(plain.ops)
	perCall := func(ns float64) float64 { return ratio(ns, float64(st.calls)) / 1e3 }

	m["trace.session_us"] = perCall(st.session)
	m["relmerge.self_us"] = 0
	m["server.self_us"], m["server.socket_us"], m["server.writes_per_batch"] = 0, 0, 0
	m["shard.self_us"] = 0
	switch {
	case b.wire:
		m["relmerge.self_us"] = perCall(st.relmerge)
		m["server.self_us"] = perCall(st.server)
		m["server.socket_us"] = perCall(st.socket)
		m["server.writes_per_batch"] = ratio(float64(st.sessionWrites), float64(st.engineWrites))
		m["engine.self_us"] = perCall(st.engine)
	case b.sharded:
		// The router calls the shard engines itself; their share is what
		// the engines' own latency series account for in the traced quarters.
		t := traced.reg
		eng := (t.hist("engine.lookup_seconds", "engine.insert_seconds", "engine.delete_seconds", "engine.update_seconds").sum +
			t.hist("engine.mvcc.publish_seconds").sum + t.hist("wal.fsync_seconds").sum) * 1e9
		m["engine.self_us"] = perCall(eng)
		m["shard.self_us"] = perCall(st.session - eng)
	default:
		m["engine.self_us"] = perCall(st.session)
	}
	wq, _ := quantiles(plain.writes, 0.99)
	m["client.write_p99_us"] = wq[0]
	m["relmerge.bytes_per_op"] = ratio(u.val("client.bytes_read")+u.val("client.bytes_written"), ops)
	m["server.overloaded"] = u.val("server.overloaded") + traced.reg.val("server.overloaded")

	fetch := u.hist("engine.lookup_seconds")
	m["engine.fetch_us.p50"] = fetch.quantile(0.5) * 1e6
	m["engine.fetch_us.p99"] = fetch.quantile(0.99) * 1e6
	m["engine.lookups_per_read"] = ratio(u.val("engine.lookups"), reads)
	m["go.allocs_per_op"] = ratio(float64(plain.mallocs), ops)

	var ew []float64
	switch {
	case b.wire:
		ew, _ = quantiles([]latencies{st.engineWriteUS}, 0.5, 0.99)
	case b.sharded:
		h := u.hist("engine.insert_seconds", "engine.delete_seconds", "engine.update_seconds")
		ew = []float64{h.quantile(0.5) * 1e6, h.quantile(0.99) * 1e6}
	default:
		ew, _ = quantiles([]latencies{st.sessionWriteUS}, 0.5, 0.99)
	}
	m["engine.write_us.p50"], m["engine.write_us.p99"] = ew[0], ew[1]
	m["engine.publish_us.p50"] = u.hist("engine.mvcc.publish_seconds").quantile(0.5) * 1e6
	m["engine.declarative_checks_per_write"] = ratio(u.val("engine.declarative_checks"), writes)
	m["engine.trigger_firings_per_write"] = ratio(u.val("engine.trigger_firings"), writes)
	m["engine.lock_acquisitions_per_write"] = ratio(u.val("engine.lock_acquisitions"), writes)
	m["engine.violations"] = u.val("engine.constraint_violations")

	fs := u.hist("wal.fsync_seconds")
	m["wal.fsyncs_per_write"] = ratio(u.val("wal.fsyncs"), writes)
	m["wal.fsync_us.p50"] = fs.quantile(0.5) * 1e6
	m["wal.fsync_us.p99"] = fs.quantile(0.99) * 1e6
	m["wal.appends_per_write"] = ratio(u.val("wal.appends"), writes)
	m["wal.append_bytes_per_write"] = ratio(u.val("wal.append_bytes"), writes)
	if rec.checkpoint > 0 {
		maintAll = append(maintAll, latencies{int64(rec.checkpoint)})
	}
	var ckSum int64
	for _, r := range maintAll {
		for _, v := range r {
			ckSum += v
		}
	}
	m["wal.checkpoint_ms"] = ratio(float64(ckSum), float64(countOf(maintAll))) / 1e6
	m["wal.replay_records"] = rec.replay
	m["disk_bytes_per_user_byte"] = 0
	if b.durable {
		m["disk_bytes_per_user_byte"] = ratio(u.val("wal.append_bytes")+u.val("wal.checkpoint_bytes"), float64(plain.userBytes))
	}

	hits, remote := u.val("shard.probe.cache_hits"), u.val("shard.probe.remote")
	cross, local := u.val("shard.batch.cross"), u.val("shard.batch.local")
	m["shard.remote_probes_per_write"] = ratio(remote, writes)
	m["shard.probe_hit_rate"] = ratio(hits, hits+remote)
	m["shard.cross_batch_share"] = ratio(cross, cross+local)
	m["shard.compensations"] = u.val("shard.batch.compensations")
	m["shard.cache_invalidations_per_write"] = ratio(u.val("shard.cache.invalidations"), writes)

	m["core.merge_ms"] = pick(func(t setupTimes) float64 { return t.merge * 1e3 })
	m["core.map_state_s"] = pick(func(t setupTimes) float64 { return t.mapState })
	m["setup.generate_s"] = pick(func(t setupTimes) float64 { return t.generate })
	m["setup.load_s"] = pick(func(t setupTimes) float64 { return t.load })
	m["setup.checkpoint_s"] = pick(func(t setupTimes) float64 { return t.checkpoint })

	m["go.gc_cycles"] = float64(plain.gcs)
	m["go.gc_pause_ms"] = float64(plain.gcPause) / 1e6
	m["trace.overhead"] = ratio(traced.opsPerSec(), plain.opsPerSec())
	return res, nil
}
