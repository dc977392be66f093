package main

import (
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/relation"
	"repro/internal/repl"
	"repro/internal/server"
	"repro/internal/wal"
	"repro/pkg/relmerge"
)

// The replication suite: a primary relmerged server ships its WAL to
// followers that serve read-only sessions from their own engines, each
// behind its own server. The throughput grid drives the same read-only
// workload at every replica count — clients spread evenly across the serving
// nodes — so aggregate ops/sec measures how much read capacity each replica
// adds. The same simulated access delay as the scaling suite bounds one
// node's capacity, so the curve measures fan-out, not loopback bandwidth.
// The lag probe hammers the primary with a write burst while sampling the
// follower's record lag into a histogram, then times the post-burst
// catch-up. The failover probe writes acked inserts through the primary
// server, waits for the follower to reach the primary's durable horizon,
// kills the primary abruptly, promotes the follower, and checks that it
// recovered exactly the acked prefix.
const (
	replRows      = 512 // preloaded keys served by every node
	replReadsPer  = 600 // reads per client per cell
	replClients   = 4   // reader clients per serving node
	replWorkers   = 4   // server worker pool per node
	replBurst     = 600 // primary write burst behind the lag histogram
	replAckedOps  = 200 // acked inserts before the failover kill
	replFollowers = 2   // followers stood up for the grid
	replPollEvery = 2 * time.Millisecond
	replLagSample = 200 * time.Microsecond
	replWaitLimit = 30 * time.Second
)

// replRow is one replica-count cell of the read-throughput grid.
type replRow struct {
	Replicas  int     `json:"replicas"`
	Nodes     int     `json:"nodes"`
	Clients   int     `json:"clients"`
	Ops       int     `json:"ops"`
	OpsPerSec float64 `json:"ops_per_sec"`
	P50Ns     int64   `json:"p50_ns"`
	P99Ns     int64   `json:"p99_ns"`
	Errors    int     `json:"errors"`
}

// replLagBucket is one cumulative bucket of the shipping-lag histogram.
type replLagBucket struct {
	Le    string `json:"le"` // upper bound on lag records ("+Inf" for the tail)
	Count int    `json:"count"`
}

// replLag is the lag probe's result: how far the follower trailed the
// primary's commit horizon during a write burst, and how fast it caught up.
type replLag struct {
	WriteBurst    int             `json:"write_burst"`
	Samples       int             `json:"samples"`
	MaxLagRecords uint64          `json:"max_lag_records"`
	CatchUpMS     float64         `json:"catch_up_ms"`
	Buckets       []replLagBucket `json:"buckets"`
}

// replFailover is the kill-the-primary probe's verdict: the promoted
// follower must hold exactly the acked commit prefix — every acknowledged
// write, nothing that was never acknowledged.
type replFailover struct {
	AckedWrites      int    `json:"acked_writes"`
	RecoveredWrites  int    `json:"recovered_writes"`
	AckedMissing     int    `json:"acked_missing"`
	UnackedRecovered int    `json:"unacked_recovered"`
	PromotedLSN      uint64 `json:"promoted_lsn"`
	ExactPrefix      bool   `json:"exact_prefix"`
}

// replWait polls cond until it holds or the suite-wide limit lapses.
func replWait(what string, cond func() bool) error {
	deadline := time.Now().Add(replWaitLimit)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("benchreport: replication: timed out waiting for %s", what)
		}
		time.Sleep(500 * time.Microsecond)
	}
	return nil
}

// replNode is one serving node of the grid: the primary or a follower, with
// the handles the suite needs to tear it down.
type replNode struct {
	addr string
	srv  *server.Server
	f    *repl.Follower // nil for the primary
	db   *engine.DB
}

func replServe(backend server.Backend) (string, *server.Server, error) {
	srv := server.New(backend, server.Config{Workers: replWorkers})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	go srv.Serve(ln)
	return ln.Addr().String(), srv, nil
}

func replKey(i int) string { return fmt.Sprintf("k%05d", i) }

func replTuple(i int) relation.Tuple {
	return relation.Tuple{relation.NewString(replKey(i)), relation.NewString("v")}
}

// replCluster stands up the primary plus n followers, preloaded with
// replRows keys and fully caught up.
func replCluster(dir string, n int) (*replNode, []*replNode, error) {
	p, err := engine.Open(crashSchema(),
		engine.WithWALOptions(filepath.Join(dir, "primary"), wal.Options{Policy: wal.SyncNever}),
		engine.WithAccessDelay(scalingAccessDelay))
	if err != nil {
		return nil, nil, err
	}
	for i := 0; i < replRows; i++ {
		if err := p.Insert("R", replTuple(i)); err != nil {
			return nil, nil, err
		}
	}
	addr, srv, err := replServe(p)
	if err != nil {
		return nil, nil, err
	}
	primary := &replNode{addr: addr, srv: srv, db: p}

	followers := make([]*replNode, 0, n)
	for i := 0; i < n; i++ {
		fdb, err := engine.Open(crashSchema(), engine.AsReplica(),
			engine.WithWALOptions(filepath.Join(dir, fmt.Sprintf("follower-%d", i)), wal.Options{Policy: wal.SyncNever}),
			engine.WithAccessDelay(scalingAccessDelay))
		if err != nil {
			return primary, followers, err
		}
		f, err := repl.Open(addr, fdb, repl.Options{PollInterval: replPollEvery})
		if err != nil {
			fdb.Close()
			return primary, followers, err
		}
		faddr, fsrv, err := replServe(f.Backend())
		if err != nil {
			f.Close()
			fdb.Close()
			return primary, followers, err
		}
		followers = append(followers, &replNode{addr: faddr, srv: fsrv, f: f, db: fdb})
	}
	horizon := p.DurableLSN()
	for _, fn := range followers {
		fn := fn
		if err := replWait("follower catch-up", func() bool { return fn.db.DurableLSN() >= horizon }); err != nil {
			return primary, followers, err
		}
	}
	return primary, followers, nil
}

func (n *replNode) close() {
	if n == nil {
		return
	}
	n.srv.Close()
	if n.f != nil {
		n.f.Close()
	}
	n.db.Close()
}

// replCell drives the read-only workload against the given serving nodes:
// replClients pooled clients per node, uniform keys, aggregate throughput.
func replCell(replicas int, nodes []*replNode) (replRow, error) {
	sessions := make([]relmerge.Session, len(nodes))
	for i, n := range nodes {
		sess, err := relmerge.Open(relmerge.Config{Backend: relmerge.Remote, Addr: n.addr,
			RemoteOptions: []relmerge.RemoteOption{relmerge.WithPoolSize(replClients)}})
		if err != nil {
			return replRow{}, fmt.Errorf("benchreport: replication dial: %w", err)
		}
		defer sess.Close()
		sessions[i] = sess
	}

	totalClients := replClients * len(nodes)
	latencies := make([][]time.Duration, totalClients)
	errs := make([]int, totalClients)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < totalClients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := sessions[w%len(sessions)]
			rng := rand.New(rand.NewSource(int64(11_000 + 17*replicas + w)))
			lats := make([]time.Duration, 0, replReadsPer)
			for i := 0; i < replReadsPer; i++ {
				key := relation.Tuple{relation.NewString(replKey(rng.Intn(replRows)))}
				t0 := time.Now()
				_, ok, err := sess.Fetch("R", key)
				lats = append(lats, time.Since(t0))
				if err != nil || !ok {
					errs[w]++
				}
			}
			latencies[w] = lats
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var all []time.Duration
	for _, l := range latencies {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	pct := func(p float64) int64 { return all[int(p*float64(len(all)-1))].Nanoseconds() }
	errors := 0
	for _, e := range errs {
		errors += e
	}
	return replRow{
		Replicas:  replicas,
		Nodes:     len(nodes),
		Clients:   totalClients,
		Ops:       len(all),
		OpsPerSec: float64(len(all)) / elapsed.Seconds(),
		P50Ns:     pct(0.50),
		P99Ns:     pct(0.99),
		Errors:    errors,
	}, nil
}

// replLagProbe bursts writes into the primary while sampling one follower's
// record lag, then times the catch-up back to the horizon.
func replLagProbe(primary *replNode, follower *replNode) (*replLag, error) {
	bounds := []uint64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256}
	counts := make([]int, len(bounds)+1)
	lag := &replLag{WriteBurst: replBurst}

	done := make(chan error, 1)
	go func() {
		for i := 0; i < replBurst; i++ {
			if err := primary.db.Insert("R", replTuple(100_000+i)); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	sample := func() {
		l := follower.f.Info().LagRecords
		if l > lag.MaxLagRecords {
			lag.MaxLagRecords = l
		}
		i := sort.Search(len(bounds), func(i int) bool { return bounds[i] >= l })
		counts[i]++
		lag.Samples++
	}
	for {
		select {
		case err := <-done:
			if err != nil {
				return nil, err
			}
			horizon := primary.db.DurableLSN()
			t0 := time.Now()
			if err := replWait("post-burst catch-up", func() bool {
				sample()
				return follower.db.DurableLSN() >= horizon
			}); err != nil {
				return nil, err
			}
			lag.CatchUpMS = float64(time.Since(t0).Nanoseconds()) / 1e6
			// Cumulative counts, prometheus-style: bucket le=N counts every
			// sample with lag <= N.
			cum := 0
			for i, b := range bounds {
				cum += counts[i]
				lag.Buckets = append(lag.Buckets, replLagBucket{Le: fmt.Sprint(b), Count: cum})
			}
			lag.Buckets = append(lag.Buckets, replLagBucket{Le: "+Inf", Count: cum + counts[len(bounds)]})
			return lag, nil
		case <-time.After(replLagSample):
			sample()
		}
	}
}

// replFailoverProbe writes acked inserts through the primary server, waits
// for the follower to reach the primary's durable horizon, kills the primary
// abruptly, and promotes the follower.
func replFailoverProbe(dir string) (*replFailover, error) {
	p, err := engine.Open(crashSchema(),
		engine.WithWALOptions(filepath.Join(dir, "fo-primary"), wal.Options{Policy: wal.SyncAlways}))
	if err != nil {
		return nil, err
	}
	defer p.Close()
	addr, srv, err := replServe(p)
	if err != nil {
		return nil, err
	}
	fdb, err := engine.Open(crashSchema(), engine.AsReplica(),
		engine.WithWALOptions(filepath.Join(dir, "fo-follower"), wal.Options{Policy: wal.SyncAlways}))
	if err != nil {
		srv.Close()
		return nil, err
	}
	defer fdb.Close()
	f, err := repl.Open(addr, fdb, repl.Options{PollInterval: replPollEvery})
	if err != nil {
		srv.Close()
		return nil, err
	}
	defer f.Close()

	sess, err := relmerge.Open(relmerge.Config{Backend: relmerge.Remote, Addr: addr})
	if err != nil {
		srv.Close()
		return nil, err
	}
	var acked []string
	for i := 0; i < replAckedOps; i++ {
		if err := sess.Insert("R", replTuple(i)); err != nil {
			break // refused writes were never acknowledged
		}
		acked = append(acked, replKey(i))
	}
	sess.Close()

	horizon := p.DurableLSN()
	if err := replWait("failover catch-up", func() bool { return fdb.DurableLSN() >= horizon }); err != nil {
		srv.Close()
		return nil, err
	}
	srv.Close() // abrupt primary death: no drain, no checkpoint
	if err := f.Promote(); err != nil {
		return nil, err
	}

	fo := &replFailover{
		AckedWrites:     len(acked),
		RecoveredWrites: fdb.Count("R"),
		PromotedLSN:     fdb.DurableLSN(),
	}
	recovered := make(map[string]bool, fo.RecoveredWrites)
	for _, tup := range fdb.Relation("R").Tuples() {
		recovered[tup[0].String()] = true
	}
	for _, key := range acked {
		if !recovered[key] {
			fo.AckedMissing++
		}
		delete(recovered, key)
	}
	fo.UnackedRecovered = len(recovered)
	fo.ExactPrefix = fo.AckedMissing == 0 && fo.UnackedRecovered == 0 &&
		fo.RecoveredWrites == fo.AckedWrites
	return fo, nil
}

// replicationSuite runs the grid, the lag probe, and the failover probe,
// returning the rows plus the aggregate-throughput speedup per replica count
// (relative to the primary serving alone).
func replicationSuite() ([]replRow, map[string]float64, *replLag, *replFailover, error) {
	dir, err := os.MkdirTemp("", "relmerge-repl-*")
	if err != nil {
		return nil, nil, nil, nil, err
	}
	defer os.RemoveAll(dir)

	primary, followers, err := replCluster(dir, replFollowers)
	defer func() {
		for _, f := range followers {
			f.close()
		}
		primary.close()
	}()
	if err != nil {
		return nil, nil, nil, nil, err
	}

	var rows []replRow
	speedups := map[string]float64{}
	var base float64
	for replicas := 0; replicas <= replFollowers; replicas++ {
		nodes := append([]*replNode{primary}, followers[:replicas]...)
		row, err := replCell(replicas, nodes)
		if err != nil {
			return nil, nil, nil, nil, err
		}
		rows = append(rows, row)
		if replicas == 0 {
			base = row.OpsPerSec
		} else if base > 0 {
			speedups[fmt.Sprintf("replicas=%d", replicas)] = row.OpsPerSec / base
		}
	}

	lag, err := replLagProbe(primary, followers[0])
	if err != nil {
		return nil, nil, nil, nil, err
	}
	failover, err := replFailoverProbe(dir)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	return rows, speedups, lag, failover, nil
}

// P11 — replication: follower read fan-out, shipping lag, failover.
func runP11(int) {
	fmt.Printf("R(K,V) with %d keys, read-only clients, %v simulated access, %d server workers/node;\n",
		replRows, scalingAccessDelay, replWorkers)
	fmt.Printf("followers ship the primary's WAL over the v2 repl opcodes and serve from their own engines\n\n")
	rows, speedups, lag, failover, err := replicationSuite()
	if err != nil {
		must(err)
	}
	fmt.Printf("%-10s %-7s %-9s %-12s %-12s %-12s %s\n", "replicas", "nodes", "clients", "agg ops/sec", "p50", "p99", "errors")
	for _, r := range rows {
		fmt.Printf("%-10d %-7d %-9d %-12.0f %-12v %-12v %d\n",
			r.Replicas, r.Nodes, r.Clients, r.OpsPerSec,
			time.Duration(r.P50Ns), time.Duration(r.P99Ns), r.Errors)
	}
	fmt.Printf("\naggregate read throughput vs. the primary alone:\n")
	for replicas := 1; replicas <= replFollowers; replicas++ {
		k := fmt.Sprintf("replicas=%d", replicas)
		if s, ok := speedups[k]; ok {
			fmt.Printf("  %-14s %.1fx\n", k, s)
		}
	}
	fmt.Printf("\nshipping lag during a %d-write burst (%d samples, max %d records behind, caught up in %.1fms):\n",
		lag.WriteBurst, lag.Samples, lag.MaxLagRecords, lag.CatchUpMS)
	for _, b := range lag.Buckets {
		fmt.Printf("  lag <= %-6s %d\n", b.Le, b.Count)
	}
	fmt.Printf("\nfailover probe (fsync=always, kill primary after follower reaches the acked horizon, promote):\n")
	fmt.Printf("  acked=%d recovered=%d acked_missing=%d unacked_recovered=%d promoted_lsn=%d exact_prefix=%v\n",
		failover.AckedWrites, failover.RecoveredWrites, failover.AckedMissing,
		failover.UnackedRecovered, failover.PromotedLSN, failover.ExactPrefix)
	fmt.Println("\neach replica adds a full node of read capacity because followers answer")
	fmt.Println("from their own MVCC engines — the primary ships committed records once")
	fmt.Println("and never sees the read traffic; the promoted follower owns exactly the")
	fmt.Println("prefix the primary acknowledged and shipped.")
}
