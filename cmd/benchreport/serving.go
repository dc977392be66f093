package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"repro/internal/engine"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/server"
	"repro/internal/wal"
	"repro/internal/workload"
	"repro/pkg/relmerge"
)

// The client/server suite: the star8 merged design driven through the
// Session API, embedded (in-process engine) and remote (relmerged server
// over loopback TCP), at 1–8 concurrent clients under each durability
// policy. The same simulated access delay as the scaling suite applies, so
// remote scaling measures how well the server's worker pool and write
// coalescing overlap engine work across connections — not raw loopback
// bandwidth. The crash probe arms a WAL failpoint, kills the server
// abruptly mid-stream, reopens the directory, and checks that recovery
// reconstructs exactly the acknowledged-write prefix.
const (
	servingOps           = 320
	servingServerWorkers = 8
	servingCrashFailAt   = 24 // WAL write ordinal armed to fail
)

var servingClients = []int{1, 2, 4, 8}

// servingPolicy is one durability column of the serving grid.
type servingPolicy struct {
	Name   string
	Policy wal.SyncPolicy
	WAL    bool
}

func servingPolicies() []servingPolicy {
	return []servingPolicy{
		{"none", wal.SyncNever, false},
		{"interval", wal.SyncInterval, true},
		{"always", wal.SyncAlways, true},
	}
}

// servingRow is one (backend, policy, clients) measurement.
type servingRow struct {
	Backend   string  `json:"backend"`
	Policy    string  `json:"policy"`
	Clients   int     `json:"clients"`
	Ops       int     `json:"ops"`
	OpsPerSec float64 `json:"ops_per_sec"`
	P50Ns     int64   `json:"p50_ns"`
	P99Ns     int64   `json:"p99_ns"`
	Errors    int     `json:"errors"`
}

// servingCrash is the crash probe's verdict: under fsync=always, a killed
// server must recover exactly the writes it acknowledged — none lost, no
// unacknowledged write resurrected.
type servingCrash struct {
	Policy           string `json:"policy"`
	AckedWrites      int    `json:"acked_writes"`
	RecoveredWrites  int    `json:"recovered_writes"`
	AckedMissing     int    `json:"acked_missing"`
	UnackedRecovered int    `json:"unacked_recovered"`
	ExactPrefix      bool   `json:"exact_prefix"`
}

// servingSuite runs the grid and returns the rows, the 1→max-client
// throughput speedup per backend/policy curve, and the crash verdict.
func servingSuite() ([]servingRow, map[string]float64, *servingCrash, error) {
	var rows []servingRow
	speedups := map[string]float64{}
	for _, pol := range servingPolicies() {
		var dir string
		if pol.WAL {
			var err error
			dir, err = os.MkdirTemp("", "relmerge-serving-*")
			if err != nil {
				return nil, nil, nil, err
			}
		}
		b, err := workload.NewBenchSided(workload.StarEER(8), "E0", scalingRows, 42,
			func(side workload.Side) []engine.Option {
				opts := []engine.Option{engine.WithAccessDelay(scalingAccessDelay)}
				if pol.WAL && side == workload.SideMerged {
					opts = append(opts, engine.WithDurability(filepath.Join(dir, "merged"), pol.Policy))
				}
				return opts
			})
		if err != nil {
			return nil, nil, nil, fmt.Errorf("benchreport: serving bench (%s): %w", pol.Name, err)
		}

		// Embedded backend: the Session wraps the engine in-process.
		embedded := relmerge.NewSession(b.Merged)
		if err := servingCurve(&rows, speedups, b, embedded, "embedded", pol.Name); err != nil {
			return nil, nil, nil, err
		}

		// Remote backend: a relmerged server over the same engine, one pooled
		// client connection per workload worker.
		srv := server.New(b.Merged, server.Config{Workers: servingServerWorkers})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, nil, nil, err
		}
		go srv.Serve(ln)
		err = func() error {
			for _, clients := range servingClients {
				sess, err := relmerge.Open(relmerge.Config{Backend: relmerge.Remote, Addr: ln.Addr().String(),
					RemoteOptions: []relmerge.RemoteOption{relmerge.WithPoolSize(clients)}})
				if err != nil {
					return fmt.Errorf("benchreport: serving dial (%s): %w", pol.Name, err)
				}
				err = servingPoint(&rows, speedups, b, sess, "remote", pol.Name, clients)
				sess.Close()
				if err != nil {
					return err
				}
			}
			return nil
		}()
		// Graceful shutdown checkpoints and closes the merged engine's WAL.
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		srv.Shutdown(ctx)
		cancel()
		b.Base.Close()
		if err != nil {
			return nil, nil, nil, err
		}
		if dir != "" {
			os.RemoveAll(dir)
		}
	}
	crash, err := servingCrashProbe()
	if err != nil {
		return nil, nil, nil, err
	}
	return rows, speedups, crash, nil
}

// servingCurve measures one backend across every client count.
func servingCurve(rows *[]servingRow, speedups map[string]float64, b *workload.Bench, sess relmerge.Session, backend, policy string) error {
	for _, clients := range servingClients {
		if err := servingPoint(rows, speedups, b, sess, backend, policy, clients); err != nil {
			return err
		}
	}
	return nil
}

// servingPoint measures one (backend, policy, clients) cell and maintains
// the 1→max speedup for its curve.
func servingPoint(rows *[]servingRow, speedups map[string]float64, b *workload.Bench, sess relmerge.Session, backend, policy string, clients int) error {
	res, err := b.RunMixedOn(sess, workload.SideMerged, workload.MixedConfig{
		Workers:      clients,
		Ops:          servingOps,
		ReadFraction: scalingReadFraction,
		ZipfS:        scalingZipfS,
		Seed:         int64(10_000 + 100*clients + len(backend)),
	})
	if err != nil {
		return fmt.Errorf("benchreport: serving %s/%s clients=%d: %w", backend, policy, clients, err)
	}
	*rows = append(*rows, servingRow{
		Backend:   backend,
		Policy:    policy,
		Clients:   clients,
		Ops:       res.Ops,
		OpsPerSec: res.OpsPerSec,
		P50Ns:     res.P50.Nanoseconds(),
		P99Ns:     res.P99.Nanoseconds(),
		Errors:    res.Errors,
	})
	curve := backend + "/" + policy
	if clients == servingClients[0] {
		speedups["__base/"+curve] = res.OpsPerSec
	} else if clients == servingClients[len(servingClients)-1] {
		if base := speedups["__base/"+curve]; base > 0 {
			speedups[curve] = res.OpsPerSec / base
		}
		delete(speedups, "__base/"+curve)
	}
	return nil
}

// crashSchema is the minimal schema the crash probe serves: one relation,
// one key attribute, one payload attribute.
func crashSchema() *schema.Schema {
	return schema.New().AddScheme(schema.NewScheme("R",
		[]schema.Attribute{{Name: "R.K", Domain: "k"}, {Name: "R.V", Domain: "v"}},
		[]string{"R.K"}))
}

// servingCrashProbe drives sequential remote inserts at fsync=always into a
// server whose WAL is armed to fail its Nth write, then kills the server
// abruptly (no drain, no checkpoint, no WAL close), reopens the directory,
// and compares what recovery reconstructed against what the client saw
// acknowledged. Under fsync=always the two must match exactly: the armed
// write fails before anything reaches the file, so the failed insert was
// refused (never acknowledged) and every prior insert was fsynced before
// its acknowledgment.
func servingCrashProbe() (*servingCrash, error) {
	dir, err := os.MkdirTemp("", "relmerge-serving-crash-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	s := crashSchema()
	fp := &wal.Failpoint{FailWrite: servingCrashFailAt}
	eng, err := engine.Open(s, engine.WithWALOptions(dir, wal.Options{Policy: wal.SyncAlways, Failpoint: fp}))
	if err != nil {
		return nil, err
	}
	srv := server.New(eng, server.Config{Workers: 2, CoalesceMax: 1})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go srv.Serve(ln)
	sess, err := relmerge.Open(relmerge.Config{Backend: relmerge.Remote, Addr: ln.Addr().String()})
	if err != nil {
		return nil, err
	}

	var acked []string
	for i := 0; i < 2*servingCrashFailAt; i++ {
		key := fmt.Sprintf("k%04d", i)
		err := sess.Insert("R", relation.Tuple{relation.NewString(key), relation.NewString("v")})
		if err != nil {
			break // the failpoint fired: this write was refused, not acknowledged
		}
		acked = append(acked, key)
	}
	sess.Close()
	srv.Close() // abrupt kill: in-flight state dropped, WAL left as the crash left it

	re, err := engine.Open(s, engine.WithDurability(dir, wal.SyncAlways))
	if err != nil {
		return nil, err
	}
	defer re.Close()

	crash := &servingCrash{Policy: "always", AckedWrites: len(acked), RecoveredWrites: re.Count("R")}
	recovered := make(map[string]bool, re.Count("R"))
	for _, tup := range re.Relation("R").Tuples() {
		recovered[tup[0].String()] = true
	}
	for _, key := range acked {
		if !recovered[key] {
			crash.AckedMissing++
		}
		delete(recovered, key)
	}
	crash.UnackedRecovered = len(recovered)
	crash.ExactPrefix = crash.AckedMissing == 0 && crash.UnackedRecovered == 0 &&
		crash.RecoveredWrites == crash.AckedWrites
	return crash, nil
}

// P7 — client/server serving: the grid plus the crash probe, as tables.
func runP7(int) {
	fmt.Printf("star8 merged design, %d%%/%d%% mix, Zipf(%.1f) keys, %v simulated access;\n",
		int(scalingReadFraction*100), 100-int(scalingReadFraction*100), scalingZipfS, scalingAccessDelay)
	fmt.Printf("remote = relmerged over loopback TCP, %d server workers, pooled connections\n\n", servingServerWorkers)
	rows, speedups, crash, err := servingSuite()
	if err != nil {
		must(err)
	}
	fmt.Printf("%-10s %-10s %-9s %-12s %-12s %-12s %s\n", "backend", "policy", "clients", "ops/sec", "p50", "p99", "errors")
	for _, r := range rows {
		fmt.Printf("%-10s %-10s %-9d %-12.0f %-12v %-12v %d\n",
			r.Backend, r.Policy, r.Clients, r.OpsPerSec,
			time.Duration(r.P50Ns), time.Duration(r.P99Ns), r.Errors)
	}
	fmt.Printf("\nthroughput scaling, %d → %d clients:\n", servingClients[0], servingClients[len(servingClients)-1])
	for _, pol := range servingPolicies() {
		for _, backend := range []string{"embedded", "remote"} {
			if s, ok := speedups[backend+"/"+pol.Name]; ok {
				fmt.Printf("  %-22s %.1fx\n", backend+"/"+pol.Name, s)
			}
		}
	}
	fmt.Printf("\ncrash probe (fsync=always, WAL write #%d armed to fail, abrupt server kill):\n", servingCrashFailAt)
	fmt.Printf("  acked=%d recovered=%d acked_missing=%d unacked_recovered=%d exact_prefix=%v\n",
		crash.AckedWrites, crash.RecoveredWrites, crash.AckedMissing, crash.UnackedRecovered, crash.ExactPrefix)
	fmt.Println("\nthe remote curve rises with clients because the server's worker pool")
	fmt.Println("overlaps engine work across connections and coalesces concurrent writes")
	fmt.Println("into one group-committed WAL record; fsync=always pays one fsync per")
	fmt.Println("coalesced batch rather than per write.")
}
