// Concurrency stress tests for the engine, run as an external test package
// so they can drive the engine through the workload generators. `make
// stress` runs these fresh under the race detector.
package engine_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/relation"
	"repro/internal/workload"
)

// Scan must tolerate re-entrant reads: the callback runs on a snapshot,
// outside every table lock, so it can issue lookups — including on the
// relation being scanned. The pre-snapshot design deadlocked here (Scan held
// the table's lock while the callback tried to retake it).
func TestScanReentrantLookup(t *testing.T) {
	b, err := workload.NewBench(workload.StarEER(2), "E0", 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	db, name := b.Base, b.Root
	visited := 0
	err = db.Scan(name, nil, func(tup relation.Tuple) {
		visited++
		// Re-entrant lookup on the scanned relation itself.
		if _, ok := db.GetByKey(name, tup); !ok {
			t.Errorf("scan visited a tuple GetByKey cannot find: %v", tup)
		}
		// And a re-entrant structural read.
		if db.Count(name) == 0 {
			t.Error("re-entrant Count returned 0 mid-scan")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if visited != db.Count(name) {
		t.Errorf("scan visited %d of %d tuples", visited, db.Count(name))
	}
}

// A scan snapshot is stable even when the scanned relation is written
// mid-scan: the callback sees the tuple set as of snapshot time, and the
// write (which takes the table's write lock) still lands.
func TestScanSnapshotIsolation(t *testing.T) {
	b, err := workload.NewBench(workload.StarEER(2), "E0", 20, 2)
	if err != nil {
		t.Fatal(err)
	}
	db, name := b.Base, b.Root
	before := db.Count(name)
	visited := 0
	err = db.Scan(name, nil, func(tup relation.Tuple) {
		if visited == 0 {
			// Insert into the scanned relation from inside the callback —
			// legal now that callbacks run lock-free, and invisible to this
			// scan's snapshot.
			fresh := relation.Tuple{relation.NewString("mid-scan")}
			if err := db.Insert(name, fresh); err != nil {
				t.Fatalf("re-entrant insert: %v", err)
			}
		}
		visited++
	})
	if err != nil {
		t.Fatal(err)
	}
	if visited != before {
		t.Errorf("scan visited %d tuples, want the snapshot's %d", visited, before)
	}
	if db.Count(name) != before+1 {
		t.Errorf("insert inside scan did not land: count=%d", db.Count(name))
	}
}

// The main stress test: K writer and M reader goroutines hammer the base and
// merged engines of the star and chain shapes at once — single inserts,
// batches, transactions, point lookups, scans with re-entrant reads, and
// navigational fetches. Afterwards the tuple counts must be exact and the
// Inserts/Deletes window must equal the writers' known history, proving no
// operation was dropped or double-counted under contention.
func TestStressReadersWriters(t *testing.T) {
	const (
		writers      = 4
		readers      = 4
		opsPerWriter = 30
	)
	shapes := []struct {
		name string
		mk   func() (*workload.Bench, error)
	}{
		{"star", func() (*workload.Bench, error) { return workload.NewBench(workload.StarEER(4), "E0", 30, 3) }},
		{"chain", func() (*workload.Bench, error) { return workload.NewBench(workload.ChainEER(4), "E0", 30, 4) }},
	}
	for _, shape := range shapes {
		t.Run(shape.name, func(t *testing.T) {
			b, err := shape.mk()
			if err != nil {
				t.Fatal(err)
			}
			db, root := b.Base, b.Root
			before := db.Count(root)
			start := db.Stats()

			var wg sync.WaitGroup
			// Writers: disjoint key ranges, alternating single inserts,
			// batches, and transactional batches with one forced rollback;
			// each writer finally deletes its first key.
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < opsPerWriter; i++ {
						key := relation.Tuple{relation.NewString(fmt.Sprintf("w%d-%d", w, i))}
						switch i % 3 {
						case 0:
							if err := db.Insert(root, key); err != nil {
								t.Errorf("writer %d insert: %v", w, err)
							}
						case 1:
							if err := db.InsertBatch(root, []relation.Tuple{key}); err != nil {
								t.Errorf("writer %d batch: %v", w, err)
							}
						default:
							// A duplicate inside the batch reverts the whole
							// batch; the retry without it must succeed.
							dup := relation.Tuple{relation.NewString(fmt.Sprintf("w%d-%d", w, i-1))}
							if err := db.InsertBatch(root, []relation.Tuple{key, dup}); err == nil {
								t.Errorf("writer %d: duplicate batch succeeded", w)
							}
							if err := db.Insert(root, key); err != nil {
								t.Errorf("writer %d retry: %v", w, err)
							}
						}
					}
					first := relation.Tuple{relation.NewString(fmt.Sprintf("w%d-0", w))}
					if err := db.Delete(root, first); err != nil {
						t.Errorf("writer %d delete: %v", w, err)
					}
				}(w)
			}
			// Readers: point lookups, scans with re-entrant lookups, and
			// navigational fetches, racing the writers.
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					for i := 0; i < opsPerWriter; i++ {
						key := b.Keys[(r+i)%len(b.Keys)]
						if _, ok := db.GetByKey(root, key); !ok {
							t.Errorf("reader %d: preloaded key %v vanished", r, key)
						}
						if i%5 == 0 {
							if err := db.Scan(root, nil, func(tup relation.Tuple) {
								db.GetByKey(root, tup) // re-entrant under contention
							}); err != nil {
								t.Errorf("reader %d scan: %v", r, err)
							}
						}
						if i%7 == 0 {
							if _, _, err := db.FetchWithReferences(root, key); err != nil {
								t.Errorf("reader %d fetch: %v", r, err)
							}
						}
					}
				}(r)
			}
			wg.Wait()

			want := before + writers*opsPerWriter - writers
			if got := db.Count(root); got != want {
				t.Errorf("%s count: got %d, want %d", root, got, want)
			}
			// Every writer op acknowledges one insert. Each duplicate batch
			// also stages (and counts) its fresh tuple before the duplicate
			// reverts it: the counters measure work done, not work kept.
			got := db.Stats().Sub(start)
			reverted := writers * (opsPerWriter / 3)
			if wantIns := writers*opsPerWriter + reverted; got.Inserts != wantIns {
				t.Errorf("inserts: got %d, want %d", got.Inserts, wantIns)
			}
			if got.Deletes != writers || got.Updates != 0 {
				t.Errorf("deletes/updates: got %d/%d, want %d/0", got.Deletes, got.Updates, writers)
			}
		})
	}
}

// Transactions racing concurrent readers: a rolled-back transaction leaves no
// trace, a committed one keeps its rows, and readers never observe a torn
// batch count while Rollback holds every table write lock.
func TestStressTxnRollback(t *testing.T) {
	b, err := workload.NewBench(workload.StarEER(3), "E0", 20, 5)
	if err != nil {
		t.Fatal(err)
	}
	db, root := b.Base, b.Root
	before := db.Count(root)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			db.GetByKey(root, b.Keys[i%len(b.Keys)])
		}
	}()

	for i := 0; i < 10; i++ {
		commit := i%2 == 0
		err := db.RunAtomic(func() error {
			for j := 0; j < 5; j++ {
				key := relation.Tuple{relation.NewString(fmt.Sprintf("txn%d-%d", i, j))}
				if err := db.Insert(root, key); err != nil {
					return err
				}
			}
			if !commit {
				return fmt.Errorf("forced rollback")
			}
			return nil
		})
		if commit && err != nil {
			t.Fatalf("txn %d: %v", i, err)
		}
		if !commit && err == nil {
			t.Fatalf("txn %d: forced rollback did not error", i)
		}
	}
	close(stop)
	wg.Wait()

	if got, want := db.Count(root), before+5*5; got != want {
		t.Errorf("after 5 commits and 5 rollbacks: count %d, want %d", got, want)
	}
}
