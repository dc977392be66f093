// MVCC read-path tests: snapshot pinning, transaction read views, lock-free
// reads, and the never-torn-batch guarantee under concurrent writers. The
// names match the `make stress` filter (Stress|Concurrent|Mixed) where the
// test is meant to run fresh under the race detector.
package engine_test

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/engine"
	"repro/internal/figures"
	"repro/internal/relation"
	"repro/internal/wal"
	"repro/internal/workload"
)

func key(s string) relation.Tuple { return relation.Tuple{relation.NewString(s)} }

// A View pins one published version: writes that land after the pin are
// invisible to it, a fresh View sees them, and the version LSN stamp advances
// with every publish.
func TestMVCCViewPinsVersion(t *testing.T) {
	b, err := workload.NewBench(workload.StarEER(2), "E0", 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	db, root := b.Base, b.Root
	v := db.View()
	lsn0 := v.LSN()
	if got := v.Count(root); got != db.Count(root) {
		t.Fatalf("pinned view count %d != live count %d", got, db.Count(root))
	}
	before := v.Count(root)

	if err := db.Insert(root, key("after-pin")); err != nil {
		t.Fatal(err)
	}
	if got := v.Count(root); got != before {
		t.Errorf("pinned view saw a later write: count %d, want %d", got, before)
	}
	if _, ok := v.GetByKey(root, key("after-pin")); ok {
		t.Error("pinned view GetByKey found a tuple inserted after the pin")
	}
	visited := 0
	if err := v.Scan(root, nil, func(relation.Tuple) { visited++ }); err != nil {
		t.Fatal(err)
	}
	if visited != before {
		t.Errorf("pinned view scan visited %d tuples, want %d", visited, before)
	}

	fresh := db.View()
	if _, ok := fresh.GetByKey(root, key("after-pin")); !ok {
		t.Error("fresh view missing the committed write")
	}
	if fresh.LSN() <= lsn0 {
		t.Errorf("version LSN did not advance across a publish: %d -> %d", lsn0, fresh.LSN())
	}
	if db.VersionLSN() != fresh.LSN() {
		t.Errorf("VersionLSN %d != fresh view LSN %d", db.VersionLSN(), fresh.LSN())
	}
}

// A View pinned between two batches on the same tables keeps answering from
// the first batch, although the second batch and a third one, dropped on a
// violation, edited the tables' trie nodes in place while staging: every
// write transaction copies a published node before it touches it. The
// current version holds exactly the first two batches — primary and
// secondary indexes alike.
func TestMVCCViewPinnedBetweenBatches(t *testing.T) {
	db := engine.MustOpen(figures.Fig3())
	ctx := context.Background()
	str := relation.NewString
	offer := func(c, d string) relation.Tuple { return relation.Tuple{str(c), str(d)} }
	var first []engine.BatchOp
	first = append(first, engine.Ins("DEPARTMENT", key("math")), engine.Ins("DEPARTMENT", key("cs")))
	for i := 0; i < 300; i++ {
		c := fmt.Sprintf("c%d", i)
		first = append(first, engine.Ins("COURSE", key(c)), engine.Ins("OFFER", offer(c, []string{"math", "cs"}[i%2])))
	}
	if err := db.ApplyBatchCtx(ctx, first); err != nil {
		t.Fatal(err)
	}
	v := db.View()
	want := map[string]string{} // OFFER course -> department in the pinned version
	for i := 0; i < 300; i++ {
		want[fmt.Sprintf("c%d", i)] = []string{"math", "cs"}[i%2]
	}

	// Second batch: new rows, deletes, and every "cs" offer moved to "math".
	var second []engine.BatchOp
	for i := 300; i < 600; i++ {
		c := fmt.Sprintf("c%d", i)
		second = append(second, engine.Ins("COURSE", key(c)), engine.Ins("OFFER", offer(c, "math")))
	}
	for i := 0; i < 300; i++ {
		c := fmt.Sprintf("c%d", i)
		switch {
		case i%3 == 0:
			second = append(second, engine.Del("OFFER", key(c)))
		case i%2 == 1:
			second = append(second, engine.Upd("OFFER", key(c), offer(c, "math")))
		}
	}
	if err := db.ApplyBatchCtx(ctx, second); err != nil {
		t.Fatal(err)
	}
	// Third batch: stages rows (a "cs" offer among them), then violates.
	third := []engine.BatchOp{engine.Ins("COURSE", key("c-late")), engine.Ins("OFFER", offer("c-late", "cs"))}
	for i := 600; i < 800; i++ {
		third = append(third, engine.Ins("COURSE", key(fmt.Sprintf("c%d", i))))
	}
	third = append(third, engine.Ins("OFFER", offer("no-such-course", "math")))
	if err := db.ApplyBatchCtx(ctx, third); err == nil {
		t.Fatal("batch with a dangling foreign key committed")
	}

	if got := v.Count("COURSE"); got != 300 {
		t.Errorf("pinned view: COURSE count %d, want 300", got)
	}
	seen := 0
	if err := v.Scan("OFFER", nil, func(tup relation.Tuple) {
		seen++
		c, d := tup[0].String(), tup[1].String()
		if want[c] != d {
			t.Errorf("pinned view: OFFER %s -> %s, want %q", c, d, want[c])
		}
	}); err != nil {
		t.Fatal(err)
	}
	if seen != len(want) {
		t.Errorf("pinned view: OFFER scan saw %d rows, want %d", seen, len(want))
	}
	for _, c := range []string{"c300", "c799", "c-late"} {
		if _, ok := v.GetByKey("COURSE", key(c)); ok {
			t.Errorf("pinned view sees later course %s", c)
		}
	}

	// Current version: exactly the first two batches.
	if got := db.Count("COURSE"); got != 600 {
		t.Errorf("COURSE count %d, want 600", got)
	}
	if got := db.Count("OFFER"); got != 500 {
		t.Errorf("OFFER count %d, want 500", got)
	}
	if _, ok := db.GetByKey("COURSE", key("c-late")); ok {
		t.Error("dropped batch left course c-late behind")
	}
	// The OFFER department index must hold no "cs" offer (moved or deleted
	// by the second batch; the dropped batch's one never published), so the
	// restrict check lets "cs" go and still guards "math".
	if err := db.Delete("DEPARTMENT", key("math")); err == nil {
		t.Error("deleting a referenced department succeeded")
	}
	if err := db.Delete("DEPARTMENT", key("cs")); err != nil {
		t.Errorf("deleting an unreferenced department: %v", err)
	}
}

// TxnView answers from the version pinned at Begin: the transaction's own
// writes are visible through the DB methods but not through its read view,
// and the view is gone once the transaction closes.
func TestMVCCTxnViewReadsBeginVersion(t *testing.T) {
	b, err := workload.NewBench(workload.StarEER(2), "E0", 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	db, root := b.Base, b.Root
	if _, ok := db.TxnView(); ok {
		t.Fatal("TxnView with no open transaction")
	}
	if err := db.Begin(); err != nil {
		t.Fatal(err)
	}
	tv, ok := db.TxnView()
	if !ok {
		t.Fatal("no TxnView inside an open transaction")
	}
	before := tv.Count(root)
	if err := db.Insert(root, key("in-txn")); err != nil {
		t.Fatal(err)
	}
	if _, ok := db.GetByKey(root, key("in-txn")); !ok {
		t.Error("transaction's own write invisible through DB.GetByKey")
	}
	if _, ok := tv.GetByKey(root, key("in-txn")); ok {
		t.Error("TxnView saw a write made after Begin")
	}
	if got := tv.Count(root); got != before {
		t.Errorf("TxnView count moved: %d -> %d", before, got)
	}
	if err := db.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, ok := db.TxnView(); ok {
		t.Error("TxnView survived Commit")
	}
	// The already-held view keeps answering from its pinned version.
	if _, ok := tv.GetByKey(root, key("in-txn")); ok {
		t.Error("held TxnView observed the commit")
	}
}

// The read hot path takes no locks: a read-only phase of point lookups,
// scans, and navigational fetches — concurrent, under the race detector —
// leaves the lock-plan acquisition counter exactly where it was.
func TestMVCCReadPathLockFree(t *testing.T) {
	b, err := workload.NewBench(workload.StarEER(3), "E0", 40, 3)
	if err != nil {
		t.Fatal(err)
	}
	db, root := b.Base, b.Root
	baseline := db.LockAcquisitions()
	if baseline == 0 {
		t.Fatal("seeding took no lock-plan acquisitions; counter seems dead")
	}
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := b.Keys[(r+i)%len(b.Keys)]
				if _, ok := db.GetByKey(root, k); !ok {
					t.Errorf("seeded key %v missing", k)
				}
				if _, _, err := db.FetchWithReferences(root, k); err != nil {
					t.Errorf("fetch: %v", err)
				}
				if i%10 == 0 {
					db.Scan(root, nil, func(relation.Tuple) {})
					db.Count(root)
					db.View().Count(root)
				}
			}
		}(r)
	}
	wg.Wait()
	if got := db.LockAcquisitions(); got != baseline {
		t.Errorf("read-only phase acquired %d lock plans (baseline %d): read path is not lock-free", got-baseline, baseline)
	}
}

// The Scan-vs-ApplyBatchCtx regression (snapshot semantics): a mixed batch
// publishes as ONE version, so a concurrent scan counts either all of a
// batch's tuples or none of them — never a torn middle — no matter how the
// scan interleaves with the batch's staging. The pre-MVCC engine mutated
// indexes in place under per-table locks, which this invariant now replaces.
func TestConcurrentScanNeverTearsBatch(t *testing.T) {
	const (
		batchSize = 7
		minScans  = 50   // keep churning until the scanners really raced us
		maxRounds = 5000 // hard stop if the scanners are starved anyway
	)
	b, err := workload.NewBench(workload.StarEER(2), "E0", 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	db, root := b.Base, b.Root

	stop := make(chan struct{})
	var scans atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				n := 0
				err := db.Scan(root, func(tup relation.Tuple) bool {
					return strings.HasPrefix(tup[0].AsString(), "torn-")
				}, func(relation.Tuple) { n++ })
				if err != nil {
					t.Errorf("scan: %v", err)
					return
				}
				if n%batchSize != 0 {
					t.Errorf("scan observed a torn batch: %d tuples is not a multiple of %d", n, batchSize)
					return
				}
				scans.Add(1)
			}
		}()
	}

	// Writer: each round atomically inserts a full batch, then atomically
	// deletes it — the prefixed population only ever changes by whole batches.
	for i := 0; scans.Load() < minScans && i < maxRounds; i++ {
		ops := make([]engine.BatchOp, 0, batchSize)
		for j := 0; j < batchSize; j++ {
			ops = append(ops, engine.Ins(root, key(fmt.Sprintf("torn-%d-%d", i, j))))
		}
		if err := db.ApplyBatchCtx(context.Background(), ops); err != nil {
			t.Fatalf("insert batch %d: %v", i, err)
		}
		dels := make([]engine.BatchOp, 0, batchSize)
		for j := 0; j < batchSize; j++ {
			dels = append(dels, engine.Del(root, key(fmt.Sprintf("torn-%d-%d", i, j))))
		}
		if err := db.ApplyBatchCtx(context.Background(), dels); err != nil {
			t.Fatalf("delete batch %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	if scans.Load() == 0 {
		t.Fatal("no scan completed during the batch churn")
	}
}

// The P8 scenario under the race detector: a saturating writer, lock-free
// readers, and checkpoints all at once on a durable engine. Readers must
// never miss a seeded key, never error, and never observe a torn batch;
// checkpoints (which quiesce writers only) must all succeed; and the final
// tuple count must be exact.
func TestStressMVCCReadUnderWriteCheckpoint(t *testing.T) {
	const (
		readers   = 4
		writerOps = 120
		batchSize = 5
	)
	db, err := engine.Open(figures.Fig3(),
		engine.WithWALOptions(t.TempDir(), wal.Options{Policy: wal.SyncNever}))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Load(figures.Fig3State()); err != nil {
		t.Fatal(err)
	}
	seeded := db.Count("COURSE")

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, ok := db.GetByKey("COURSE", key("c1")); !ok {
					t.Error("seeded COURSE key vanished mid-run")
					return
				}
				if _, _, err := db.FetchWithReferences("TEACH", key("c1")); err != nil {
					t.Errorf("fetch: %v", err)
					return
				}
				if i%8 == r {
					n := 0
					db.Scan("COURSE", func(tup relation.Tuple) bool {
						return strings.HasPrefix(tup[0].AsString(), "p8-")
					}, func(relation.Tuple) { n++ })
					if n%batchSize != 0 {
						t.Errorf("scan under checkpoint observed a torn batch: %d", n)
						return
					}
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := db.Checkpoint(); err != nil {
				t.Errorf("checkpoint: %v", err)
				return
			}
		}
	}()

	for i := 0; i < writerOps; i++ {
		if i%4 == 0 {
			batch := make([]relation.Tuple, 0, batchSize)
			for j := 0; j < batchSize; j++ {
				batch = append(batch, key(fmt.Sprintf("p8-%d-%d", i, j)))
			}
			if err := db.InsertBatch("COURSE", batch); err != nil {
				t.Fatalf("writer batch %d: %v", i, err)
			}
		} else {
			if err := db.Insert("COURSE", key(fmt.Sprintf("solo-%d", i))); err != nil {
				t.Fatalf("writer insert %d: %v", i, err)
			}
		}
	}
	close(stop)
	wg.Wait()

	batches := (writerOps + 3) / 4
	want := seeded + batches*batchSize + (writerOps - batches)
	if got := db.Count("COURSE"); got != want {
		t.Errorf("COURSE count after run: %d, want %d", got, want)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}
