package engine

import (
	"fmt"

	"repro/internal/immap"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/state"
)

// This file implements the engine's MVCC read path: immutable versioned
// table snapshots with copy-on-write publication.
//
//   - tableVersion is one immutable version of a table's contents: the
//     primary-key index and every prebuilt secondary index as persistent
//     (structurally shared) maps. A published version is never modified.
//   - dbSnapshot bundles one version per table plus the WAL LSN of the last
//     operation it contains. DB.current holds the latest published snapshot;
//     a single atomic pointer load pins a consistent cross-table view.
//   - Readers (GetByKey, Scan, FetchWithReferences, View) pin a snapshot and
//     run entirely lock-free; writers never block them.
//   - Writers still serialize through the per-table lock plans (locks.go):
//     the held write locks guarantee the pinned snapshot is the latest
//     version of every table the writer mutates. Mutations are staged in a
//     writeTx — one immap.Builder per index, started from the pinned
//     snapshot — and become visible in ONE publish after the WAL accepts the
//     record (commitEffects, locks.go). A builder copies a published trie
//     node once, on first touch, and edits its own copies in place, so a
//     batch of n tuples allocates its trie nodes about once, not a path per
//     tuple. A failed or violating operation simply drops its writeTx: the
//     published state was never touched, so there is nothing to revert.
//   - Old versions are reclaimed by the garbage collector once the last
//     reader drops its snapshot pointer; no epoch or hazard bookkeeping.

// tableVersion is one immutable published version of a table's indexes.
// The pk map is keyed by the encoded primary-key value; each secondary map
// (one per prebuilt index, keyed like table.secIdx) maps an encoded attribute
// value to the bucket of tuples holding it.
type tableVersion struct {
	pk  *immap.Map[relation.Tuple]
	sec map[string]*immap.Map[[]relation.Tuple]
}

// dbSnapshot is one immutable, cross-table-consistent version of the whole
// database, stamped with the WAL LSN of the newest operation it contains
// (a logical sequence number for non-durable engines). It carries the schema
// binding it was published under, so a pinned reader resolves relation names,
// dependency hops, and index layouts against the design that produced the
// snapshot — a live schema migration never changes what an already-pinned
// View answers.
type dbSnapshot struct {
	lsn    uint64
	tables map[string]*tableVersion
	bind   *binding
}

// writeTx stages the mutations of one operation (or one whole batch) in
// builders started from a pinned snapshot. Validation reads go through the
// writeTx so earlier staged mutations are visible to later checks of the
// same batch; concurrent readers see none of it until publish.
type writeTx struct {
	db   *DB
	snap *dbSnapshot
	work map[*table]*workTable
	// dry marks a prevalidation pass (PrevalidateBatchCtx): the same checks
	// run against the same staged semantics, but nothing publishes and the
	// cost counters stay silent, so a cross-shard prevalidate-then-apply pair
	// accounts each operation exactly once.
	dry bool
}

// count adds one to a cost counter unless the transaction is a dry run.
func (tx *writeTx) count(c *obs.Counter) {
	if !tx.dry {
		c.Inc()
	}
}

// workTable holds the in-progress next version of one table's indexes.
type workTable struct {
	pk  *immap.Builder[relation.Tuple]
	sec map[string]*immap.Builder[[]relation.Tuple]
}

// version freezes the staged indexes as an immutable table version.
func (wt *workTable) version() *tableVersion {
	sec := make(map[string]*immap.Map[[]relation.Tuple], len(wt.sec))
	for k, idx := range wt.sec {
		sec[k] = idx.Map()
	}
	return &tableVersion{pk: wt.pk.Map(), sec: sec}
}

// beginWrite pins the current snapshot as the base of a new write
// transaction. It must be called after the operation's lock set is acquired:
// the held write locks guarantee no concurrent writer publishes a newer
// version of any table this transaction will mutate.
func (db *DB) beginWrite() *writeTx {
	return &writeTx{db: db, snap: db.current.Load(), work: make(map[*table]*workTable, 1)}
}

// stage returns (creating on first mutation) the working version of t.
func (tx *writeTx) stage(t *table) *workTable {
	if wt, ok := tx.work[t]; ok {
		return wt
	}
	v := tx.snap.tables[t.name]
	wt := &workTable{pk: v.pk.Edit(), sec: make(map[string]*immap.Builder[[]relation.Tuple], len(v.sec))}
	for k, idx := range v.sec {
		wt.sec[k] = idx.Edit()
	}
	tx.work[t] = wt
	return wt
}

// stageState stages st as the complete contents of every table of binding
// b: the write transaction starts from b's empty version-zero, so
// publishing or freezing it replaces each table wholesale, and tables absent
// from st come out empty. No constraint runs — callers stage only states
// that were validated already (migration images, re-validated snapshots).
func (db *DB) stageState(b *binding, st *state.DB) *writeTx {
	tx := &writeTx{db: db, snap: &dbSnapshot{tables: emptyVersions(b), bind: b}, work: make(map[*table]*workTable, len(b.tables))}
	for name, t := range b.tables {
		tx.stage(t)
		r := st.Relation(name)
		if r == nil {
			continue
		}
		if !sameAttrs(r.Attrs(), t.hdr.Attrs()) {
			r = r.Project(t.hdr.Attrs())
		}
		for _, tup := range r.Tuples() {
			tx.apply(t, tup)
		}
	}
	return tx
}

// pkGet reads the primary-key index of t: staged version if this transaction
// mutated t, pinned snapshot otherwise.
func (tx *writeTx) pkGet(t *table, key string) (relation.Tuple, bool) {
	if wt, ok := tx.work[t]; ok {
		return wt.pk.Get(key)
	}
	return tx.snap.tables[t.name].pk.Get(key)
}

// bucket reads one secondary-index bucket of t (staged or pinned, like pkGet).
func (tx *writeTx) bucket(t *table, idxKey, valKey string) []relation.Tuple {
	var b []relation.Tuple
	if wt, ok := tx.work[t]; ok {
		if idx := wt.sec[idxKey]; idx != nil {
			b, _ = idx.Get(valKey)
		}
	} else if idx := tx.snap.tables[t.name].sec[idxKey]; idx != nil {
		b, _ = idx.Get(valKey)
	}
	return b
}

// apply stages one tuple insertion into t's pk index and every secondary
// index. The published snapshot is untouched.
func (tx *writeTx) apply(t *table, tup relation.Tuple) {
	wt := tx.stage(t)
	wt.pk.Set(t.keyOfIncoming(tup), tup)
	for key, ps := range t.secIdx {
		sub := tup.Project(ps)
		if !sub.IsTotal() {
			continue
		}
		ek := sub.EncodeKey()
		old, _ := wt.sec[key].Get(ek)
		bucket := make([]relation.Tuple, 0, len(old)+1)
		bucket = append(bucket, old...)
		bucket = append(bucket, tup)
		wt.sec[key].Set(ek, bucket)
	}
}

// remove stages one tuple removal from t. Emptied secondary buckets are
// deleted outright, so delete/insert churn over fresh keys never grows an
// index by retired empty buckets.
func (tx *writeTx) remove(t *table, tup relation.Tuple) {
	wt := tx.stage(t)
	wt.pk.Delete(t.keyOfIncoming(tup))
	for key, ps := range t.secIdx {
		sub := tup.Project(ps)
		if !sub.IsTotal() {
			continue
		}
		ek := sub.EncodeKey()
		old, ok := wt.sec[key].Get(ek)
		if !ok {
			continue
		}
		bucket := make([]relation.Tuple, 0, len(old))
		dropped := false
		for _, cand := range old {
			if !dropped && cand.Identical(tup) {
				dropped = true
				continue
			}
			bucket = append(bucket, cand)
		}
		if len(bucket) == 0 {
			wt.sec[key].Delete(ek)
		} else {
			wt.sec[key].Set(ek, bucket)
		}
	}
}

// publish makes the transaction's staged table versions the current
// snapshot, stamped with the LSN of the WAL record that made them durable.
// This is the single point where writes become visible to readers: one
// atomic pointer swap covers every table the operation touched, so a
// concurrent reader sees either all of a batch or none of it.
//
// pubMu serializes publishers only (writers on disjoint tables can reach
// here concurrently); readers never take it. The per-table write locks
// guarantee the staged versions are derived from the latest published
// version of each staged table, so merging them over the current snapshot
// never loses a concurrent writer's update to an unrelated table.
func (db *DB) publish(tx *writeTx, lsn uint64) {
	if len(tx.work) == 0 {
		return
	}
	start := now()
	db.pubMu.Lock()
	cur := db.current.Load()
	tables := make(map[string]*tableVersion, len(cur.tables))
	for name, v := range cur.tables {
		tables[name] = v
	}
	for t, wt := range tx.work {
		tables[t.name] = wt.version()
	}
	if lsn < cur.lsn {
		// Concurrent writers can commit WAL records out of publish order;
		// the snapshot stamp is the highest LSN it contains.
		lsn = cur.lsn
	}
	db.current.Store(&dbSnapshot{lsn: lsn, tables: tables, bind: cur.bind})
	db.pubMu.Unlock()
	db.lastPublish.Store(now().UnixNano())
	db.m.publishes.Inc()
	db.m.versionLSN.Set(float64(lsn))
	db.m.publishLat.ObserveSince(start)
}

// View is a consistent read view pinned to one published version of the
// database. All methods are lock-free and safe for concurrent use; the view
// never observes later writes. Holding a View pins its version's memory, so
// long-lived views should be re-pinned (db.View()) when freshness matters.
type View struct {
	db   *DB
	snap *dbSnapshot
}

// View pins the current published version as a consistent read view.
func (db *DB) View() *View {
	return &View{db: db, snap: db.current.Load()}
}

// LSN returns the WAL LSN stamp of the pinned version.
func (v *View) LSN() uint64 { return v.snap.lsn }

// Count returns the tuple count of a relation in the pinned version.
func (v *View) Count(name string) int {
	tv := v.snap.tables[name]
	if tv == nil {
		return 0
	}
	return tv.pk.Len()
}

// GetByKey is DB.GetByKey against the pinned version.
func (v *View) GetByKey(name string, key relation.Tuple) (relation.Tuple, bool) {
	tup, ok, err := v.db.getAt(v.snap, name, key)
	if err != nil {
		return nil, false
	}
	return tup, ok
}

// Scan is DB.Scan against the pinned version.
func (v *View) Scan(name string, pred func(relation.Tuple) bool, visit func(relation.Tuple)) error {
	return v.db.scanAt(v.snap, name, pred, visit)
}

// FetchWithReferences is DB.FetchWithReferences against the pinned version.
func (v *View) FetchWithReferences(name string, key relation.Tuple) (relation.Tuple, []Related, error) {
	return v.db.fetchAt(v.snap, name, key)
}

// VersionLSN returns the LSN stamp of the current published version: the WAL
// LSN of the newest committed operation (a logical sequence number for
// non-durable engines).
func (db *DB) VersionLSN() uint64 { return db.current.Load().lsn }

// TxnView returns the consistent read view pinned when the open transaction
// began, or false if no transaction is open. Within the transaction, reads
// through the DB methods see the transaction's own (published) writes, while
// the TxnView keeps answering from the begin-LSN version.
func (db *DB) TxnView() (*View, bool) {
	db.txnMu.Lock()
	defer db.txnMu.Unlock()
	if !db.inTxn.Load() || db.txnSnap == nil {
		return nil, false
	}
	return &View{db: db, snap: db.txnSnap}, true
}

// LockAcquisitions returns the total number of lock-plan acquisitions since
// Open. Read-only phases leave it unchanged — the observable witness that
// the fetch/scan hot path takes no locks (benchreport's P8 suite and the
// MVCC stress tests assert a zero delta).
func (db *DB) LockAcquisitions() uint64 { return uint64(db.m.lockAcquisitions.Value()) }

// getAt answers a key lookup from one pinned snapshot.
func (db *DB) getAt(snap *dbSnapshot, name string, key relation.Tuple) (relation.Tuple, bool, error) {
	t := snap.bind.tables[name]
	if t == nil {
		return nil, false, fmt.Errorf("%w %s", ErrUnknownRelation, name)
	}
	db.simAccess()
	tup, ok := snap.tables[name].pk.Get(key.EncodeKey())
	db.countLookup()
	db.countIdx()
	db.countSnapRead()
	db.noteFetch(snap.bind, name)
	return tup, ok, nil
}

// scanAt visits every tuple of one pinned snapshot's version of the
// relation. The callbacks run against immutable data with no locks held, so
// they may re-enter the DB freely (even with mutations); the scan itself can
// never observe those — or any concurrent — mutations.
func (db *DB) scanAt(snap *dbSnapshot, name string, pred func(relation.Tuple) bool, visit func(relation.Tuple)) error {
	t := snap.bind.tables[name]
	if t == nil {
		return fmt.Errorf("%w %s", ErrUnknownRelation, name)
	}
	v := snap.tables[name]
	db.simAccess()
	db.countScan(v.pk.Len())
	db.countSnapRead()
	v.pk.Range(func(_ string, tup relation.Tuple) bool {
		if pred == nil || pred(tup) {
			visit(tup)
		}
		return true
	})
	return nil
}

// fetchAt runs the FK chase of FetchWithReferences against one pinned
// snapshot: the root lookup and every dependency hop read the same version,
// so the result can never mix tuples from different batches.
func (db *DB) fetchAt(snap *dbSnapshot, name string, key relation.Tuple) (relation.Tuple, []Related, error) {
	start := now()
	bind := snap.bind
	t := bind.tables[name]
	if t == nil {
		return nil, nil, fmt.Errorf("%w %s", ErrUnknownRelation, name)
	}
	defer db.m.lookupLat.ObserveSince(start)
	db.simAccess()
	db.countLookup()
	db.countIdx()
	db.countSnapRead()
	db.noteFetch(bind, name)
	tup, ok := snap.tables[name].pk.Get(key.EncodeKey())
	if !ok {
		return nil, nil, fmt.Errorf("%w: no %s tuple with key %v", ErrNoSuchTuple, name, key)
	}
	var related []Related
	for _, ind := range bind.indsFrom[name] {
		rel := Related{From: name, To: ind.Right, FK: ind.LeftAttrs}
		fk := projectAttrs(t, tup, ind.LeftAttrs)
		if !fk.IsTotal() {
			rel.IsNull = true
			related = append(related, rel)
			continue
		}
		target := bind.tables[ind.Right]
		tv := snap.tables[ind.Right]
		if ind.KeyBased(bind.schema) {
			db.countLookup()
			db.countIdx()
			if hit, ok := tv.pk.Get(orderAsKey(target, ind.RightAttrs, fk)); ok {
				rel.Tuple = hit
			}
		} else {
			db.countLookup()
			db.countIdx()
			if idx := tv.sec[secondaryKey(ind.RightAttrs)]; idx != nil {
				if hits, _ := idx.Get(fk.EncodeKey()); len(hits) > 0 {
					rel.Tuple = hits[0]
				}
			}
		}
		if rel.Tuple != nil {
			db.noteFetchHop(bind, name, ind.Right)
		}
		related = append(related, rel)
	}
	return tup, related, nil
}
