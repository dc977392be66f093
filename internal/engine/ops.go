package engine

import (
	"context"
	"fmt"

	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/state"
)

// GetByKey returns the tuple of the named relation with the given primary
// key value (in primary-key attribute order), or false. The lookup pins the
// current published version with one atomic load and takes no locks, so it
// never contends with writers or other readers.
func (db *DB) GetByKey(name string, key relation.Tuple) (relation.Tuple, bool) {
	tup, ok, err := db.GetByKeyCtx(context.Background(), name, key)
	if err != nil {
		return nil, false
	}
	return tup, ok
}

// GetByKeyCtx is GetByKey with cancellation and a typed error for unknown
// relations. The read is lock-free (it cannot queue behind a writer), so
// cancellation is checked once at entry.
func (db *DB) GetByKeyCtx(ctx context.Context, name string, key relation.Tuple) (relation.Tuple, bool, error) {
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	start := now()
	tup, ok, err := db.getAt(db.current.Load(), name, key)
	if err != nil {
		return nil, false, err
	}
	db.m.lookupLat.ObserveSince(start)
	return tup, ok, nil
}

// Scan visits every tuple of the relation satisfying the predicate,
// accounting each visited tuple. The scan pins one published version and
// never takes a lock: it observes a batch's effects either completely or not
// at all (snapshot semantics — a concurrent ApplyBatchCtx publishing
// mid-scan is invisible), and the callbacks run against immutable data, so
// they may re-enter the DB freely, even with mutations. Mutations made after
// the version was pinned are not visible to the scan. Iteration order is
// unspecified.
func (db *DB) Scan(name string, pred func(relation.Tuple) bool, visit func(relation.Tuple)) error {
	return db.scanAt(db.current.Load(), name, pred, visit)
}

// Delete removes the tuple with the given primary key, enforcing referential
// integrity on the referenced side: any inclusion dependency pointing at
// this relation restricts the delete when a referencing tuple exists (a
// trigger-style probe of the referencing relation's prebuilt secondary
// index).
func (db *DB) Delete(name string, key relation.Tuple) error {
	return db.DeleteCtx(context.Background(), name, key)
}

// DeleteCtx is Delete with cancellation: a context already cancelled when
// the operation starts aborts it before any state change.
func (db *DB) DeleteCtx(ctx context.Context, name string, key relation.Tuple) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	db.schemaMu.RLock()
	defer db.schemaMu.RUnlock()
	start := now()
	t := db.tables[name]
	if t == nil {
		return fmt.Errorf("%w %s", ErrUnknownRelation, name)
	}
	ls := db.lm.remove[name]
	db.acquire(ls)
	defer ls.release()
	// Re-check after acquisition: a deadline that expired while this op was
	// queued behind a contended lock plan must not still commit.
	if err := ctx.Err(); err != nil {
		return err
	}
	defer db.m.deleteLat.ObserveSince(start)
	db.simAccess()
	tx := db.beginWrite()
	var eff effects
	if err := db.deleteLocked(tx, t, key, &eff); err != nil {
		return err
	}
	return db.commitEffects(tx, eff)
}

// deleteLocked checks and stages one delete, assuming the delete lock set
// of t is held.
func (db *DB) deleteLocked(tx *writeTx, t *table, key relation.Tuple, eff *effects) error {
	name := t.rs.Name
	tup, ok := tx.pkGet(t, key.EncodeKey())
	if !ok {
		return fmt.Errorf("%w: no %s tuple with key %v", ErrNoSuchTuple, name, key)
	}
	for _, ind := range db.indsInto[name] {
		tx.count(db.m.triggerFirings)
		referenced := projectAttrs(t, tup, ind.RightAttrs)
		if !referenced.IsTotal() {
			continue
		}
		tx.count(db.m.indexLookups)
		if len(tx.bucket(db.tables[ind.Left], secondaryKey(ind.LeftAttrs), referenced.EncodeKey())) > 0 {
			return db.violation(&ConstraintViolation{Kind: RestrictViolation, Relation: name, Constraint: ind.String(), Op: "delete"})
		}
		// An empty local bucket is not authoritative on a partition engine:
		// a referencing tuple may live in another shard.
		hit, err := db.probeReferencing(ind, referenced.EncodeKey())
		if err != nil {
			return err
		}
		if hit {
			return db.violation(&ConstraintViolation{Kind: RestrictViolation, Relation: name, Constraint: ind.String(), Op: "delete"})
		}
	}
	eff.remove(tx, t, tup)
	tx.count(db.m.deletes)
	return nil
}

// Update replaces the tuple with the given primary key by the new tuple
// (which may change the key), enforcing the same constraints as
// Delete+Insert without intermediate visibility.
func (db *DB) Update(name string, key relation.Tuple, newTup relation.Tuple) error {
	return db.UpdateCtx(context.Background(), name, key, newTup)
}

// UpdateCtx is Update with cancellation: a context already cancelled when
// the operation starts aborts it before any state change.
func (db *DB) UpdateCtx(ctx context.Context, name string, key relation.Tuple, newTup relation.Tuple) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	db.schemaMu.RLock()
	defer db.schemaMu.RUnlock()
	start := now()
	t := db.tables[name]
	if t == nil {
		return fmt.Errorf("%w %s", ErrUnknownRelation, name)
	}
	ls := db.lm.update[name]
	db.acquire(ls)
	defer ls.release()
	// Re-check after acquisition (see InsertCtx).
	if err := ctx.Err(); err != nil {
		return err
	}
	defer db.m.updateLat.ObserveSince(start)
	db.simAccess()
	tx := db.beginWrite()
	var eff effects
	if err := db.updateLocked(tx, t, key, newTup, &eff); err != nil {
		return err
	}
	return db.commitEffects(tx, eff)
}

// updateLocked checks and stages one update, assuming the update lock set of
// t is held. The old tuple's staged removal precedes the checks, so the new
// tuple validates against a view without it (a key-preserving update cannot
// trip the PK check on its own old row); a violation drops the whole staged
// transaction.
func (db *DB) updateLocked(tx *writeTx, t *table, key, newTup relation.Tuple, eff *effects) error {
	name := t.rs.Name
	old, ok := tx.pkGet(t, key.EncodeKey())
	if !ok {
		return fmt.Errorf("%w: no %s tuple with key %v", ErrNoSuchTuple, name, key)
	}
	eff.remove(tx, t, old)
	if err := db.checkDeclarative(tx, t, newTup); err != nil {
		return err
	}
	if err := db.fireInsertTriggers(tx, t, newTup); err != nil {
		return err
	}
	// Referenced-side integrity for the vanishing old values.
	for _, ind := range db.indsInto[name] {
		tx.count(db.m.triggerFirings)
		oldRef := projectAttrs(t, old, ind.RightAttrs)
		newRef := projectAttrs(t, newTup, ind.RightAttrs)
		if !oldRef.IsTotal() || oldRef.Identical(newRef) {
			continue
		}
		tx.count(db.m.indexLookups)
		if len(tx.bucket(db.tables[ind.Left], secondaryKey(ind.LeftAttrs), oldRef.EncodeKey())) > 0 {
			return db.violation(&ConstraintViolation{Kind: RestrictViolation, Relation: name, Constraint: ind.String(), Op: "update"})
		}
		hit, err := db.probeReferencing(ind, oldRef.EncodeKey())
		if err != nil {
			return err
		}
		if hit {
			return db.violation(&ConstraintViolation{Kind: RestrictViolation, Relation: name, Constraint: ind.String(), Op: "update"})
		}
	}
	eff.apply(tx, t, newTup)
	tx.count(db.m.updates)
	return nil
}

// Load bulk-inserts a consistent database state, relation by relation in an
// order that respects inclusion dependencies. Each relation loads as one
// atomic batch (InsertBatch): a violation rolls the offending relation back
// and stops the load at a relation boundary.
func (db *DB) Load(st *state.DB) error {
	return db.LoadCtx(context.Background(), st)
}

// LoadCtx is Load with cancellation, checked between relations so a large
// bulk load can be abandoned at a consistent prefix.
func (db *DB) LoadCtx(ctx context.Context, st *state.DB) error {
	// Pin one binding for the read-only planning; each InsertBatchCtx takes
	// the schema read lock itself (holding it across the whole load would
	// block a concurrent migration for the load's full duration — and a
	// waiting writer would deadlock a re-entrant read lock).
	bind := db.current.Load().bind
	order, err := loadOrder(bind.schema)
	if err != nil {
		return err
	}
	for _, name := range order {
		if err := ctx.Err(); err != nil {
			return err
		}
		r := st.Relation(name)
		if r == nil {
			continue
		}
		src := r
		// Reorder columns if needed.
		if !sameAttrs(src.Attrs(), bind.tables[name].hdr.Attrs()) {
			src = src.Project(bind.tables[name].hdr.Attrs())
		}
		if err := db.InsertBatchCtx(ctx, name, src.Tuples()); err != nil {
			return fmt.Errorf("engine: loading %s: %w", name, err)
		}
	}
	return nil
}

// loadOrder topologically orders relations so referenced relations load
// before referencing ones (cycles rejected).
func loadOrder(s *schema.Schema) ([]string, error) {
	deg := make(map[string]int, len(s.Relations))
	succ := make(map[string][]string)
	for _, rs := range s.Relations {
		deg[rs.Name] = 0
	}
	for _, ind := range s.INDs {
		if ind.Left == ind.Right {
			continue
		}
		succ[ind.Right] = append(succ[ind.Right], ind.Left)
		deg[ind.Left]++
	}
	var queue, order []string
	for _, rs := range s.Relations {
		if deg[rs.Name] == 0 {
			queue = append(queue, rs.Name)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		order = append(order, n)
		for _, m := range succ[n] {
			if deg[m]--; deg[m] == 0 {
				queue = append(queue, m)
			}
		}
	}
	if len(order) != len(s.Relations) {
		return nil, fmt.Errorf("engine: cyclic inclusion dependencies; cannot bulk-load")
	}
	return order, nil
}

func sameAttrs(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Snapshot exports the current contents as a state.DB (deep copy). It pins
// one published version, so it is consistent across relations without
// taking any lock — a snapshot taken mid-batch contains either all of the
// batch or none of it.
func (db *DB) Snapshot() *state.DB {
	return stateOf(db.current.Load())
}

// stateOf materializes one pinned version as a state.DB (deep copy). Names
// and headers resolve through the snapshot's own binding, so the export is
// correct even for a version pinned before a live schema migration.
func stateOf(snap *dbSnapshot) *state.DB {
	tables := snap.bind.tables
	out := &state.DB{Relations: make(map[string]*relation.Relation, len(tables))}
	for name, t := range tables {
		r := relation.New(t.hdr.Attrs()...)
		snap.tables[name].pk.Range(func(_ string, tup relation.Tuple) bool {
			r.Add(tup.Clone())
			return true
		})
		out.Set(name, r)
	}
	return out
}
