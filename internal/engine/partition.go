package engine

import (
	"context"
	"fmt"

	"repro/internal/schema"
)

// This file is the engine's side of horizontal partitioning (internal/shard).
// A partitioned engine holds one hash-slice of every relation, so a local
// index miss during an inclusion-dependency check is not authoritative: the
// referenced (or referencing) tuple may live in another partition. The shard
// router installs ShardProbes after Open; until then a partition engine
// treats cross-partition checks as the router's responsibility (recovery and
// bulk loads replay writes the router already validated).

// ShardProbes are the cross-partition constraint hooks a shard router
// installs on each partition engine. The engine calls them only as a
// fallback, after the operation's own staged view missed, and still
// constructs the resulting ConstraintViolation itself — so violation kinds,
// relations, and ops are identical whether a constraint fails locally or
// across shards.
type ShardProbes struct {
	// Referenced reports whether the referenced side of ind holds the probed
	// value beyond this partition. For a key-based dependency, key is the
	// referenced relation's encoded primary key (orderAsKey); otherwise it is
	// the encoded RightAttrs value probed against the prebuilt secondary
	// index.
	Referenced func(ind schema.IND, key string) (bool, error)
	// Referencing reports whether any tuple referencing the encoded
	// RightAttrs value refKey survives beyond this partition (the restrict
	// probe of deletes and updates on the referenced side).
	Referencing func(ind schema.IND, refKey string) (bool, error)
}

// WithPartition marks the engine as holding one shard of a partitioned
// database. Cross-relation inclusion checks that miss locally defer to the
// ShardProbes (or pass, before SetShardProbes installs them), and recovery
// re-validation skips inclusion dependencies — a partition's local state is
// not expected to satisfy them on its own.
func WithPartition() Option {
	return func(c *openConfig) { c.partition = true }
}

// SetShardProbes installs the router's cross-partition hooks. Call once,
// after Open and before serving traffic.
func (db *DB) SetShardProbes(p ShardProbes) { db.probes.Store(&p) }

// probeReferenced resolves a foreign-key existence check that missed the
// local staged view. Non-partition engines answer false (the local miss is
// final); partition engines ask the router, or pass during the bootstrap
// window before the probes are installed (recovery replays writes that were
// fully validated when first applied).
func (db *DB) probeReferenced(ind schema.IND, key string) (bool, error) {
	if !db.partition {
		return false, nil
	}
	p := db.probes.Load()
	if p == nil || p.Referenced == nil {
		return true, nil
	}
	return p.Referenced(ind, key)
}

// probeReferencing resolves a restrict check whose local referencing bucket
// was empty: false means no surviving reference anywhere, so the delete (or
// update) may proceed.
func (db *DB) probeReferencing(ind schema.IND, refKey string) (bool, error) {
	if !db.partition {
		return false, nil
	}
	p := db.probes.Load()
	if p == nil || p.Referencing == nil {
		return false, nil
	}
	return p.Referencing(ind, refKey)
}

// HasKey reports whether the current published version of the relation holds
// a tuple under the encoded primary key. Lock-free (one snapshot pin), which
// is what makes remote shards probe each other without entangling their lock
// managers.
func (db *DB) HasKey(name, encodedKey string) bool {
	v := db.current.Load().tables[name]
	if v == nil {
		return false
	}
	_, ok := v.pk.Get(encodedKey)
	return ok
}

// HasReferenced reports whether the current published version of ind.Right
// holds the encoded RightAttrs value — the referenced-side probe for
// non-key-based dependencies (key-based ones use HasKey with the pk-ordered
// encoding). Lock-free.
func (db *DB) HasReferenced(ind schema.IND, valKey string) bool {
	snap := db.current.Load()
	v := snap.tables[ind.Right]
	if v == nil {
		return false
	}
	if ind.KeyBased(snap.bind.schema) {
		_, ok := v.pk.Get(valKey)
		return ok
	}
	idx := v.sec[secondaryKey(ind.RightAttrs)]
	if idx == nil {
		return false
	}
	b, _ := idx.Get(valKey)
	return len(b) > 0
}

// ReferencingKeys returns the encoded primary keys of every tuple in the
// current published version of ind.Left whose LeftAttrs projection equals
// refKey. The router filters them against a cross-shard batch's pending
// deletes before calling a reference "surviving". Lock-free.
func (db *DB) ReferencingKeys(ind schema.IND, refKey string) []string {
	snap := db.current.Load()
	t := snap.bind.tables[ind.Left]
	if t == nil {
		return nil
	}
	v := snap.tables[ind.Left]
	idx := v.sec[secondaryKey(ind.LeftAttrs)]
	if idx == nil {
		return nil
	}
	b, _ := idx.Get(refKey)
	if len(b) == 0 {
		return nil
	}
	keys := make([]string, len(b))
	for i, tup := range b {
		keys[i] = t.keyOfIncoming(tup)
	}
	return keys
}

// PrevalidateBatchCtx runs a mixed batch through exactly the checks of
// ApplyBatchCtx — same lock plan, same staged-view semantics, same error
// text — and then drops the staged transaction instead of publishing it.
// Nothing is logged, published, or counted (cost counters are suppressed so
// a prevalidate-then-apply pair accounts each op once); constraint
// violations still count as violations.
//
// This is phase one of the shard router's cross-shard batch protocol: every
// involved shard prevalidates its sub-batch before any shard applies one, so
// a violation on the last shard cannot strand committed effects on the
// first.
func (db *DB) PrevalidateBatchCtx(ctx context.Context, ops []BatchOp) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if len(ops) == 0 {
		return nil
	}
	db.schemaMu.RLock()
	defer db.schemaMu.RUnlock()
	ls, err := db.batchPlan(ops)
	if err != nil {
		return err
	}
	db.acquire(ls)
	defer ls.release()
	if err := ctx.Err(); err != nil {
		return err
	}
	tx := db.beginWrite()
	tx.dry = true
	var eff effects
	for i, op := range ops {
		t := db.tables[op.Relation]
		var opErr error
		switch op.Kind {
		case BatchInsert:
			opErr = db.insertLocked(tx, t, op.Tuple, &eff)
		case BatchDelete:
			opErr = db.deleteLocked(tx, t, op.Key, &eff)
		case BatchUpdate:
			opErr = db.updateLocked(tx, t, op.Key, op.Tuple, &eff)
		}
		if opErr != nil {
			return fmt.Errorf("engine: batch op %d/%d (%s on %s): %w", i+1, len(ops), op.Kind, op.Relation, opErr)
		}
	}
	return nil
}
