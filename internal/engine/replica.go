package engine

import (
	"fmt"

	"repro/internal/sdl"
	"repro/internal/state"
	"repro/internal/wal"
)

// This file is the engine's follower-side replication surface. A follower is
// an ordinary durable engine whose mutations arrive as primary-shipped WAL
// records instead of client operations: IngestReplicated makes each batch
// durable in the local log FIRST (inheriting the log's gap/duplicate
// validation — a gapped stream can never become local state), then applies the
// decoded physical effects through the same staged-writeTx/publish machinery
// the live write path uses, so lock-free readers on the follower see exactly
// the primary's committed versions, stamped with the primary's LSNs.
//
// Constraint checks are deliberately absent from the record apply path: the
// primary validated every operation before logging it, and the records carry
// physical effects (already-resolved inserts/deletes), not requests. Shipped
// snapshots DO re-validate (state.Consistent) before installation — they
// arrive as opaque serialized state, so the follower applies the same
// recovery-style discipline it applies to its own checkpoint files.

// IngestReplicated appends a batch of primary-shipped records to the local
// log (durability and stream validation first: duplicates are skipped, a gap
// refuses the whole batch with wal.ErrGap before anything is written) and
// applies their effects to the published state. Transactional records buffer
// until their commit marker — arriving in a later batch, or after a follower
// restart — exactly like recovery replay. It returns the follower's durable
// LSN horizon: the resume point for the next fetch.
func (db *DB) IngestReplicated(recs []wal.Record) (uint64, error) {
	if db.wal == nil {
		return 0, ErrNotDurable
	}
	// schemaMu held EXCLUSIVELY (not shared): a shipped batch may carry a
	// schema-change record, and applying one means swapping the binding —
	// taking the exclusive lock up front avoids an upgrade mid-batch. A
	// follower has no concurrent local writers to starve, so exclusivity
	// costs nothing; lock-free readers are untouched either way.
	db.schemaMu.Lock()
	defer db.schemaMu.Unlock()
	db.replMu.Lock()
	defer db.replMu.Unlock()
	accepted, err := db.wal.CommitShipped(recs)
	if err != nil {
		return db.wal.LSN(), err
	}
	for _, r := range accepted {
		kind, ops, inTxn, err := decodeWalRecord(r.Payload)
		if err != nil {
			return db.wal.LSN(), err
		}
		switch kind {
		case walRecBegin:
			db.replPending = db.replPending[:0]
		case walRecCommit:
			if err := db.applyReplicated(db.replPending, r.LSN); err != nil {
				return db.wal.LSN(), err
			}
			db.replPending = nil
		case walRecRollback:
			db.replPending = nil
		case walRecOp:
			if inTxn {
				db.replPending = append(db.replPending, ops...)
			} else if err := db.applyReplicated(ops, r.LSN); err != nil {
				return db.wal.LSN(), err
			}
		case walRecSchema:
			// The primary migrated live. The record is self-contained (new
			// schema + fully mapped state), so the follower lands exactly on
			// the post-merge design in one swap, stamped with the record's LSN.
			if len(db.replPending) > 0 {
				return db.wal.LSN(), fmt.Errorf("%w: schema-change record inside an open replicated transaction at LSN %d", ErrRecovery, r.LSN)
			}
			schemaSDL, stateSDL, err := decodeSchemaRecord(r.Payload)
			if err != nil {
				return db.wal.LSN(), err
			}
			if err := db.rebind(schemaSDL); err != nil {
				return db.wal.LSN(), fmt.Errorf("%w: rebinding onto shipped schema: %v", ErrRecovery, err)
			}
			migrated, err := sdl.ParseState(db.Schema, stateSDL)
			if err != nil {
				return db.wal.LSN(), fmt.Errorf("%w: parsing shipped migrated state: %v", ErrRecovery, err)
			}
			db.replaceState(migrated, r.LSN)
		default:
			return db.wal.LSN(), fmt.Errorf("%w: unknown replicated record kind %d at LSN %d", ErrRecovery, kind, r.LSN)
		}
	}
	return db.wal.LSN(), nil
}

// applyReplicated publishes one committed batch of physical effects, stamped
// with the WAL LSN of the record (or commit marker) that carried it.
func (db *DB) applyReplicated(ops []walOp, lsn uint64) error {
	if len(ops) == 0 {
		return nil
	}
	ls := db.lm.allWrite()
	db.acquire(ls)
	defer ls.release()
	tx := db.beginWrite()
	for _, op := range ops {
		t := db.tables[op.rel]
		if t == nil {
			return fmt.Errorf("%w: replicated record names unknown relation %s", ErrRecovery, op.rel)
		}
		if op.insert {
			tx.apply(t, op.tup)
		} else {
			tx.remove(t, op.tup)
		}
	}
	db.publish(tx, lsn)
	return nil
}

// IngestSnapshot bootstraps (or fast-forwards) the follower from a
// primary-shipped checkpoint: the serialized state is parsed, re-validated
// against the full constraint set, installed as the local log's recovery
// baseline at the primary's LSN (wal.Log.InstallSnapshot — same atomic
// temp-write/rename choreography as a local checkpoint), and then published
// as a wholesale replacement of every table's current version in one atomic
// snapshot swap. Used when the primary reports wal.ErrCompacted: the records
// the follower needs were folded into a checkpoint it must adopt instead.
func (db *DB) IngestSnapshot(data []byte, lsn uint64) error {
	if db.wal == nil {
		return ErrNotDurable
	}
	// Exclusive for the same reason as IngestReplicated: a shipped snapshot
	// may be framed with a schema the primary migrated onto, and adopting it
	// swaps the binding.
	db.schemaMu.Lock()
	defer db.schemaMu.Unlock()
	db.replMu.Lock()
	defer db.replMu.Unlock()
	schemaSDL, stateSDL, err := decodeSnapshot(data)
	if err != nil {
		return fmt.Errorf("%w: parsing shipped snapshot: %v", ErrRecovery, err)
	}
	if schemaSDL != sdl.PrintSchema(db.Schema) {
		if err := db.rebind(schemaSDL); err != nil {
			return fmt.Errorf("%w: rebinding onto shipped snapshot schema: %v", ErrRecovery, err)
		}
	}
	st, err := sdl.ParseState(db.Schema, stateSDL)
	if err != nil {
		return fmt.Errorf("%w: parsing shipped snapshot: %v", ErrRecovery, err)
	}
	valSchema := db.Schema
	if db.partition {
		sc := *db.Schema
		sc.INDs = nil
		valSchema = &sc
	}
	if err := state.Consistent(valSchema, st); err != nil {
		return fmt.Errorf("%w: shipped snapshot fails constraint re-validation: %v", ErrRecovery, err)
	}
	if err := db.wal.InstallSnapshot(data, lsn); err != nil {
		return fmt.Errorf("engine: installing shipped snapshot: %w", err)
	}
	db.replPending = nil
	db.replaceState(st, lsn)
	return nil
}

// replaceState publishes st as a wholesale replacement of every table's
// current version, stamped lsn (stageState stages over empty versions, so
// tables absent from st publish empty). Caller holds schemaMu (shared or
// exclusive); local writers are additionally quiesced via the all-write lock
// set so a concurrent writer cannot publish between the swap decision and
// the swap.
func (db *DB) replaceState(st *state.DB, lsn uint64) {
	ls := db.bind.lm.allWrite()
	db.acquire(ls)
	defer ls.release()
	db.publish(db.stageState(db.bind, st), lsn)
}

// ReplRead is the primary-side read half of the shipping loop: the committed
// records after afterLSN plus the commit horizon (wal.Log.ReadCommitted). It
// returns wal.ErrCompacted when the requested position predates the newest
// checkpoint — the caller must ship ReplSnapshot instead.
func (db *DB) ReplRead(afterLSN uint64, maxRecords int) ([]wal.Record, uint64, error) {
	if db.wal == nil {
		return nil, 0, ErrNotDurable
	}
	return db.wal.ReadCommitted(afterLSN, maxRecords)
}

// ReplSnapshot returns the newest checkpoint's verified payload and covered
// LSN for bootstrapping a follower that is behind the compaction horizon.
func (db *DB) ReplSnapshot() ([]byte, uint64, error) {
	if db.wal == nil {
		return nil, 0, ErrNotDurable
	}
	data, lsn, ok, err := db.wal.ReadSnapshot()
	if err != nil {
		return nil, 0, err
	}
	if !ok {
		return nil, 0, fmt.Errorf("engine: no checkpoint to ship (the log still holds every record)")
	}
	return data, lsn, nil
}

// DurableLSN returns the log's commit horizon: the LSN of the newest durable
// record (0 for a non-durable engine). On a follower this is the applied
// ingest position; on a primary, the newest committed operation.
func (db *DB) DurableLSN() uint64 {
	if db.wal == nil {
		return 0
	}
	// The replicated ingest advances the log before it publishes the
	// records' effects, both under replMu: reading under it too keeps a
	// follower's horizon from running ahead of what its reads can see.
	db.replMu.Lock()
	defer db.replMu.Unlock()
	return db.wal.LSN()
}
