package engine

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/relation"
	"repro/internal/sdl"
	"repro/internal/state"
	"repro/internal/wal"
)

// This file wires the write-ahead log (internal/wal) into the engine.
//
// Logging discipline: every successful mutating operation — single op or
// whole batch — is logged as ONE record holding all of its physical effects,
// appended and made durable in one wal.Commit while the operation still
// holds its table locks. If the log rejects the record the operation reverts
// its in-memory effects and fails, so memory and disk always agree on the
// committed prefix. Transaction Begin/Commit/Rollback are logged as marker
// records under txnMu, the same mutex that orders the transaction's effect
// records, so replay sees markers and effects in a consistent order.
//
// Recovery (on Open): load the newest snapshot, replay the surviving log
// suffix — buffering records flagged in-transaction and applying them only
// when their commit marker arrives, discarding rolled-back or unterminated
// suffixes — then re-validate the reconstructed state against every
// dependency and constraint of the schema (F ∪ I ∪ N) before loading it.

// WithDurability opens the engine's write-ahead log in dir with the given
// fsync policy. If dir already holds a log, Open recovers from it first; the
// engine then starts from the recovered state (see DB.Recovered).
func WithDurability(dir string, policy wal.SyncPolicy) Option {
	return func(c *openConfig) {
		c.walDir = dir
		c.walOpts = wal.Options{Policy: policy}
	}
}

// WithWALOptions is WithDurability with full control of the log options
// (segment size, fsync interval, failpoints); the crash-recovery tests use
// it to inject faults.
func WithWALOptions(dir string, opts wal.Options) Option {
	return func(c *openConfig) {
		c.walDir = dir
		c.walOpts = opts
	}
}

// AsReplica marks the engine as a replication follower: its mutations arrive
// as primary-shipped WAL records (IngestReplicated), so a log ending inside
// an unterminated transaction is resumable — the commit marker is still in
// flight from the primary — and recovery seeds the ingest buffer from it
// instead of discarding it. A primary opened without this option discards
// such a suffix (its transaction died with the crash; no marker can arrive)
// and may checkpoint right past it.
func AsReplica() Option {
	return func(c *openConfig) { c.replica = true }
}

// RecoveryInfo describes what Open reconstructed from the write-ahead log.
type RecoveryInfo struct {
	// Recovered reports whether the log held anything to restore.
	Recovered bool
	// SnapshotLoaded reports whether a checkpoint snapshot was restored.
	SnapshotLoaded bool
	// ReplayedOps counts logged mutations applied during replay.
	ReplayedOps int
	// DiscardedOps counts mutations dropped because their transaction never
	// committed (rolled back, or cut off by the crash).
	DiscardedOps int
	// SkippedRecords counts duplicate or snapshot-covered records the log
	// layer dropped.
	SkippedRecords int
	// TruncatedBytes counts torn or corrupt trailing bytes discarded.
	TruncatedBytes int64
	// SchemaChanges counts schema-change records replayed: each one rebound
	// the engine onto a migrated design mid-replay.
	SchemaChanges int
}

// Recovered returns what Open reconstructed from the write-ahead log (the
// zero value for a non-durable engine or an empty log directory).
func (db *DB) Recovered() RecoveryInfo { return db.recovery }

// Durable reports whether the engine was opened with a write-ahead log.
func (db *DB) Durable() bool { return db.wal != nil }

// Checkpoint serializes the full current state, makes it the log's recovery
// baseline, and truncates the superseded log (wal.Log.Checkpoint). It takes
// every table's read lock to quiesce writers — the WAL's covered LSN must
// match the serialized state — but concurrent lock-free readers proceed
// unimpeded on their pinned versions throughout (the P8 benchmark suite
// measures exactly this: fetch p99 stays bounded during checkpoints).
// Checkpointing inside an open transaction is refused with
// ErrOpenTransaction.
func (db *DB) Checkpoint() error {
	if db.wal == nil {
		return ErrNotDurable
	}
	// schemaMu first (the global order is schemaMu → replMu → table locks →
	// txnMu): the snapshot must serialize one design — never a schema mid-swap.
	db.schemaMu.RLock()
	defer db.schemaMu.RUnlock()
	// replMu next (the replication paths order replMu before table locks):
	// holding it for the whole checkpoint closes the window inside
	// IngestReplicated between the durable append (which advances the WAL
	// LSN) and the state apply — a snapshot stamped in that window would
	// cover records whose effects it does not contain.
	db.replMu.Lock()
	defer db.replMu.Unlock()
	ls := db.lm.allRead()
	db.acquire(ls)
	defer ls.release()
	db.txnMu.Lock()
	defer db.txnMu.Unlock()
	if db.inTxn.Load() {
		return fmt.Errorf("%w: cannot checkpoint until it commits or rolls back", ErrOpenTransaction)
	}
	if len(db.replPending) > 0 {
		// A shipped transaction is buffered: the WAL LSN is already past its
		// op records but their effects are not in the state. A snapshot
		// stamped here would truncate those records; after a restart the
		// commit marker would apply an empty buffer and the transaction
		// would silently vanish from the replica.
		return fmt.Errorf("%w: a replicated transaction (%d buffered ops) awaits its commit marker; cannot checkpoint until it arrives", ErrOpenTransaction, len(db.replPending))
	}
	// Writers are quiesced, so the current published version IS the
	// committed state the log's LSN refers to. The snapshot is framed with
	// the schema that produced it: after a live migration the design on disk
	// must be self-describing, not assumed equal to the Open-time schema.
	st := stateOf(db.current.Load())
	payload := encodeSnapshot(sdl.PrintSchema(db.Schema), sdl.PrintState(db.Schema, st))
	if err := db.wal.Checkpoint(payload); err != nil {
		return fmt.Errorf("engine: checkpoint: %w", err)
	}
	return nil
}

// Close flushes and closes the write-ahead log (a no-op for non-durable
// engines). The engine must not be used afterwards.
func (db *DB) Close() error {
	if db.wal == nil {
		return nil
	}
	return db.wal.Close()
}

// openDurable opens the log, replays whatever it holds into the engine, and
// only then attaches the log so recovery itself is not re-logged.
func (db *DB) openDurable(dir string, opts wal.Options) error {
	if opts.Registry == nil {
		opts.Registry = db.reg
	}
	if opts.Name == "" {
		opts.Name = db.obsName
	}
	l, rec, err := wal.Open(dir, opts)
	if err != nil {
		return fmt.Errorf("engine: opening wal: %w", err)
	}
	if err := db.recover(rec); err != nil {
		l.Close()
		return err
	}
	db.wal = l
	return nil
}

// recover reconstructs the committed pre-crash state from a wal recovery and
// loads it into the (empty) engine.
func (db *DB) recover(rec *Recovery) error {
	db.recovery = RecoveryInfo{
		SkippedRecords: rec.SkippedRecords,
		TruncatedBytes: rec.TruncatedBytes,
	}
	st := state.New(db.Schema)
	if rec.Snapshot != nil {
		schemaSDL, stateSDL, err := decodeSnapshot(rec.Snapshot)
		if err != nil {
			return fmt.Errorf("%w: parsing snapshot: %v", ErrRecovery, err)
		}
		// A snapshot is self-describing: if it was taken after a live
		// migration its schema differs from the Open-time one, and the engine
		// rebinds onto the serialized design before parsing the state.
		if schemaSDL != sdl.PrintSchema(db.Schema) {
			if err := db.rebind(schemaSDL); err != nil {
				return fmt.Errorf("%w: rebinding onto snapshot schema: %v", ErrRecovery, err)
			}
		}
		parsed, err := sdl.ParseState(db.Schema, stateSDL)
		if err != nil {
			return fmt.Errorf("%w: parsing snapshot: %v", ErrRecovery, err)
		}
		st = parsed
		db.recovery.SnapshotLoaded = true
	}
	apply := func(ops []walOp) error {
		for _, op := range ops {
			if err := st.Apply(op.rel, op.insert, op.tup); err != nil {
				return fmt.Errorf("%w: replaying record: %v", ErrRecovery, err)
			}
		}
		db.recovery.ReplayedOps += len(ops)
		return nil
	}
	// Replay: non-transactional records apply immediately; transactional
	// ones are buffered until their commit marker. A rollback marker — or
	// the end of the log — discards the buffered suffix, which is exactly
	// the all-or-nothing transaction semantics the live engine enforces.
	var pending []walOp
	for _, r := range rec.Records {
		kind, ops, inTxn, err := decodeWalRecord(r.Payload)
		if err != nil {
			return err
		}
		switch kind {
		case walRecBegin:
			pending = pending[:0]
		case walRecCommit:
			if err := apply(pending); err != nil {
				return err
			}
			pending = nil
		case walRecRollback:
			db.recovery.DiscardedOps += len(pending)
			pending = nil
		case walRecOp:
			if inTxn {
				pending = append(pending, ops...)
			} else if err := apply(ops); err != nil {
				return err
			}
		case walRecSchema:
			// A live migration committed here: everything before this record
			// is pre-merge, everything after is post-merge. The record is
			// self-contained — new schema plus the fully mapped state — so
			// replay lands exactly on the post-merge design with no η
			// re-derivation. Migrations are refused inside transactions, so a
			// non-empty buffer here means a corrupt log.
			if len(pending) > 0 {
				return fmt.Errorf("%w: schema-change record inside an open transaction at LSN %d", ErrRecovery, r.LSN)
			}
			schemaSDL, stateSDL, err := decodeSchemaRecord(r.Payload)
			if err != nil {
				return err
			}
			if err := db.rebind(schemaSDL); err != nil {
				return fmt.Errorf("%w: rebinding onto migrated schema: %v", ErrRecovery, err)
			}
			migrated, err := sdl.ParseState(db.Schema, stateSDL)
			if err != nil {
				return fmt.Errorf("%w: parsing migrated state: %v", ErrRecovery, err)
			}
			st = migrated
			db.recovery.SchemaChanges++
		default:
			return fmt.Errorf("%w: unknown record kind %d at LSN %d", ErrRecovery, kind, r.LSN)
		}
	}
	db.recovery.DiscardedOps += len(pending)
	// The unterminated suffix is discarded from the recovered state (the
	// transaction never committed). On a replica it is additionally retained
	// for the replication applier: the commit marker is still in flight from
	// the primary and these ops are already durable in the local log, so the
	// applier resumes the buffer instead of losing them (replica.go) — and
	// Checkpoint refuses until the marker arrives. On a primary the suffix is
	// dead (its transaction died with the crash; no marker can ever arrive),
	// so seeding the buffer would block checkpoints forever.
	if db.replica {
		db.replPending = append([]walOp(nil), pending...)
	}
	db.recovery.Recovered = rec.Snapshot != nil || len(rec.Records) > 0
	if !db.recovery.Recovered {
		return nil
	}
	// A byte-accurate replay is not enough: the recovered state must still
	// satisfy F ∪ I ∪ N (cf. the fragility of FDs and INDs over states with
	// nulls under partial writes — arXiv:2108.02581, arXiv:1703.08198).
	// A partition engine holds one hash-slice of every relation, so its
	// local state cannot be expected to satisfy the cross-relation inclusion
	// dependencies on its own; those are re-checked router-wide once every
	// shard has recovered (shard.Open), and the local re-validation covers
	// everything else (FDs, keys, null constraints).
	valSchema := db.Schema
	if db.partition {
		sc := *db.Schema
		sc.INDs = nil
		valSchema = &sc
	}
	if err := state.Consistent(valSchema, st); err != nil {
		return fmt.Errorf("%w: recovered state fails constraint re-validation: %v", ErrRecovery, err)
	}
	if err := db.Load(st); err != nil {
		return fmt.Errorf("%w: reloading recovered state: %v", ErrRecovery, err)
	}
	return nil
}

// Recovery is re-exported so engine tests and callers can speak about wal
// recoveries without importing internal/wal directly.
type Recovery = wal.Recovery

// Record kinds of the engine's log encoding. An op record carries every
// physical effect of one operation (or one whole batch); the marker kinds
// delimit transactions.
const (
	walRecOp       byte = 1
	walRecBegin    byte = 2
	walRecCommit   byte = 3
	walRecRollback byte = 4
	// walRecSchema is one live schema migration: the new schema and the
	// fully η-mapped state, self-contained so recovery lands atomically on
	// either side of it — never a mix of designs.
	walRecSchema byte = 5
)

// rebind parses a schema and swaps the engine's schema-derived structures
// onto it: a fresh binding is installed and the published version chain is
// reset to an empty version-zero of the new design (recovery reloads state
// afterwards). Only the recovery and replication ingest paths call it — the
// live-migration path (MigrateSchema) builds its binding and its mapped
// versions together.
func (db *DB) rebind(schemaSDL string) error {
	ns, err := sdl.ParseSchema(schemaSDL)
	if err != nil {
		return fmt.Errorf("parsing schema: %w", err)
	}
	b, err := db.newBinding(ns)
	if err != nil {
		return fmt.Errorf("binding schema: %w", err)
	}
	db.install(b)
	db.current.Store(&dbSnapshot{tables: emptyVersions(b), bind: b})
	return nil
}

// snapMagic frames checkpoint snapshots, which embed their own schema.
const snapMagic = "RMSNAP2\n"

// encodeSnapshot frames a checkpoint payload: magic, length-prefixed schema
// SDL, then state SDL to the end.
func encodeSnapshot(schemaSDL, stateSDL string) []byte {
	buf := make([]byte, 0, len(snapMagic)+10+len(schemaSDL)+len(stateSDL))
	buf = append(buf, snapMagic...)
	buf = binary.AppendUvarint(buf, uint64(len(schemaSDL)))
	buf = append(buf, schemaSDL...)
	buf = append(buf, stateSDL...)
	return buf
}

// decodeSnapshot splits a checkpoint payload into schema and state SDL. A
// payload without the magic is refused.
func decodeSnapshot(b []byte) (schemaSDL, stateSDL string, err error) {
	if len(b) < len(snapMagic) || string(b[:len(snapMagic)]) != snapMagic {
		return "", "", fmt.Errorf("missing %q frame", snapMagic)
	}
	d := &walDecoder{b: b[len(snapMagic):]}
	schemaSDL = d.str()
	if d.err != nil {
		return "", "", fmt.Errorf("corrupt snapshot frame: %w", d.err)
	}
	return schemaSDL, string(d.b), nil
}

// encodeSchemaRecord renders one schema-change record:
//
//	[kind=5][uvarint len][schema SDL][uvarint len][state SDL]
func encodeSchemaRecord(schemaSDL, stateSDL string) []byte {
	buf := make([]byte, 0, 1+20+len(schemaSDL)+len(stateSDL))
	buf = append(buf, walRecSchema)
	buf = binary.AppendUvarint(buf, uint64(len(schemaSDL)))
	buf = append(buf, schemaSDL...)
	buf = binary.AppendUvarint(buf, uint64(len(stateSDL)))
	buf = append(buf, stateSDL...)
	return buf
}

// decodeSchemaRecord parses a walRecSchema payload (including its kind byte).
func decodeSchemaRecord(b []byte) (schemaSDL, stateSDL string, err error) {
	if len(b) == 0 || b[0] != walRecSchema {
		return "", "", fmt.Errorf("%w: not a schema-change record", ErrRecovery)
	}
	d := &walDecoder{b: b[1:]}
	schemaSDL = d.str()
	stateSDL = d.str()
	if d.err != nil {
		return "", "", fmt.Errorf("%w: corrupt schema-change record: %v", ErrRecovery, d.err)
	}
	return schemaSDL, stateSDL, nil
}

// walOp is one decoded physical mutation.
type walOp struct {
	rel    string
	insert bool
	tup    relation.Tuple
}

// logOp logs one operation's effects as a single record (group commit: the
// whole batch costs one write and at most one fsync) and returns the
// record's LSN — the version stamp the publish carries. Non-durable engines
// draw the stamp from a logical sequence counter instead. Called with the
// operation's table locks held; a failure means the record is not on disk
// (the log truncates its own torn tail) and the caller must not publish.
func (db *DB) logOp(eff effects, inTxn bool) (uint64, error) {
	if db.wal == nil || len(eff) == 0 {
		return db.seq.Add(1), nil
	}
	lsn, err := db.wal.Commit(encodeOpRecord(eff, inTxn))
	if err != nil {
		return 0, fmt.Errorf("engine: logging operation: %w", err)
	}
	return lsn, nil
}

// logMarker logs a transaction marker record, returning its LSN (zero for a
// non-durable engine: markers publish no version, so they draw no stamp).
func (db *DB) logMarker(kind byte) (uint64, error) {
	if db.wal == nil {
		return 0, nil
	}
	lsn, err := db.wal.Commit([]byte{kind})
	if err != nil {
		return 0, fmt.Errorf("engine: logging transaction marker: %w", err)
	}
	return lsn, nil
}

// encodeOpRecord renders one operation's effects:
//
//	[kind=1][inTxn byte][uvarint n] then n × ([dir byte][uvarint len][rel]
//	[uvarint arity] arity × value)
//
// Values encode as a kind byte plus payload (varint int, 8-byte float bits,
// length-prefixed string, bool byte; null has no payload).
func encodeOpRecord(eff effects, inTxn bool) []byte {
	buf := make([]byte, 0, 64*len(eff))
	buf = append(buf, walRecOp, boolByte(inTxn))
	buf = binary.AppendUvarint(buf, uint64(len(eff)))
	for _, op := range eff {
		buf = append(buf, boolByte(op.insert))
		name := op.table.rs.Name
		buf = binary.AppendUvarint(buf, uint64(len(name)))
		buf = append(buf, name...)
		buf = binary.AppendUvarint(buf, uint64(len(op.tuple)))
		for _, v := range op.tuple {
			buf = appendValue(buf, v)
		}
	}
	return buf
}

// decodeWalRecord parses any record kind; ops and inTxn are only meaningful
// for kind walRecOp.
func decodeWalRecord(b []byte) (kind byte, ops []walOp, inTxn bool, err error) {
	if len(b) == 0 {
		return 0, nil, false, fmt.Errorf("%w: empty log record", ErrRecovery)
	}
	kind = b[0]
	if kind != walRecOp {
		return kind, nil, false, nil
	}
	d := &walDecoder{b: b[1:]}
	inTxn = d.byte() != 0
	n := d.uvarint()
	for i := uint64(0); i < n && d.err == nil; i++ {
		var op walOp
		op.insert = d.byte() != 0
		op.rel = d.str()
		arity := d.uvarint()
		op.tup = make(relation.Tuple, 0, arity)
		for j := uint64(0); j < arity && d.err == nil; j++ {
			op.tup = append(op.tup, d.value())
		}
		ops = append(ops, op)
	}
	if d.err != nil {
		return 0, nil, false, fmt.Errorf("%w: corrupt op record: %v", ErrRecovery, d.err)
	}
	return kind, ops, inTxn, nil
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

func appendValue(buf []byte, v relation.Value) []byte {
	buf = append(buf, byte(v.Kind()))
	switch v.Kind() {
	case relation.KindNull:
	case relation.KindString:
		s := v.AsString()
		buf = binary.AppendUvarint(buf, uint64(len(s)))
		buf = append(buf, s...)
	case relation.KindInt:
		buf = binary.AppendVarint(buf, v.AsInt())
	case relation.KindFloat:
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.AsFloat()))
	case relation.KindBool:
		buf = append(buf, boolByte(v.AsBool()))
	}
	return buf
}

// walDecoder is a cursor over an op record body with sticky error handling.
type walDecoder struct {
	b   []byte
	err error
}

func (d *walDecoder) fail(msg string) {
	if d.err == nil {
		d.err = fmt.Errorf("%s", msg)
	}
}

func (d *walDecoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if len(d.b) == 0 {
		d.fail("truncated byte")
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *walDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("truncated uvarint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *walDecoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail("truncated varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *walDecoder) str() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if uint64(len(d.b)) < n {
		d.fail("truncated string")
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

func (d *walDecoder) value() relation.Value {
	switch relation.Kind(d.byte()) {
	case relation.KindNull:
		return relation.Null()
	case relation.KindString:
		return relation.NewString(d.str())
	case relation.KindInt:
		return relation.NewInt(d.varint())
	case relation.KindFloat:
		if d.err == nil && len(d.b) < 8 {
			d.fail("truncated float")
		}
		if d.err != nil {
			return relation.Null()
		}
		bits := binary.LittleEndian.Uint64(d.b)
		d.b = d.b[8:]
		return relation.NewFloat(math.Float64frombits(bits))
	case relation.KindBool:
		return relation.NewBool(d.byte() != 0)
	default:
		d.fail("unknown value kind")
		return relation.Null()
	}
}
