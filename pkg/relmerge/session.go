package relmerge

import (
	"context"

	"repro/internal/server"
)

// Session is the unified operational API: inserts, deletes, updates, key
// lookups, atomic batches, the (single, global) transaction, stats, and
// checkpoints. Open returns it for every backend — embedded engine, remote
// client, sharded router, follower — so workload drivers, the CLI, and
// benchmarks run unchanged against any of them.
//
// Every operation has a Ctx variant; the non-Ctx form delegates to it with
// context.Background(). Errors carry the same taxonomy on both backends:
// errors.Is against the package sentinels, errors.As against
// *ConstraintViolation, and Code all behave identically whether the engine
// is in-process or across the wire.
type Session interface {
	// Insert adds one tuple, enforcing all constraints.
	Insert(relName string, tup Tuple) error
	InsertCtx(ctx context.Context, relName string, tup Tuple) error
	// Delete removes the tuple with the given primary key.
	Delete(relName string, key Tuple) error
	DeleteCtx(ctx context.Context, relName string, key Tuple) error
	// Update replaces the tuple with the given primary key.
	Update(relName string, key, tup Tuple) error
	UpdateCtx(ctx context.Context, relName string, key, tup Tuple) error
	// Fetch looks up one tuple by primary key; found=false (with nil error)
	// reports a clean miss.
	Fetch(relName string, key Tuple) (tup Tuple, found bool, err error)
	FetchCtx(ctx context.Context, relName string, key Tuple) (Tuple, bool, error)
	// InsertBatch inserts tuples as one atomic group (one lock acquisition,
	// one WAL record).
	InsertBatch(relName string, tuples []Tuple) error
	InsertBatchCtx(ctx context.Context, relName string, tuples []Tuple) error
	// ApplyBatch applies a mixed batch of Ins/Del/Upd ops atomically.
	ApplyBatch(ops []BatchOp) error
	ApplyBatchCtx(ctx context.Context, ops []BatchOp) error
	// Begin/Commit/Rollback drive the engine's single global transaction.
	Begin() error
	BeginCtx(ctx context.Context) error
	Commit() error
	CommitCtx(ctx context.Context) error
	Rollback() error
	RollbackCtx(ctx context.Context) error
	// Stats returns the engine's monotonic operation counters.
	Stats() (EngineStats, error)
	StatsCtx(ctx context.Context) (EngineStats, error)
	// Checkpoint snapshots a durable engine's state into its WAL
	// (ErrNotDurable otherwise).
	Checkpoint() error
	CheckpointCtx(ctx context.Context) error
	// ApplyRecommendation migrates the live design onto a merge the advisor
	// recommended (see Advise). Backends that own their design (Embedded,
	// Sharded) re-derive the merge on the current schema and migrate through
	// one atomic schema-change; Remote and Follower sessions return
	// ErrUnsupported (CodeUnsupported) — the design is the server's,
	// respectively the primary's, to change.
	ApplyRecommendation(ctx context.Context, rec Recommendation) error
	// Close releases the session. Closing an embedded session closes the
	// engine (and its WAL); closing a remote session closes the connection
	// pool, leaving the server running.
	Close() error
}

// EmbeddedSession adapts an in-process *Engine to the Session interface.
type EmbeddedSession struct {
	eng *Engine
	// advStop stops the background advisor loop, when Open started one
	// (WithAdvisor / Config.Advisor); nil otherwise.
	advStop func()
}

// NewSession wraps an already-open engine. The caller keeps full access to
// the engine; the session is a view, not a transfer of ownership — but
// Close does close the engine.
func NewSession(e *Engine) *EmbeddedSession { return &EmbeddedSession{eng: e} }

// Engine returns the wrapped engine, for callers that need APIs beyond the
// Session surface (Scan, Snapshot, Count, recovery info).
func (s *EmbeddedSession) Engine() *Engine { return s.eng }

// View pins the engine's current published MVCC version as a consistent,
// lock-free read view: repeated reads through it are repeatable (they never
// observe later commits), and a batch is visible either whole or not at all.
// It is an embedded-only capability — a remote session's reads are each
// individually snapshot-consistent, but pinning a version across calls
// requires sharing the engine's memory.
func (s *EmbeddedSession) View() *EngineView { return s.eng.View() }

func (s *EmbeddedSession) Insert(relName string, tup Tuple) error {
	return s.InsertCtx(context.Background(), relName, tup)
}

func (s *EmbeddedSession) InsertCtx(ctx context.Context, relName string, tup Tuple) error {
	return s.eng.InsertCtx(ctx, relName, tup)
}

func (s *EmbeddedSession) Delete(relName string, key Tuple) error {
	return s.DeleteCtx(context.Background(), relName, key)
}

func (s *EmbeddedSession) DeleteCtx(ctx context.Context, relName string, key Tuple) error {
	return s.eng.DeleteCtx(ctx, relName, key)
}

func (s *EmbeddedSession) Update(relName string, key, tup Tuple) error {
	return s.UpdateCtx(context.Background(), relName, key, tup)
}

func (s *EmbeddedSession) UpdateCtx(ctx context.Context, relName string, key, tup Tuple) error {
	return s.eng.UpdateCtx(ctx, relName, key, tup)
}

func (s *EmbeddedSession) Fetch(relName string, key Tuple) (Tuple, bool, error) {
	return s.FetchCtx(context.Background(), relName, key)
}

func (s *EmbeddedSession) FetchCtx(ctx context.Context, relName string, key Tuple) (Tuple, bool, error) {
	return s.eng.GetByKeyCtx(ctx, relName, key)
}

func (s *EmbeddedSession) InsertBatch(relName string, tuples []Tuple) error {
	return s.InsertBatchCtx(context.Background(), relName, tuples)
}

func (s *EmbeddedSession) InsertBatchCtx(ctx context.Context, relName string, tuples []Tuple) error {
	return s.eng.InsertBatchCtx(ctx, relName, tuples)
}

func (s *EmbeddedSession) ApplyBatch(ops []BatchOp) error {
	return s.ApplyBatchCtx(context.Background(), ops)
}

func (s *EmbeddedSession) ApplyBatchCtx(ctx context.Context, ops []BatchOp) error {
	return s.eng.ApplyBatchCtx(ctx, ops)
}

func (s *EmbeddedSession) Begin() error { return s.BeginCtx(context.Background()) }

func (s *EmbeddedSession) BeginCtx(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return server.TxnError(s.eng.Begin())
}

func (s *EmbeddedSession) Commit() error { return s.CommitCtx(context.Background()) }

func (s *EmbeddedSession) CommitCtx(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return server.TxnError(s.eng.Commit())
}

func (s *EmbeddedSession) Rollback() error { return s.RollbackCtx(context.Background()) }

func (s *EmbeddedSession) RollbackCtx(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return server.TxnError(s.eng.Rollback())
}

func (s *EmbeddedSession) Stats() (EngineStats, error) {
	return s.StatsCtx(context.Background())
}

func (s *EmbeddedSession) StatsCtx(ctx context.Context) (EngineStats, error) {
	if err := ctx.Err(); err != nil {
		return EngineStats{}, err
	}
	return s.eng.Stats(), nil
}

func (s *EmbeddedSession) Checkpoint() error { return s.CheckpointCtx(context.Background()) }

func (s *EmbeddedSession) CheckpointCtx(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return s.eng.Checkpoint()
}

func (s *EmbeddedSession) Close() error {
	if s.advStop != nil {
		s.advStop()
		s.advStop = nil
	}
	return s.eng.Close()
}

var _ Session = (*EmbeddedSession)(nil)
