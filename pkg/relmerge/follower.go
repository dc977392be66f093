package relmerge

import (
	"context"

	"repro/internal/repl"
	"repro/internal/server"
)

// ReplicationInfo is a point-in-time view of a follower's replication state:
// applied and commit LSNs, shipping lag, last primary contact, promotion, and
// the sticky error (if any) that broke replication.
type ReplicationInfo = repl.Info

// FollowerSession is the Session over a WAL-shipping replica: reads serve
// lock-free from the local engine pinned at the follower's applied-LSN
// horizon, while every write fails with ErrReadOnly (CodeReadOnly) until
// Promote. Open one with Open(Config{Backend: Follower, Schema: s, Addr:
// primary, DurableDir: dir}); the Schema must be the primary's serving
// schema, since shipped records and bootstrap snapshots are decoded against
// it.
//
// A follower whose shipped stream turns out to be untrustworthy — a gap, a
// corrupt snapshot — fails sticky: reads refuse with ErrRecovery rather than
// serving a state known to miss committed records. Transient primary
// outages, by contrast, leave reads serving at the applied horizon while the
// shipping loop retries.
type FollowerSession struct {
	f *repl.Follower
	b *repl.Backend
}

// NewFollowerSession wraps an already-open follower. Close stops shipping
// and closes the follower's engine.
func NewFollowerSession(f *repl.Follower) *FollowerSession {
	return &FollowerSession{f: f, b: f.Backend()}
}

// Engine returns the follower's local engine, for read APIs beyond the
// Session surface (Scan, Snapshot, View). Writing to it directly would
// diverge the replica — use Promote first.
func (s *FollowerSession) Engine() *Engine { return s.f.DB() }

// View pins the follower's current applied version as a consistent,
// lock-free read view (see EmbeddedSession.View).
func (s *FollowerSession) View() *EngineView { return s.f.DB().View() }

// ReplicationInfo returns the follower's current replication state.
func (s *FollowerSession) ReplicationInfo() ReplicationInfo { return s.f.Info() }

// Promote stops shipping and opens the session for writes: the follower
// becomes a primary over exactly the acked prefix its log holds, continuing
// the primary's LSN sequence. Irreversible; refused on a broken follower.
func (s *FollowerSession) Promote() error { return s.f.Promote() }

func (s *FollowerSession) Insert(relName string, tup Tuple) error {
	return s.InsertCtx(context.Background(), relName, tup)
}

func (s *FollowerSession) InsertCtx(ctx context.Context, relName string, tup Tuple) error {
	return s.b.InsertCtx(ctx, relName, tup)
}

func (s *FollowerSession) Delete(relName string, key Tuple) error {
	return s.DeleteCtx(context.Background(), relName, key)
}

func (s *FollowerSession) DeleteCtx(ctx context.Context, relName string, key Tuple) error {
	return s.b.DeleteCtx(ctx, relName, key)
}

func (s *FollowerSession) Update(relName string, key, tup Tuple) error {
	return s.UpdateCtx(context.Background(), relName, key, tup)
}

func (s *FollowerSession) UpdateCtx(ctx context.Context, relName string, key, tup Tuple) error {
	return s.b.UpdateCtx(ctx, relName, key, tup)
}

func (s *FollowerSession) Fetch(relName string, key Tuple) (Tuple, bool, error) {
	return s.FetchCtx(context.Background(), relName, key)
}

func (s *FollowerSession) FetchCtx(ctx context.Context, relName string, key Tuple) (Tuple, bool, error) {
	return s.b.GetByKeyCtx(ctx, relName, key)
}

func (s *FollowerSession) InsertBatch(relName string, tuples []Tuple) error {
	return s.InsertBatchCtx(context.Background(), relName, tuples)
}

func (s *FollowerSession) InsertBatchCtx(ctx context.Context, relName string, tuples []Tuple) error {
	return s.b.InsertBatchCtx(ctx, relName, tuples)
}

func (s *FollowerSession) ApplyBatch(ops []BatchOp) error {
	return s.ApplyBatchCtx(context.Background(), ops)
}

func (s *FollowerSession) ApplyBatchCtx(ctx context.Context, ops []BatchOp) error {
	return s.b.ApplyBatchCtx(ctx, ops)
}

func (s *FollowerSession) Begin() error { return s.BeginCtx(context.Background()) }

func (s *FollowerSession) BeginCtx(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return server.TxnError(s.b.Begin())
}

func (s *FollowerSession) Commit() error { return s.CommitCtx(context.Background()) }

func (s *FollowerSession) CommitCtx(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return server.TxnError(s.b.Commit())
}

func (s *FollowerSession) Rollback() error { return s.RollbackCtx(context.Background()) }

func (s *FollowerSession) RollbackCtx(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return server.TxnError(s.b.Rollback())
}

func (s *FollowerSession) Stats() (EngineStats, error) {
	return s.StatsCtx(context.Background())
}

func (s *FollowerSession) StatsCtx(ctx context.Context) (EngineStats, error) {
	if err := ctx.Err(); err != nil {
		return EngineStats{}, err
	}
	return s.b.Stats(), nil
}

func (s *FollowerSession) Checkpoint() error { return s.CheckpointCtx(context.Background()) }

func (s *FollowerSession) CheckpointCtx(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return s.b.Checkpoint()
}

// Close stops the shipping loop, disconnects from the primary, and closes
// the follower's engine and log.
func (s *FollowerSession) Close() error { return s.b.Close() }

var _ Session = (*FollowerSession)(nil)
