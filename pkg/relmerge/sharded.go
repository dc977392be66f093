package relmerge

import (
	"context"

	"repro/internal/server"
	"repro/internal/shard"
)

// ShardedSession adapts a shard router — N independent engines behind a
// hash-partitioning, cross-shard-constraint-checking front — to the Session
// interface. Open with Open(Config{Backend: Sharded, ...}); the conformance
// suite runs against it unchanged, including constraint-violation kinds for
// dependencies whose two sides live on different shards.
type ShardedSession struct {
	r *shard.Router
	// advStop stops the background advisor loop, when Open started one
	// (WithAdvisor / Config.Advisor); nil otherwise.
	advStop func()
}

// ShardedView is a read view pinned across every shard's current MVCC
// version, re-exported from internal/shard.
type ShardedView = shard.View

// NewShardedSession wraps an already-open router (see shard.Open); most
// callers use Open(Config{Backend: Sharded}) instead. Close closes every
// shard engine.
func NewShardedSession(r *shard.Router) *ShardedSession { return &ShardedSession{r: r} }

// Router returns the wrapped router, for callers that need APIs beyond the
// Session surface (per-shard engines, probe stats, views).
func (s *ShardedSession) Router() *shard.Router { return s.r }

// View pins every shard's current MVCC version as one read view (per-shard
// consistent; see shard.Router.View).
func (s *ShardedSession) View() *ShardedView { return s.r.View() }

func (s *ShardedSession) Insert(relName string, tup Tuple) error {
	return s.r.Insert(relName, tup)
}

func (s *ShardedSession) InsertCtx(ctx context.Context, relName string, tup Tuple) error {
	return s.r.InsertCtx(ctx, relName, tup)
}

func (s *ShardedSession) Delete(relName string, key Tuple) error {
	return s.r.Delete(relName, key)
}

func (s *ShardedSession) DeleteCtx(ctx context.Context, relName string, key Tuple) error {
	return s.r.DeleteCtx(ctx, relName, key)
}

func (s *ShardedSession) Update(relName string, key, tup Tuple) error {
	return s.r.Update(relName, key, tup)
}

func (s *ShardedSession) UpdateCtx(ctx context.Context, relName string, key, tup Tuple) error {
	return s.r.UpdateCtx(ctx, relName, key, tup)
}

func (s *ShardedSession) Fetch(relName string, key Tuple) (Tuple, bool, error) {
	return s.FetchCtx(context.Background(), relName, key)
}

func (s *ShardedSession) FetchCtx(ctx context.Context, relName string, key Tuple) (Tuple, bool, error) {
	return s.r.GetByKeyCtx(ctx, relName, key)
}

func (s *ShardedSession) InsertBatch(relName string, tuples []Tuple) error {
	return s.r.InsertBatch(relName, tuples)
}

func (s *ShardedSession) InsertBatchCtx(ctx context.Context, relName string, tuples []Tuple) error {
	return s.r.InsertBatchCtx(ctx, relName, tuples)
}

func (s *ShardedSession) ApplyBatch(ops []BatchOp) error {
	return s.r.ApplyBatch(ops)
}

func (s *ShardedSession) ApplyBatchCtx(ctx context.Context, ops []BatchOp) error {
	return s.r.ApplyBatchCtx(ctx, ops)
}

func (s *ShardedSession) Begin() error { return s.BeginCtx(context.Background()) }

func (s *ShardedSession) BeginCtx(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return server.TxnError(s.r.Begin())
}

func (s *ShardedSession) Commit() error { return s.CommitCtx(context.Background()) }

func (s *ShardedSession) CommitCtx(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return server.TxnError(s.r.Commit())
}

func (s *ShardedSession) Rollback() error { return s.RollbackCtx(context.Background()) }

func (s *ShardedSession) RollbackCtx(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return server.TxnError(s.r.Rollback())
}

func (s *ShardedSession) Stats() (EngineStats, error) {
	return s.StatsCtx(context.Background())
}

func (s *ShardedSession) StatsCtx(ctx context.Context) (EngineStats, error) {
	if err := ctx.Err(); err != nil {
		return EngineStats{}, err
	}
	return s.r.Stats(), nil
}

func (s *ShardedSession) Checkpoint() error { return s.CheckpointCtx(context.Background()) }

func (s *ShardedSession) CheckpointCtx(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return s.r.Checkpoint()
}

func (s *ShardedSession) Close() error {
	if s.advStop != nil {
		s.advStop()
		s.advStop = nil
	}
	return s.r.Close()
}

var _ Session = (*ShardedSession)(nil)
