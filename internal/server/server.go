package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/wal"
)

// Config tunes a Server. The zero value picks sensible defaults.
type Config struct {
	// Workers is the size of the request worker pool (default: GOMAXPROCS,
	// at least 4). The pool — not the connection count — bounds engine
	// concurrency.
	Workers int
	// QueueDepth bounds the admission queue (default 64). A request
	// arriving on a full queue is answered immediately with CodeOverloaded
	// instead of waiting: the client learns to back off while the queue
	// stays short enough that accepted requests meet their deadlines.
	QueueDepth int
	// MaxFrame bounds one protocol frame (default DefaultMaxFrame).
	MaxFrame int
	// CoalesceMax bounds how many queued write requests a worker folds into
	// one engine batch — one WAL record, one fsync — per dequeue (default
	// 16; 1 disables coalescing).
	CoalesceMax int
	// Registry receives server metrics (default obs.Default()).
	Registry *obs.Registry
	// Name labels this server's metrics (default "relmerged").
	Name string
	// Logf, when set, receives one line per lifecycle event and failed
	// connection (default: silent).
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
		if c.Workers < 4 {
			c.Workers = 4
		}
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.MaxFrame <= 0 {
		c.MaxFrame = DefaultMaxFrame
	}
	if c.CoalesceMax <= 0 {
		c.CoalesceMax = 16
	}
	if c.Registry == nil {
		c.Registry = obs.Default()
	}
	if c.Name == "" {
		c.Name = "relmerged"
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Backend is what the server serves: the engine's operational surface, as
// implemented by a single *engine.DB or by a shard router fronting several.
// The server is indifferent to which — every request dispatches through
// this interface, so `relmerged -shards N` is the same server wrapped
// around a different backend.
type Backend interface {
	InsertCtx(ctx context.Context, name string, tup relation.Tuple) error
	DeleteCtx(ctx context.Context, name string, key relation.Tuple) error
	UpdateCtx(ctx context.Context, name string, key, tup relation.Tuple) error
	GetByKeyCtx(ctx context.Context, name string, key relation.Tuple) (relation.Tuple, bool, error)
	InsertBatchCtx(ctx context.Context, name string, tuples []relation.Tuple) error
	ApplyBatchCtx(ctx context.Context, ops []engine.BatchOp) error
	Begin() error
	Commit() error
	Rollback() error
	// Stats returns the monotonic counters stamped with the current version
	// LSN (aggregated across shards for a router backend).
	Stats() engine.StatsSnapshot
	Checkpoint() error
	Durable() bool
	Close() error
}

// Replicator is the optional primary-side replication surface of a Backend.
// The server type-asserts for it when dispatching repl_* operations: a
// durable *engine.DB implements it; backends that cannot ship a log (shard
// routers, non-durable engines) answer CodeNotRepl instead.
type Replicator interface {
	// ReplRead returns committed records after afterLSN plus the commit
	// horizon; wal.ErrCompacted means the position predates the newest
	// checkpoint and the caller must bootstrap from ReplSnapshot.
	ReplRead(afterLSN uint64, maxRecords int) ([]wal.Record, uint64, error)
	// ReplSnapshot returns the newest checkpoint's payload and covered LSN.
	ReplSnapshot() ([]byte, uint64, error)
	// DurableLSN returns the log's commit horizon.
	DurableLSN() uint64
}

// Server serves engine operations over the relmerged wire protocol.
type Server struct {
	db  Backend
	cfg Config
	m   *serverMetrics

	baseCtx  context.Context
	baseStop context.CancelFunc

	queue chan *task

	mu       sync.Mutex
	ln       net.Listener
	conns    map[*srvConn]struct{}
	draining bool
	closed   bool

	connWG   sync.WaitGroup
	workerWG sync.WaitGroup
	reapOnce sync.Once
	reaped   chan struct{}
}

type srvConn struct {
	s  *Server
	nc net.Conn
	br *bufio.Reader // buffered reads: frame prefix + body without per-field syscalls

	rbuf []byte // connection-owned frame read buffer, reused across frames

	wmu sync.Mutex // serializes response frames

	mu       sync.Mutex
	inflight map[uint64]struct{}
}

// readFrame reads one frame body into the connection's reusable buffer.
func (c *srvConn) readFrame() ([]byte, error) {
	body, err := ReadFrameInto(c.br, c.s.cfg.MaxFrame, c.rbuf)
	if err != nil {
		return nil, err
	}
	c.rbuf = body // keep the (possibly grown) buffer for the next frame
	return body, nil
}

type task struct {
	c      *srvConn
	req    *Request
	ctx    context.Context
	cancel context.CancelFunc
	start  time.Time
}

// New builds a server around an open backend — an engine, or a shard
// router — and starts its worker pool. The server assumes ownership of the
// backend's lifecycle: a graceful Shutdown checkpoints (when durable) and
// closes it.
func New(db Backend, cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, stop := context.WithCancel(context.Background())
	s := &Server{
		db:       db,
		cfg:      cfg,
		m:        newServerMetrics(cfg.Registry, cfg.Name),
		baseCtx:  ctx,
		baseStop: stop,
		queue:    make(chan *task, cfg.QueueDepth),
		conns:    make(map[*srvConn]struct{}),
		reaped:   make(chan struct{}),
	}
	s.workerWG.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// Serve accepts connections on ln until Shutdown or Close. It returns nil
// after a shutdown, or the first accept error otherwise.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.draining || s.closed {
		s.mu.Unlock()
		ln.Close()
		return ErrClosed
	}
	s.ln = ln
	s.mu.Unlock()
	s.cfg.Logf("relmerged: serving on %s", ln.Addr())
	for {
		nc, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			stopping := s.draining || s.closed
			s.mu.Unlock()
			if stopping {
				return nil
			}
			return err
		}
		s.connWG.Add(1)
		go s.handleConn(nc)
	}
}

// ListenAndServe listens on addr and serves until shutdown.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Addr returns the serving address (nil before Serve).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Shutdown drains gracefully: stop accepting, stop reading new requests,
// finish every in-flight request (and write its response), checkpoint a
// durable engine, close the WAL, then close the connections. If ctx expires
// first, in-flight work is cancelled and connections are closed immediately.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	alreadyDraining := s.draining
	s.draining = true
	ln := s.ln
	conns := make([]*srvConn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if alreadyDraining {
		<-s.reaped
		return nil
	}
	s.m.drains.Inc()
	s.cfg.Logf("relmerged: draining (%d connections)", len(conns))
	if ln != nil {
		ln.Close()
	}
	// Unblock readers parked in ReadFrame; they observe draining and exit
	// without treating the deadline as a connection failure.
	for _, c := range conns {
		c.nc.SetReadDeadline(time.Now())
	}
	go s.reap()
	select {
	case <-s.reaped:
	case <-ctx.Done():
		s.baseStop() // cancel in-flight engine contexts
		s.closeConns()
		<-s.reaped
	}
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.closeConns()
	var err error
	if s.db.Durable() {
		if cerr := s.db.Checkpoint(); cerr != nil && !errors.Is(cerr, engine.ErrOpenTransaction) {
			err = cerr
		}
		if cerr := s.db.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	s.baseStop()
	s.cfg.Logf("relmerged: drained")
	return err
}

// Close kills the server abruptly — no drain, no checkpoint, no WAL close —
// simulating a crash. In-flight requests are cancelled and every connection
// is dropped. The engine is left untouched (and its WAL unsynced), so crash
// tests can reopen the directory and measure what recovery reconstructs.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	s.closed = true
	ln := s.ln
	s.mu.Unlock()
	s.baseStop()
	if ln != nil {
		ln.Close()
	}
	s.closeConns()
	go s.reap()
	<-s.reaped
	return nil
}

// reap waits for readers, closes the queue (no sender remains), and waits
// for workers to finish the remaining tasks.
func (s *Server) reap() {
	s.reapOnce.Do(func() {
		s.connWG.Wait()
		close(s.queue)
		s.workerWG.Wait()
		close(s.reaped)
	})
}

func (s *Server) closeConns() {
	s.mu.Lock()
	conns := make([]*srvConn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		c.nc.Close()
	}
}

func (s *Server) drainingNow() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

func (s *Server) handleConn(nc net.Conn) {
	defer s.connWG.Done()
	c := &srvConn{
		s:        s,
		nc:       nc,
		br:       bufio.NewReaderSize(nc, 16<<10),
		inflight: make(map[uint64]struct{}),
	}
	s.mu.Lock()
	if s.draining || s.closed {
		s.mu.Unlock()
		nc.Close()
		return
	}
	s.conns[c] = struct{}{}
	s.mu.Unlock()
	s.m.connections.Add(1)
	defer s.m.connections.Add(-1)

	// The hello is answered (or refused) before any worker can write to the
	// connection, so it needs no write lock.
	read, written, err := AcceptHello(c.br, nc, s.cfg.MaxFrame)
	s.m.bytesRead.Add(int64(read))
	s.m.bytesWritten.Add(int64(written))
	if err != nil {
		s.m.protocolErrors.Inc()
		s.cfg.Logf("relmerged: %s: %v", nc.RemoteAddr(), err)
		s.untrack(c)
		nc.Close()
		return
	}
	for {
		body, err := c.readFrame()
		if err != nil {
			if s.drainingNow() {
				// Leave the connection open: workers still owe it responses;
				// Shutdown closes it after the queue drains.
				return
			}
			if errors.Is(err, ErrProtocol) {
				s.failConn(c, 0, err)
			}
			s.untrack(c)
			nc.Close()
			return
		}
		s.m.bytesRead.Add(int64(4 + len(body)))
		req, err := DecodeRequest(body)
		if err != nil {
			s.failConn(c, 0, err)
			s.untrack(c)
			nc.Close()
			return
		}
		if req.Op == OpHello {
			s.failConn(c, req.ID, fmt.Errorf("%w: repeated hello", ErrProtocol))
			s.untrack(c)
			nc.Close()
			return
		}
		c.mu.Lock()
		if _, dup := c.inflight[req.ID]; dup {
			c.mu.Unlock()
			s.failConn(c, req.ID, fmt.Errorf("%w: duplicate in-flight request id %d", ErrProtocol, req.ID))
			s.untrack(c)
			nc.Close()
			return
		}
		c.inflight[req.ID] = struct{}{}
		c.mu.Unlock()

		s.m.requests.Inc()
		ctx, cancel := s.baseCtx, context.CancelFunc(func() {})
		if req.DeadlineMS > 0 {
			ctx, cancel = context.WithTimeout(s.baseCtx, time.Duration(req.DeadlineMS)*time.Millisecond)
		}
		t := &task{c: c, req: req, ctx: ctx, cancel: cancel, start: time.Now()}
		select {
		case s.queue <- t:
			s.m.inflight.Add(1)
		default:
			// Admission control: reject instantly rather than queue past the
			// depth limit — the engine is already saturated.
			cancel()
			c.clearID(req.ID)
			s.m.overloaded.Inc()
			c.send(errorResponse(req.ID, ErrOverloaded))
		}
	}
}

// failConn records a protocol violation, best-effort answers it, and lets
// the caller close the connection. Only this connection is affected.
func (s *Server) failConn(c *srvConn, id uint64, err error) {
	s.m.protocolErrors.Inc()
	s.cfg.Logf("relmerged: %s: %v", c.nc.RemoteAddr(), err)
	c.send(errorResponse(id, err))
}

func (s *Server) untrack(c *srvConn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

func (c *srvConn) clearID(id uint64) {
	c.mu.Lock()
	delete(c.inflight, id)
	c.mu.Unlock()
}

// send writes one response frame. Write errors are swallowed: the reader
// side notices the dead connection and tears it down.
func (c *srvConn) send(resp *Response) {
	c.wmu.Lock()
	n, _ := WriteFrame(c.nc, resp)
	c.wmu.Unlock()
	c.s.m.bytesWritten.Add(int64(n))
}

func (s *Server) worker() {
	defer s.workerWG.Done()
	for t := range s.queue {
		if writeOp(t.req.Op) && s.cfg.CoalesceMax > 1 {
			batch := []*task{t}
		drain:
			// Opportunistically fold queued writes into one engine batch:
			// one lock-plan acquisition, one WAL record, one fsync for the
			// whole group. Reads and txn ops dequeued along the way execute
			// inline (cross-request ordering is only promised to clients
			// that wait for responses, which cannot have two in flight).
			for len(batch) < s.cfg.CoalesceMax {
				select {
				case t2, ok := <-s.queue:
					if !ok {
						break drain
					}
					if writeOp(t2.req.Op) {
						batch = append(batch, t2)
					} else {
						s.execute(t2)
					}
				default:
					break drain
				}
			}
			s.executeWrites(batch)
		} else {
			s.execute(t)
		}
	}
}

// finish answers t and releases its bookkeeping.
func (s *Server) finish(t *task, resp *Response) {
	resp.ID = t.req.ID
	t.c.send(resp)
	t.c.clearID(t.req.ID)
	t.cancel()
	s.m.inflight.Add(-1)
	if h := s.m.wireLat[t.req.Op]; h != nil {
		h.ObserveSince(t.start)
	}
}

func (s *Server) execute(t *task) {
	if err := t.ctx.Err(); err != nil {
		s.finish(t, errorResponse(t.req.ID, deadlineError(err)))
		return
	}
	s.finish(t, s.dispatch(t))
}

// executeWrites runs a coalesced group of write requests as one engine
// batch. If the merged batch fails — any member's constraint violation
// aborts all of it — fall back to executing each request individually, which
// reproduces the exact per-request outcomes of an uncoalesced server.
func (s *Server) executeWrites(batch []*task) {
	live := batch[:0]
	for _, t := range batch {
		if err := t.ctx.Err(); err != nil {
			s.finish(t, errorResponse(t.req.ID, deadlineError(err)))
			continue
		}
		live = append(live, t)
	}
	if len(live) == 0 {
		return
	}
	if len(live) == 1 {
		s.finish(live[0], s.dispatch(live[0]))
		return
	}
	var ops []engine.BatchOp
	for _, t := range live {
		ops = appendWriteOps(ops, t.req)
	}
	if err := s.db.ApplyBatchCtx(s.baseCtx, ops); err == nil {
		s.m.coalescedBatch.Inc()
		s.m.coalescedWrites.Add(int64(len(live)))
		for _, t := range live {
			s.finish(t, &Response{OK: true})
		}
		return
	}
	// The combined batch aborted atomically (no effects survive), so per-
	// request execution observes the same starting state.
	for _, t := range live {
		s.finish(t, s.dispatch(t))
	}
}

// appendWriteOps lowers one write request to engine batch ops.
func appendWriteOps(ops []engine.BatchOp, req *Request) []engine.BatchOp {
	switch req.Op {
	case OpInsert:
		return append(ops, engine.Ins(req.Relation, req.Tuple))
	case OpDelete:
		return append(ops, engine.Del(req.Relation, req.Key))
	case OpUpdate:
		return append(ops, engine.Upd(req.Relation, req.Key, req.Tuple))
	case OpInsertBatch:
		for _, tup := range req.Tuples {
			ops = append(ops, engine.Ins(req.Relation, tup))
		}
		return ops
	}
	return append(ops, req.Ops...) // apply_batch
}

// deadlineError maps a context error to the wire's deadline/cancel sentinel.
func deadlineError(err error) error {
	if errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("%w while queued", ErrDeadline)
	}
	return err
}

// dispatch executes one request against the engine and builds its response.
func (s *Server) dispatch(t *task) *Response {
	req := t.req
	fail := func(err error) *Response { return errorResponse(req.ID, err) }
	switch req.Op {
	case OpPing:
		return &Response{OK: true}
	case OpInsert:
		if err := s.db.InsertCtx(t.ctx, req.Relation, req.Tuple); err != nil {
			return fail(err)
		}
		return &Response{OK: true}
	case OpDelete:
		if err := s.db.DeleteCtx(t.ctx, req.Relation, req.Key); err != nil {
			return fail(err)
		}
		return &Response{OK: true}
	case OpUpdate:
		if err := s.db.UpdateCtx(t.ctx, req.Relation, req.Key, req.Tuple); err != nil {
			return fail(err)
		}
		return &Response{OK: true}
	case OpFetch:
		tup, ok, err := s.db.GetByKeyCtx(t.ctx, req.Relation, req.Key)
		if err != nil {
			return fail(err)
		}
		return &Response{OK: true, Found: ok, Tuple: tup}
	case OpInsertBatch:
		if err := s.db.InsertBatchCtx(t.ctx, req.Relation, req.Tuples); err != nil {
			return fail(err)
		}
		return &Response{OK: true}
	case OpApplyBatch:
		if err := s.db.ApplyBatchCtx(t.ctx, req.Ops); err != nil {
			return fail(err)
		}
		return &Response{OK: true}
	case OpBegin:
		if err := TxnError(s.db.Begin()); err != nil {
			return fail(err)
		}
		return &Response{OK: true}
	case OpCommit:
		if err := TxnError(s.db.Commit()); err != nil {
			return fail(err)
		}
		return &Response{OK: true}
	case OpRollback:
		if err := TxnError(s.db.Rollback()); err != nil {
			return fail(err)
		}
		return &Response{OK: true}
	case OpStats:
		st := s.db.Stats()
		return &Response{OK: true, Stats: &st}
	case OpCheckpoint:
		if err := s.db.Checkpoint(); err != nil {
			return fail(err)
		}
		return &Response{OK: true}
	case OpReplSubscribe, OpReplFetch:
		// Subscribe and fetch share semantics: validate the follower's
		// position and return the chunk after it. A position below the
		// compaction horizon ships the checkpoint snapshot instead, so a
		// fresh (or long-dead) follower bootstraps in the same exchange.
		rep, ok := s.db.(Replicator)
		if !ok {
			return fail(ErrNotReplicating)
		}
		recs, horizon, err := rep.ReplRead(req.AfterLSN, req.MaxRecords)
		if err != nil {
			if errors.Is(err, wal.ErrCompacted) {
				data, lsn, serr := rep.ReplSnapshot()
				if serr != nil {
					return fail(serr)
				}
				return &Response{OK: true, Repl: &WireRepl{CommitLSN: horizon, Snapshot: data, SnapshotLSN: lsn}}
			}
			return fail(err)
		}
		out := make([]WireRecord, len(recs))
		for i, r := range recs {
			out[i] = WireRecord{LSN: r.LSN, Payload: r.Payload}
		}
		return &Response{OK: true, Repl: &WireRepl{CommitLSN: horizon, Records: out}}
	case OpReplHeartbeat:
		rep, ok := s.db.(Replicator)
		if !ok {
			return fail(ErrNotReplicating)
		}
		return &Response{OK: true, Repl: &WireRepl{CommitLSN: rep.DurableLSN()}}
	}
	return fail(fmt.Errorf("%w: unknown op %q", ErrProtocol, req.Op))
}

// TxnError classifies transaction sequencing failures (begin while open,
// commit/rollback without begin) under ErrTxn, leaving sentinel-coded errors
// (e.g. a crashed WAL refusing the marker) untouched. Both the embedded
// session and the server use it, so Code is backend-independent.
func TxnError(err error) error {
	if err == nil || CodeOf(err) != CodeUnknown {
		return err
	}
	return fmt.Errorf("%w: %v", ErrTxn, err)
}
