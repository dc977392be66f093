package main

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/relation"
	"repro/internal/server"
	"repro/internal/translate"
	"repro/internal/workload"
	"repro/pkg/relmerge"
)

// Chain data sizes (before cfg.scale) and the checkpoint cadence.
const (
	chainObjects = 20000
	chainPerT    = 2500
	// chainGrowth is the reserve of absent slots per client per measured
	// second: inserts outnumber deletes by 10% of the ops.
	chainGrowth    = 2000
	chainCkptEvery = 5000 // ops between checkpoints, over both clients
	chainName      = "CHAIN"
)

// chainWork is the state shared by the clients of chain-merged-write.
type chainWork struct {
	l      *chainLayout
	tk     *tKeys
	opsRun atomic.Int64 // ops since set-up, for the checkpoint cadence
	noCkpt atomic.Bool  // set during the tail before Close
}

func (w *chainWork) op(c *client) {
	c.ops++
	c.winOps++
	r := c.rng.Intn(100)
	switch {
	case r < 35 && c.absent.len() > 0, c.present.len() == 0:
		w.insert(c)
	case r < 60:
		w.update(c)
	case r < 85:
		w.delete(c)
	case r < 95:
		w.fetch(c, c.hot())
	default:
		w.invalid(c)
	}
	if n := w.opsRun.Add(1); n%chainCkptEvery == 0 && !w.noCkpt.Load() {
		start := time.Now()
		err := c.sess.Checkpoint()
		c.maint = append(c.maint, int64(time.Since(start)))
		if err != nil {
			c.fail("checkpoint: %v", err)
		}
	}
}

func (w *chainWork) insert(c *client) {
	i := c.absent.pick(c.rng)
	o := &c.objs[i]
	d := c.rng.Intn(arms + 1)
	t := w.l.tuple(w.tk, o, d)
	start := time.Now()
	err := c.sess.Insert(w.l.name, t)
	c.writes = append(c.writes, int64(time.Since(start)))
	if err != nil {
		c.fail("insert %v: %v", o.key, err)
		return
	}
	o.depth = uint8(d)
	c.setPresent(i, true)
	c.userBytes += tupleBytes(t)
}

// update lengthens or shortens a present object's chain.
func (w *chainWork) update(c *client) {
	i := c.present.pick(c.rng)
	o := &c.objs[i]
	d := c.rng.Intn(arms)
	if d >= int(o.depth) {
		d++
	}
	t := w.l.tuple(w.tk, o, d)
	start := time.Now()
	err := c.sess.Update(w.l.name, o.key, t)
	c.writes = append(c.writes, int64(time.Since(start)))
	if err != nil {
		c.fail("update %v to depth %d: %v", o.key, d, err)
		return
	}
	o.depth = uint8(d)
	c.userBytes += tupleBytes(t)
}

func (w *chainWork) delete(c *client) {
	i := c.present.pick(c.rng)
	o := &c.objs[i]
	start := time.Now()
	err := c.sess.Delete(w.l.name, o.key)
	c.writes = append(c.writes, int64(time.Since(start)))
	if err != nil {
		c.fail("delete %v: %v", o.key, err)
		return
	}
	c.setPresent(i, false)
	c.userBytes += tupleBytes(o.key)
}

func (w *chainWork) fetch(c *client, i int) {
	o := &c.objs[i]
	start := time.Now()
	got, found, err := c.sess.Fetch(w.l.name, o.key)
	c.reads = append(c.reads, int64(time.Since(start)))
	w.check(c, o, got, found, err)
}

func (w *chainWork) check(c *client, o *object, got relation.Tuple, found bool, err error) {
	switch {
	case err != nil:
		c.fail("fetch %v: %v", o.key, err)
	case found != o.present:
		c.fail("fetch %v: found=%v, model says %v", o.key, found, o.present)
	case found && !w.l.matches(w.tk, o, got):
		c.fail("fetch %v: got %v, model has chain length %d", o.key, got, o.depth)
	}
}

// invalid issues a write the constraints must refuse: a gap in the
// null-existence chain, a dangling T key, or a duplicate key.
func (w *chainWork) invalid(c *client) {
	var what string
	var t relation.Tuple
	k := c.rng.Intn(3)
	if c.absent.len() == 0 {
		k = 2
	}
	switch {
	case k == 0 || c.present.len() == 0 && k == 2:
		o := &c.objs[c.absent.pick(c.rng)]
		t = w.l.tuple(w.tk, o, 3)
		t[w.l.refPos[1]] = relation.Null()
		what = "chain-gap insert"
	case k == 1:
		o := &c.objs[c.absent.pick(c.rng)]
		t = w.l.tuple(w.tk, o, 2)
		t[w.l.refPos[0]] = w.tk.dangling[0]
		what = "dangling-T insert"
	default:
		o := &c.objs[c.present.pick(c.rng)]
		t = w.l.tuple(w.tk, o, int(o.depth))
		what = "duplicate-key insert"
	}
	start := time.Now()
	err := c.sess.Insert(w.l.name, t)
	c.writes = append(c.writes, int64(time.Since(start)))
	c.expectViolation(what, err)
}

// setupChain builds chain-merged-write: the ChainEER(8) design merged by
// core.Merge/RemoveAll, its state mapped through η, loaded into a durable
// engine (fsync=always) served by an in-process server over loopback.
func setupChain(cfg *config, dir string) (*bench, error) {
	var times setupTimes
	start := time.Now()
	base, err := translate.MS(workload.ChainEER(arms))
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	tk := newTKeys(cfg.scaled(chainPerT))
	reserve := cfg.scaled(chainObjects/nClients) + int(cfg.scale*chainGrowth*(cfg.seconds+cfg.warmup).Seconds())
	objs := make([][]object, nClients)
	for i := range objs {
		objs[i] = newObjects(rng, i, cfg.scaled(chainObjects)/nClients, reserve, cfg.scaled(chainPerT), 0)
	}
	st, err := chainBaseState(base, tk, objs)
	if err != nil {
		return nil, err
	}
	times.generate = time.Since(start).Seconds()

	start = time.Now()
	m, err := relmerge.Merge(base, workload.MergeSetFor(base, "E0"), relmerge.WithName(chainName))
	if err != nil {
		return nil, err
	}
	m.RemoveAll()
	times.merge = time.Since(start).Seconds()
	start = time.Now()
	mst := m.MapState(st)
	times.mapState = time.Since(start).Seconds()
	l, err := newChainLayout(m.Schema, chainName)
	if err != nil {
		return nil, err
	}

	start = time.Now()
	reg := relmerge.NewRegistry()
	open := func(r *relmerge.Registry) (relmerge.Session, error) {
		return relmerge.Open(relmerge.Config{Schema: m.Schema, DurableDir: dir, Sync: relmerge.SyncAlways, Registry: r})
	}
	sess, err := open(reg)
	if err != nil {
		return nil, err
	}
	eng := sess.(*relmerge.EmbeddedSession).Engine()
	if err := eng.Load(mst); err != nil {
		sess.Close()
		return nil, err
	}
	times.load = time.Since(start).Seconds()
	start = time.Now()
	if err := eng.Checkpoint(); err != nil {
		sess.Close()
		return nil, err
	}
	times.checkpoint = time.Since(start).Seconds()

	var backend server.Backend = eng
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		sess.Close()
		return nil, err
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
		backend = &tracedBackend{Backend: eng, tr: tr}
		ln = &tracedListener{Listener: ln, tr: tr}
	}
	srv := server.New(backend, server.Config{Registry: reg, Name: "perfbench"})
	var serveWG sync.WaitGroup
	serveWG.Add(1)
	go func() {
		defer serveWG.Done()
		srv.Serve(ln)
	}()

	w := &chainWork{l: l, tk: tk}
	b := &bench{reg: reg, op: w.op, tr: tr, durable: true, wire: true, times: times}
	var remotes []relmerge.Session
	closed := false
	b.close = func() {
		if closed {
			return
		}
		closed = true
		for _, r := range remotes {
			r.Close()
		}
		srv.Close()
		serveWG.Wait()
		sess.Close()
	}
	// Dial one client at a time: each Open completes its handshake before
	// the next, so server connection i is client i's.
	for i := range objs {
		rs, err := relmerge.Open(relmerge.Config{
			Backend:       relmerge.Remote,
			Addr:          ln.Addr().String(),
			Wire:          relmerge.WireBinary,
			RemoteOptions: []relmerge.RemoteOption{relmerge.WithPoolSize(1)},
			Registry:      reg,
		})
		if err != nil {
			b.close()
			return nil, err
		}
		remotes = append(remotes, rs)
		b.clients = append(b.clients, newClient(i, cfg.seed*1000+int64(i)+1, objs[i], rs))
	}

	b.finish = func() (recoveryResult, error) {
		c0 := b.clients[0]
		start := time.Now()
		err := c0.sess.Checkpoint()
		ckpt := time.Since(start)
		if err != nil {
			return recoveryResult{}, fmt.Errorf("checkpoint: %w", err)
		}
		// A fixed tail of logged ops after the checkpoint, so recovery
		// replays the same amount of log in every run.
		w.noCkpt.Store(true)
		var wg sync.WaitGroup
		for _, c := range b.clients {
			wg.Add(1)
			go func(c *client) {
				defer wg.Done()
				for k := 0; k < cfg.tailOps; k++ {
					w.op(c)
				}
			}(c)
		}
		wg.Wait()
		// Close with no checkpoint: the server stops without draining, then
		// the engine closes its log.
		b.close()

		start = time.Now()
		r2 := relmerge.NewRegistry()
		rs, err := open(r2)
		if err != nil {
			return recoveryResult{}, err
		}
		defer rs.Close()
		res := recoveryResult{seconds: time.Since(start).Seconds(), replay: snapshot(r2).val("wal.replay_records"), checkpoint: ckpt}
		view := rs.(*relmerge.EmbeddedSession).Engine().View()
		n := 0
		for _, c := range b.clients {
			for i := range c.objs {
				o := &c.objs[i]
				got, found := view.GetByKey(l.name, o.key)
				w.check(c, o, got, found, nil)
				if o.present {
					n++
				}
			}
		}
		if got := view.Count(l.name); got != n {
			c0.fail("recovered %s holds %d rows, model %d", l.name, got, n)
		}
		return res, nil
	}
	return b, nil
}
