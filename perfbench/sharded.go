package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/relation"
	"repro/pkg/relmerge"
)

// Sharded data sizes (before cfg.scale).
const (
	shardObjects = 20000
	shardPerT    = 5000 // 8 × 5,000 = 40,000 T keys, against 4 × 4,096 cache entries
	shardCount   = 4
	shardCache   = 4096
	// shardGrowth is the reserve of absent slots per client per measured
	// second: inserts outnumber deletes by 22% of the ops.
	shardGrowth = 3000
)

// shardWork is the state shared by the clients of star-shard-batch.
type shardWork struct {
	starWork
}

func (w *shardWork) op(c *client) {
	c.ops++
	c.winOps++
	switch r := c.rng.Intn(100); {
	case r < 40:
		w.profile(c, c.hot())
	case r < 70 && c.absent.len() > 0, c.present.len() < 2:
		w.insertObject(c)
	case r < 90:
		w.updatePair(c)
	case r < 98 || c.absent.len() == 0:
		w.deleteObject(c)
	default:
		w.invalidBatch(c)
	}
}

// retarget picks a present R_i row of object o and a new T key for it, or
// reports false when o has no R_i row.
func (w *shardWork) retarget(c *client, o *object) (arm int, ref uint16, ok bool) {
	if o.mask == 0 {
		return 0, 0, false
	}
	for {
		arm = c.rng.Intn(arms)
		if o.mask&(1<<arm) != 0 {
			break
		}
	}
	perT := len(w.tk.vals[arm])
	ref = uint16((int(o.tref[arm]) + 1 + c.rng.Intn(perT-1)) % perT)
	return arm, ref, true
}

// updatePair moves one R_i reference of each of two objects in one batch;
// the objects usually live on different shards.
func (w *shardWork) updatePair(c *client) {
	i, j := c.present.pick(c.rng), c.present.pick(c.rng)
	if i == j {
		j = c.present.pick(c.rng)
	}
	type change struct {
		o   *object
		arm int
		ref uint16
	}
	var changes []change
	var ops []relmerge.BatchOp
	for _, s := range []int{i, j} {
		o := &c.objs[s]
		arm, ref, ok := w.retarget(c, o)
		if !ok || (len(changes) == 1 && changes[0].o == o) {
			continue
		}
		changes = append(changes, change{o, arm, ref})
		ops = append(ops, relmerge.Upd(w.l.rel[arm], o.key, w.l.row(arm, o, w.tk.vals[arm][ref])))
	}
	if len(ops) == 0 {
		w.profile(c, i)
		return
	}
	start := time.Now()
	err := c.sess.ApplyBatch(ops)
	c.writes = append(c.writes, int64(time.Since(start)))
	if err != nil {
		c.fail("update batch: %v", err)
		return
	}
	for k, ch := range changes {
		ch.o.tref[ch.arm] = ch.ref
		c.userBytes += tupleBytes(ops[k].Tuple)
	}
}

// invalidBatch inserts an absent object with one dangling T key together
// with a valid update of a present object: the batch must be refused as a
// whole, which the re-fetch of both objects checks.
func (w *shardWork) invalidBatch(c *client) {
	i := c.absent.pick(c.rng)
	a := &c.objs[i]
	if a.mask == 0 {
		w.insertObject(c)
		return
	}
	dangle := 0
	for a.mask&(1<<dangle) == 0 {
		dangle++
	}
	ops := w.l.insertOps(w.tk, a, dangle)
	b := &c.objs[c.present.pick(c.rng)]
	if arm, ref, ok := w.retarget(c, b); ok {
		ops = append(ops, relmerge.Upd(w.l.rel[arm], b.key, w.l.row(arm, b, w.tk.vals[arm][ref])))
	}
	start := time.Now()
	err := c.sess.ApplyBatch(ops)
	c.writes = append(c.writes, int64(time.Since(start)))
	c.expectViolation("batch with a dangling T key", err)
	// Neither object may show any effect of the refused batch.
	for _, o := range []*object{a, b} {
		var got [1 + arms]relation.Tuple
		var found [1 + arms]bool
		var errs [1 + arms]error
		got[0], found[0], errs[0] = c.sess.Fetch("E0", o.key)
		for k := 0; k < arms; k++ {
			got[k+1], found[k+1], errs[k+1] = c.sess.Fetch(w.l.rel[k], o.key)
		}
		w.checkProfile(c, o, got[:], found[:], errs[:])
	}
}

// setupSharded builds star-shard-batch: four durable shards (fsync=interval)
// behind the router, over the unmerged StarEER(8) design.
func setupSharded(cfg *config, dir string) (*bench, error) {
	var times setupTimes
	start := time.Now()
	l, err := newStarLayout()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	tk := newTKeys(cfg.scaled(shardPerT))
	reserve := cfg.scaled(shardObjects/nClients) + int(cfg.scale*shardGrowth*(cfg.seconds+cfg.warmup).Seconds())
	objs := make([][]object, nClients)
	for i := range objs {
		objs[i] = newObjects(rng, i, cfg.scaled(shardObjects)/nClients, reserve, cfg.scaled(shardPerT), starPArm)
	}
	st := l.state(tk, objs)
	times.generate = time.Since(start).Seconds()

	start = time.Now()
	reg := relmerge.NewRegistry()
	open := func(r *relmerge.Registry) (relmerge.Session, error) {
		return relmerge.Open(relmerge.Config{
			Backend:        relmerge.Sharded,
			Schema:         l.schema,
			Shards:         shardCount,
			ShardCacheSize: shardCache,
			DurableDir:     dir,
			Sync:           relmerge.SyncInterval,
			Registry:       r,
		})
	}
	sess, err := open(reg)
	if err != nil {
		return nil, err
	}
	if err := sess.(*relmerge.ShardedSession).Router().Load(st); err != nil {
		sess.Close()
		return nil, err
	}
	times.load = time.Since(start).Seconds()
	start = time.Now()
	if err := sess.Checkpoint(); err != nil {
		sess.Close()
		return nil, err
	}
	times.checkpoint = time.Since(start).Seconds()

	w := &shardWork{starWork{l: l, tk: tk}}
	b := &bench{reg: reg, op: w.op, durable: true, sharded: true, times: times}
	for i := range objs {
		b.clients = append(b.clients, newClient(i, cfg.seed*1000+int64(i)+1, objs[i], sess))
	}
	closed := false
	b.close = func() {
		if !closed {
			closed = true
			sess.Close()
		}
	}
	b.finish = func() (recoveryResult, error) {
		c0 := b.clients[0]
		start := time.Now()
		err := c0.sess.Checkpoint()
		ckpt := time.Since(start)
		if err != nil {
			return recoveryResult{}, fmt.Errorf("checkpoint: %w", err)
		}
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
		b.close()

		start = time.Now()
		r2 := relmerge.NewRegistry()
		rs, err := open(r2)
		if err != nil {
			return recoveryResult{}, err
		}
		defer rs.Close()
		res := recoveryResult{seconds: time.Since(start).Seconds(), replay: snapshot(r2).val("wal.replay_records"), checkpoint: ckpt}
		view := rs.(*relmerge.ShardedSession).View()
		w.checkAll(b.clients, func(rel string, key relation.Tuple) (relation.Tuple, bool, error) {
			t, ok := view.GetByKey(rel, key)
			return t, ok, nil
		}, view.Count)
		return res, nil
	}
	return b, nil
}
