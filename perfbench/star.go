package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/relation"
	"repro/pkg/relmerge"
)

// starWork is the state shared by the clients of the two star workloads.
type starWork struct {
	l  *starLayout
	tk *tKeys
}

// profile reads object i's profile on the unmerged design: E0 and every
// R_i, nine Fetch calls, then checks each answer against the model.
func (w *starWork) profile(c *client, i int) {
	o := &c.objs[i]
	var got [1 + arms]relation.Tuple
	var found [1 + arms]bool
	var errs [1 + arms]error
	start := time.Now()
	got[0], found[0], errs[0] = c.sess.Fetch("E0", o.key)
	for a := 0; a < arms; a++ {
		got[a+1], found[a+1], errs[a+1] = c.sess.Fetch(w.l.rel[a], o.key)
	}
	c.reads = append(c.reads, int64(time.Since(start)))
	w.checkProfile(c, o, got[:], found[:], errs[:])
}

func (w *starWork) checkProfile(c *client, o *object, got []relation.Tuple, found []bool, errs []error) {
	for j := range got {
		rel := "E0"
		if j > 0 {
			rel = w.l.rel[j-1]
		}
		if errs[j] != nil {
			c.fail("fetch %s %v: %v", rel, o.key, errs[j])
			return
		}
		want := o.present && (j == 0 || o.mask&(1<<(j-1)) != 0)
		if found[j] != want {
			c.fail("fetch %s %v: found=%v, model says %v", rel, o.key, found[j], want)
			return
		}
		if !want {
			continue
		}
		if j == 0 {
			if !got[0].Identical(o.key) {
				c.fail("fetch E0 %v: got %v", o.key, got[0])
				return
			}
			continue
		}
		a := j - 1
		t := got[j]
		if len(t) != 2 || !t[w.l.keyPos[a]].Identical(o.key[0]) || !t[w.l.refPos[a]].Identical(w.tk.vals[a][o.tref[a]]) {
			c.fail("fetch %s %v: got %v, want reference %v", rel, o.key, t, w.tk.vals[a][o.tref[a]])
			return
		}
	}
}

// insertObject inserts an absent object as one batch.
func (w *starWork) insertObject(c *client) {
	i := c.absent.pick(c.rng)
	o := &c.objs[i]
	ops := w.l.insertOps(w.tk, o, -1)
	start := time.Now()
	err := c.sess.ApplyBatch(ops)
	c.writes = append(c.writes, int64(time.Since(start)))
	if err != nil {
		c.fail("insert object %v: %v", o.key, err)
		return
	}
	c.setPresent(i, true)
	for _, op := range ops {
		c.userBytes += tupleBytes(op.Tuple)
	}
}

// deleteObject deletes a present object as one batch.
func (w *starWork) deleteObject(c *client) {
	i := c.present.pick(c.rng)
	o := &c.objs[i]
	ops := w.l.deleteOps(o)
	start := time.Now()
	err := c.sess.ApplyBatch(ops)
	c.writes = append(c.writes, int64(time.Since(start)))
	if err != nil {
		c.fail("delete object %v: %v", o.key, err)
		return
	}
	c.setPresent(i, false)
	c.userBytes += int64(len(ops)) * tupleBytes(o.key)
}

// checkAll compares every object of every client with what fetch returns —
// after recovery — and the relation sizes with the model, so a refused write
// that left a row behind is caught too.
func (w *starWork) checkAll(clients []*client, fetch func(rel string, key relation.Tuple) (relation.Tuple, bool, error), count func(rel string) int) {
	var nE0 int
	var nR [arms]int
	for _, c := range clients {
		var got [1 + arms]relation.Tuple
		var found [1 + arms]bool
		var errs [1 + arms]error
		for i := range c.objs {
			o := &c.objs[i]
			got[0], found[0], errs[0] = fetch("E0", o.key)
			for a := 0; a < arms; a++ {
				got[a+1], found[a+1], errs[a+1] = fetch(w.l.rel[a], o.key)
			}
			w.checkProfile(c, o, got[:], found[:], errs[:])
			if o.present {
				nE0++
				for a := 0; a < arms; a++ {
					if o.mask&(1<<a) != 0 {
						nR[a]++
					}
				}
			}
		}
	}
	if n := count("E0"); n != nE0 {
		clients[0].fail("recovered E0 holds %d rows, model %d", n, nE0)
	}
	for a := 0; a < arms; a++ {
		if n := count(w.l.rel[a]); n != nR[a] {
			clients[0].fail("recovered %s holds %d rows, model %d", w.l.rel[a], n, nR[a])
		}
	}
}

// Star data sizes (before cfg.scale).
const (
	starObjects = 50000
	starReserve = 5000 // absent slots per client for inserts
	starPerT    = 5000
	starPArm    = 0.8
	nClients    = 2
)

// setupStar builds star-profile-read: the embedded engine in memory over the
// unmerged StarEER(8) design.
func setupStar(cfg *config, _ string) (*bench, error) {
	var times setupTimes
	start := time.Now()
	l, err := newStarLayout()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	tk := newTKeys(cfg.scaled(starPerT))
	objs := make([][]object, nClients)
	for i := range objs {
		objs[i] = newObjects(rng, i, cfg.scaled(starObjects)/nClients, cfg.scaled(starReserve), cfg.scaled(starPerT), starPArm)
	}
	st := l.state(tk, objs)
	times.generate = time.Since(start).Seconds()

	start = time.Now()
	reg := relmerge.NewRegistry()
	sess, err := relmerge.Open(relmerge.Config{Schema: l.schema, Registry: reg})
	if err != nil {
		return nil, err
	}
	eng := sess.(*relmerge.EmbeddedSession).Engine()
	if err := eng.Load(st); err != nil {
		sess.Close()
		return nil, err
	}
	times.load = time.Since(start).Seconds()

	w := &starWork{l: l, tk: tk}
	b := &bench{reg: reg, times: times}
	for i := range objs {
		b.clients = append(b.clients, newClient(i, cfg.seed*1000+int64(i)+1, objs[i], sess))
	}
	b.op = func(c *client) {
		c.ops++
		c.winOps++
		switch r := c.rng.Intn(100); {
		case r < 98:
			w.profile(c, c.hot())
		case r < 99 && c.absent.len() > 0, c.present.len() == 0:
			w.insertObject(c)
		default:
			w.deleteObject(c)
		}
	}
	closed := false
	b.close = func() {
		if !closed {
			closed = true
			sess.Close()
		}
	}
	b.finish = func() (recoveryResult, error) {
		// An in-memory engine comes back by reloading an export of its state:
		// time a fresh Open plus Load of the state the run left behind.
		export := eng.Snapshot()
		b.close()
		start := time.Now()
		rs, err := relmerge.Open(relmerge.Config{Schema: l.schema})
		if err != nil {
			return recoveryResult{}, err
		}
		defer rs.Close()
		re := rs.(*relmerge.EmbeddedSession).Engine()
		if err := re.Load(export); err != nil {
			return recoveryResult{}, fmt.Errorf("reloading the exported state: %w", err)
		}
		res := recoveryResult{seconds: time.Since(start).Seconds()}
		view := re.View()
		w.checkAll(b.clients, func(rel string, key relation.Tuple) (relation.Tuple, bool, error) {
			t, ok := view.GetByKey(rel, key)
			return t, ok, nil
		}, view.Count)
		return res, nil
	}
	return b, nil
}
