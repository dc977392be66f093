package main

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/relation"
	"repro/pkg/relmerge"
)

// slotSet is a set of slot indices with O(1) add, remove and uniform pick.
type slotSet struct {
	items []int32
	pos   []int32 // pos[slot] = index in items, or -1
}

func newSlotSet(n int) slotSet {
	s := slotSet{pos: make([]int32, n)}
	for i := range s.pos {
		s.pos[i] = -1
	}
	return s
}

func (s *slotSet) add(i int) {
	if s.pos[i] >= 0 {
		return
	}
	s.pos[i] = int32(len(s.items))
	s.items = append(s.items, int32(i))
}

func (s *slotSet) remove(i int) {
	p := s.pos[i]
	if p < 0 {
		return
	}
	last := s.items[len(s.items)-1]
	s.items[p] = last
	s.pos[last] = p
	s.items = s.items[:len(s.items)-1]
	s.pos[i] = -1
}

func (s *slotSet) len() int { return len(s.items) }

func (s *slotSet) pick(rng *rand.Rand) int { return int(s.items[rng.Intn(len(s.items))]) }

// latencies collects one client's per-operation latencies in nanoseconds.
type latencies []int64

// quantiles merges the recorders and returns the q-quantiles in microseconds
// (linear interpolation between closest ranks) and the sample count.
func quantiles(recs []latencies, qs ...float64) ([]float64, int) {
	var all []int64
	for _, r := range recs {
		all = append(all, r...)
	}
	out := make([]float64, len(qs))
	if len(all) == 0 {
		return out, 0
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	for i, q := range qs {
		pos := q * float64(len(all)-1)
		lo := int(pos)
		hi := lo
		if lo+1 < len(all) {
			hi = lo + 1
		}
		frac := pos - float64(lo)
		out[i] = (float64(all[lo])*(1-frac) + float64(all[hi])*frac) / 1e3
	}
	return out, len(all)
}

// client is one closed-loop caller: it owns a key range, keeps the exact
// model of it, and checks every outcome against the model.
type client struct {
	id   int
	rng  *rand.Rand
	zipf *rand.Zipf
	perm []int32 // zipf rank -> slot, so hot keys scatter over the range
	objs []object

	present, absent slotSet

	// sess is the session the loop calls: raw in untraced phases, the span
	// recording wrapper (traced) in traced ones.
	sess, raw, traced relmerge.Session

	// Window counters, reset by resetWindow: latencies of user reads and
	// writes, of maintenance calls (checkpoints), user ops, and the payload
	// bytes of acknowledged writes.
	reads, writes, maint latencies
	winOps, userBytes    int64

	// Run totals: every checked op and every wrong or failed outcome.
	ops, failed int64
	firstErrs   []string
}

func newClient(id int, seed int64, objs []object, raw relmerge.Session) *client {
	c := &client{
		id:      id,
		rng:     rand.New(rand.NewSource(seed)),
		objs:    objs,
		present: newSlotSet(len(objs)),
		absent:  newSlotSet(len(objs)),
		sess:    raw,
		raw:     raw,
	}
	c.zipf = rand.NewZipf(c.rng, 1.1, 1, uint64(len(objs)-1))
	c.perm = make([]int32, len(objs))
	for i, p := range c.rng.Perm(len(objs)) {
		c.perm[i] = int32(p)
	}
	for i := range objs {
		if objs[i].present {
			c.present.add(i)
		} else {
			c.absent.add(i)
		}
	}
	return c
}

// hot draws a slot with Zipf(1.1) popularity.
func (c *client) hot() int { return int(c.perm[c.zipf.Uint64()]) }

// fail records a wrong or failed outcome.
func (c *client) fail(format string, args ...any) {
	c.failed++
	if len(c.firstErrs) < 5 {
		c.firstErrs = append(c.firstErrs, fmt.Sprintf("client %d: ", c.id)+fmt.Sprintf(format, args...))
	}
}

func (c *client) setPresent(i int, present bool) {
	c.objs[i].present = present
	if present {
		c.absent.remove(i)
		c.present.add(i)
	} else {
		c.present.remove(i)
		c.absent.add(i)
	}
}

// resetWindow starts a new measurement window.
func (c *client) resetWindow() {
	c.reads, c.writes, c.maint = c.reads[:0], c.writes[:0], c.maint[:0]
	c.winOps, c.userBytes = 0, 0
}

// expectViolation checks that a deliberately invalid write was refused as a
// constraint violation.
func (c *client) expectViolation(what string, err error) {
	if err == nil {
		c.fail("%s was accepted", what)
		return
	}
	if relmerge.Code(err) != relmerge.CodeConstraint {
		c.fail("%s: want a constraint violation, got %v", what, err)
	}
}

// runLoop runs every client's closed loop for d and returns the wall time.
func runLoop(clients []*client, d time.Duration, op func(c *client)) time.Duration {
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				op(c)
			}
		}(c)
	}
	wg.Wait()
	return time.Since(start)
}

// tupleBytes is the user payload of a tuple: the bytes of its string values.
func tupleBytes(t relation.Tuple) int64 {
	var n int64
	for _, v := range t {
		if v.Kind() == relation.KindString {
			n += int64(len(v.AsString()))
		}
	}
	return n
}
