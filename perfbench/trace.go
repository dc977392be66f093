package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/relation"
	"repro/internal/server"
	"repro/pkg/relmerge"
)

// Span kinds of a Session call.
const (
	kindRead uint8 = iota
	kindWrite
	kindMaint
)

var kindNames = [...]string{"read", "write", "maint"}

// span is one Session call of one client, in nanoseconds since the tracer's
// epoch.
type span struct {
	start, end int64
	kind       uint8
}

// connSpan is one request on a server connection: from the read that
// brought its first bytes to the end of the write of its response, with the
// time spent inside that write.
type connSpan struct{ start, end, write int64 }

// backendSpan is one call into the server's Backend (the engine). owners has
// bit c set when the call touches a key of client c; zero means the call
// carries no key (a checkpoint).
type backendSpan struct {
	start, end int64
	owners     uint32
	kind       uint8
}

// tracer keeps every span in memory while on is set; spans are matched into
// per-layer self times and written out when the run ends.
type tracer struct {
	epoch time.Time
	on    atomic.Bool

	mu      sync.Mutex
	conns   []*tracedConn // in accept order: connection i serves client i
	backend []backendSpan
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// tracedSession records a span around each Session call a workload makes.
type tracedSession struct {
	relmerge.Session
	tr    *tracer
	spans []span
}

func (s *tracedSession) record(start int64, kind uint8) {
	s.spans = append(s.spans, span{start: start, end: s.tr.now(), kind: kind})
}

func (s *tracedSession) Fetch(rel string, key relation.Tuple) (relation.Tuple, bool, error) {
	start := s.tr.now()
	tup, ok, err := s.Session.Fetch(rel, key)
	s.record(start, kindRead)
	return tup, ok, err
}

func (s *tracedSession) Insert(rel string, tup relation.Tuple) error {
	start := s.tr.now()
	err := s.Session.Insert(rel, tup)
	s.record(start, kindWrite)
	return err
}

func (s *tracedSession) Update(rel string, key, tup relation.Tuple) error {
	start := s.tr.now()
	err := s.Session.Update(rel, key, tup)
	s.record(start, kindWrite)
	return err
}

func (s *tracedSession) Delete(rel string, key relation.Tuple) error {
	start := s.tr.now()
	err := s.Session.Delete(rel, key)
	s.record(start, kindWrite)
	return err
}

func (s *tracedSession) ApplyBatch(ops []relmerge.BatchOp) error {
	start := s.tr.now()
	err := s.Session.ApplyBatch(ops)
	s.record(start, kindWrite)
	return err
}

func (s *tracedSession) Checkpoint() error {
	start := s.tr.now()
	err := s.Session.Checkpoint()
	s.record(start, kindMaint)
	return err
}

// tracedListener hands Server.Serve connections that record request spans.
type tracedListener struct {
	net.Listener
	tr *tracer
}

func (l *tracedListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	c := &tracedConn{Conn: nc, tr: l.tr}
	l.tr.mu.Lock()
	l.tr.conns = append(l.tr.conns, c)
	l.tr.mu.Unlock()
	return c, nil
}

// tracedConn spans each request from the read that returns its first bytes
// to the end of the write of its response. Clients keep one request in
// flight per connection, so reads and writes alternate per request.
type tracedConn struct {
	net.Conn
	tr *tracer

	mu       sync.Mutex // the server reads and writes from different goroutines
	inReq    bool
	reqStart int64
	spans    []connSpan
}

func (c *tracedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		t := c.tr.now()
		c.mu.Lock()
		if !c.inReq {
			c.inReq, c.reqStart = true, t
		}
		c.mu.Unlock()
	}
	return n, err
}

func (c *tracedConn) Write(p []byte) (int, error) {
	// Close the request before writing its response: the client may send
	// the next request before this write call returns.
	c.mu.Lock()
	inReq, reqStart := c.inReq, c.reqStart
	c.inReq = false
	c.mu.Unlock()
	start := c.tr.now()
	n, err := c.Conn.Write(p)
	end := c.tr.now()
	if inReq && c.tr.on.Load() {
		c.mu.Lock()
		c.spans = append(c.spans, connSpan{start: reqStart, end: end, write: end - start})
		c.mu.Unlock()
	}
	return n, err
}

// tracedBackend times each engine call the server makes, coalesced batches
// included.
type tracedBackend struct {
	server.Backend
	tr *tracer
}

func (b *tracedBackend) record(start int64, owners uint32, kind uint8) {
	if !b.tr.on.Load() {
		return
	}
	end := b.tr.now()
	b.tr.mu.Lock()
	b.tr.backend = append(b.tr.backend, backendSpan{start: start, end: end, owners: owners, kind: kind})
	b.tr.mu.Unlock()
}

func ownerBit(t relation.Tuple) uint32 {
	for _, v := range t {
		if o := ownerOf(v); o >= 0 {
			return 1 << o
		}
	}
	return 0
}

func (b *tracedBackend) InsertCtx(ctx context.Context, name string, tup relation.Tuple) error {
	start := b.tr.now()
	err := b.Backend.InsertCtx(ctx, name, tup)
	b.record(start, ownerBit(tup), kindWrite)
	return err
}

func (b *tracedBackend) DeleteCtx(ctx context.Context, name string, key relation.Tuple) error {
	start := b.tr.now()
	err := b.Backend.DeleteCtx(ctx, name, key)
	b.record(start, ownerBit(key), kindWrite)
	return err
}

func (b *tracedBackend) UpdateCtx(ctx context.Context, name string, key, tup relation.Tuple) error {
	start := b.tr.now()
	err := b.Backend.UpdateCtx(ctx, name, key, tup)
	b.record(start, ownerBit(key), kindWrite)
	return err
}

func (b *tracedBackend) GetByKeyCtx(ctx context.Context, name string, key relation.Tuple) (relation.Tuple, bool, error) {
	start := b.tr.now()
	tup, ok, err := b.Backend.GetByKeyCtx(ctx, name, key)
	b.record(start, ownerBit(key), kindRead)
	return tup, ok, err
}

func (b *tracedBackend) InsertBatchCtx(ctx context.Context, name string, tuples []relation.Tuple) error {
	start := b.tr.now()
	err := b.Backend.InsertBatchCtx(ctx, name, tuples)
	var owners uint32
	for _, t := range tuples {
		owners |= ownerBit(t)
	}
	b.record(start, owners, kindWrite)
	return err
}

func (b *tracedBackend) ApplyBatchCtx(ctx context.Context, ops []engine.BatchOp) error {
	start := b.tr.now()
	err := b.Backend.ApplyBatchCtx(ctx, ops)
	var owners uint32
	for _, op := range ops {
		owners |= ownerBit(op.Key) | ownerBit(op.Tuple)
	}
	b.record(start, owners, kindWrite)
	return err
}

func (b *tracedBackend) Checkpoint() error {
	start := b.tr.now()
	err := b.Backend.Checkpoint()
	b.record(start, 0, kindMaint)
	return err
}

// selfTimes are the per-layer totals of the matched Session calls: each
// call's span split into the part outside the server's request span
// (relmerge: client encode/decode and the socket), the server's part outside
// the engine calls, and the engine calls. The three add up to the session
// total by construction.
type selfTimes struct {
	calls, unmatched                  int
	session, relmerge, server, engine float64   // ns
	socket                            float64   // ns inside the server's response writes
	engineWrites, sessionWrites       int       // engine write calls, user write calls
	engineWriteUS                     latencies // engine write call durations, ns
	sessionWriteUS                    latencies // Session write call durations, ns
	dump                              []dumpSpan
}

type dumpSpan struct {
	ID      int    `json:"id"`
	Parents []int  `json:"parents,omitempty"`
	Layer   string `json:"layer"`
	Client  int    `json:"client"`
	Op      string `json:"op,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// maxDump bounds the spans written out per run.
const maxDump = 200000

type interval struct{ start, end int64 }

// wireSelf matches server request spans into Session spans (per connection,
// by containment) and engine calls into request spans (by the client whose
// keys they touch, then by containment), and splits each matched Session
// call into its layers' self times.
func (t *tracer) wireSelf(sessions [][]span) selfTimes {
	var st selfTimes
	t.mu.Lock()
	defer t.mu.Unlock()
	type ref struct{ conn, idx int }
	children := make(map[ref][]interval)
	parentsOf := make([][]int, len(t.backend))
	for bi, b := range t.backend {
		if b.kind == kindWrite {
			st.engineWrites++
			st.engineWriteUS = append(st.engineWriteUS, b.end-b.start)
		}
		for ci, c := range t.conns {
			if b.owners != 0 && b.owners&(1<<ci) == 0 {
				continue
			}
			// The last request span starting at or before the call.
			k := sort.Search(len(c.spans), func(i int) bool { return c.spans[i].start > b.start }) - 1
			if k >= 0 && c.spans[k].end >= b.end {
				r := ref{ci, k}
				children[r] = append(children[r], interval{b.start, b.end})
				parentsOf[bi] = append(parentsOf[bi], ci<<40|k)
			}
		}
	}
	id := 0
	serverID := make(map[ref]int)
	for ci, ss := range sessions {
		var cs []connSpan
		if ci < len(t.conns) {
			cs = t.conns[ci].spans
		}
		k := 0
		for _, s := range ss {
			if s.kind == kindWrite {
				st.sessionWrites++
			}
			for k < len(cs) && cs[k].start < s.start {
				k++
			}
			sessID := id
			id++
			st.addDump(dumpSpan{ID: sessID, Layer: "relmerge", Client: ci, Op: kindNames[s.kind], StartNS: s.start, EndNS: s.end})
			if k >= len(cs) || cs[k].start >= s.end {
				st.unmatched++
				continue
			}
			// The client can take its reply before the server's write call
			// returns: clip the request span to the Session span.
			c := cs[k]
			c.end = min(c.end, s.end)
			c.write = min(c.write, c.end-c.start)
			d := float64(s.end - s.start)
			srv := float64(c.end - c.start)
			eng := float64(unionWithin(children[ref{ci, k}], c.start, c.end))
			st.calls++
			st.session += d
			st.relmerge += d - srv
			st.server += srv - eng
			st.engine += eng
			st.socket += float64(c.write)
			serverID[ref{ci, k}] = id
			st.addDump(dumpSpan{ID: id, Parents: []int{sessID}, Layer: "server", Client: ci, StartNS: c.start, EndNS: c.end})
			id++
			k++
		}
	}
	for bi, b := range t.backend {
		var parents []int
		for _, p := range parentsOf[bi] {
			if sid, ok := serverID[ref{p >> 40, p & (1<<40 - 1)}]; ok {
				parents = append(parents, sid)
			}
		}
		st.addDump(dumpSpan{ID: id, Parents: parents, Layer: "engine", Client: -1, Op: kindNames[b.kind], StartNS: b.start, EndNS: b.end})
		id++
	}
	return st
}

// sessionSelf is the split for in-process sessions, where the benchmark
// wraps only the Session: every call's span goes to the layer below it.
func sessionSelf(sessions [][]span) selfTimes {
	var st selfTimes
	id := 0
	for ci, ss := range sessions {
		for _, s := range ss {
			if s.kind == kindWrite {
				st.sessionWrites++
				st.sessionWriteUS = append(st.sessionWriteUS, s.end-s.start)
			}
			st.calls++
			st.session += float64(s.end - s.start)
			st.addDump(dumpSpan{ID: id, Layer: "relmerge", Client: ci, Op: kindNames[s.kind], StartNS: s.start, EndNS: s.end})
			id++
		}
	}
	return st
}

// add accumulates another set-up's split.
func (st *selfTimes) add(o selfTimes) {
	st.calls += o.calls
	st.unmatched += o.unmatched
	st.session += o.session
	st.relmerge += o.relmerge
	st.server += o.server
	st.engine += o.engine
	st.socket += o.socket
	st.engineWrites += o.engineWrites
	st.sessionWrites += o.sessionWrites
	st.engineWriteUS = append(st.engineWriteUS, o.engineWriteUS...)
	st.sessionWriteUS = append(st.sessionWriteUS, o.sessionWriteUS...)
	st.dump = o.dump // span ids are per set-up: keep the latest set-up's spans
}

func (st *selfTimes) addDump(d dumpSpan) {
	if len(st.dump) < maxDump {
		st.dump = append(st.dump, d)
	}
}

// unionWithin is the length of the union of the intervals, clipped to
// [lo, hi].
func unionWithin(ivs []interval, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
	var total int64
	curS, curE := int64(-1), int64(-1)
	for _, iv := range ivs {
		s, e := max(iv.start, lo), min(iv.end, hi)
		if e <= s {
			continue
		}
		if s > curE {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	if curE > curS {
		total += curE - curS
	}
	return total
}

// writeDump writes the spans as JSON lines.
func writeDump(path string, spans []dumpSpan) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
