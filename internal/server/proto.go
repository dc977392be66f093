// Package server implements the relmerged network service: a length-prefixed
// TCP protocol (one JSON hello, then binary frames) serving engine operations
// (insert/delete/update/fetch/batch/txn/stats/checkpoint) from a bounded
// worker pool with admission control, per-request deadlines, and write
// coalescing aligned with the WAL's group commit. The matching client (with
// connection pooling and retries for idempotent operations) lives in this
// package too; pkg/relmerge wraps both behind the Session interface.
package server

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"repro/internal/engine"
	"repro/internal/relation"
)

// ProtoVersion is the wire protocol version: binary frames (see binary.go)
// after a JSON hello. The hello is the only frame whose codec does not depend
// on the version, so a peer of any release can learn what the other speaks:
// the client offers its version, the server answers ProtoVersion to any offer
// of at least ProtoVersion and refuses anything lower with CodeProtocol.
const ProtoVersion = 2

// DefaultMaxFrame bounds a single frame (4-byte length prefix + body).
// Frames announcing a larger body fail the connection closed before any
// allocation proportional to the announced size.
const DefaultMaxFrame = 4 << 20

// Operation names carried in Request.Op.
const (
	OpHello       = "hello"
	OpPing        = "ping"
	OpInsert      = "insert"
	OpDelete      = "delete"
	OpUpdate      = "update"
	OpFetch       = "fetch"
	OpInsertBatch = "insert_batch"
	OpApplyBatch  = "apply_batch"
	OpBegin       = "begin"
	OpCommit      = "commit"
	OpRollback    = "rollback"
	OpStats       = "stats"
	OpCheckpoint  = "checkpoint"

	// Replication ops (see repl.go in internal/repl for the shipping loop).
	// All three are reads against the primary's log: subscribe validates a
	// start position (shipping a snapshot when it was compacted away), fetch
	// returns the next chunk of committed records plus the commit horizon,
	// heartbeat returns the horizon alone.
	OpReplSubscribe = "repl_subscribe"
	OpReplFetch     = "repl_fetch"
	OpReplHeartbeat = "repl_heartbeat"
)

// writeOp reports whether op mutates the database and is therefore a
// candidate for server-side coalescing into one WAL group commit.
func writeOp(op string) bool {
	switch op {
	case OpInsert, OpDelete, OpUpdate, OpInsertBatch, OpApplyBatch:
		return true
	}
	return false
}

// replOp reports whether op is a replication operation; these carry the
// repl-only request fields (AfterLSN, MaxRecords) in the binary codec.
func replOp(op string) bool {
	switch op {
	case OpReplSubscribe, OpReplFetch, OpReplHeartbeat:
		return true
	}
	return false
}

// Request is one client frame. ID must be unique among the connection's
// in-flight requests; reusing a live ID is a protocol violation.
type Request struct {
	ID      uint64
	Op      string
	Version int // hello only

	Relation string
	Key      relation.Tuple
	Tuple    relation.Tuple
	Tuples   []relation.Tuple // insert_batch
	Ops      []engine.BatchOp // apply_batch

	// DeadlineMS is the client's remaining time budget in milliseconds;
	// zero means no deadline. The server arms a context deadline from it,
	// so a request that expires while queued is answered with CodeDeadline
	// without touching the engine.
	DeadlineMS int64

	// Replication fields (repl_subscribe / repl_fetch only): the follower's
	// durable position and the record-count cap for one fetch chunk.
	AfterLSN   uint64
	MaxRecords int
}

// Response is one server frame, correlated to its request by ID.
type Response struct {
	ID      uint64
	OK      bool
	Code    Code
	Error   string
	Version int // hello only

	// Violation carries the full typed constraint violation when Code is
	// CodeConstraint, so clients can reconstruct *engine.ConstraintViolation
	// (which null-constraint regime fired, on which relation/attribute).
	Violation *WireViolation

	Found bool                  // fetch
	Tuple relation.Tuple        // fetch
	Stats *engine.StatsSnapshot // stats
	Repl  *WireRepl             // repl_*
}

// WireRepl is the payload of a replication response: the primary's commit
// horizon, a chunk of committed records (repl_fetch), and — when the
// requested position was compacted away — a full snapshot to bootstrap from.
type WireRepl struct {
	CommitLSN   uint64
	Records     []WireRecord
	Snapshot    []byte
	SnapshotLSN uint64
}

// WireRecord is one shipped WAL record: the primary's LSN and the opaque
// record payload (the engine's op encoding, replayed verbatim by the
// follower's log).
type WireRecord struct {
	LSN     uint64
	Payload []byte
}

// WireViolation mirrors engine.ConstraintViolation on the wire.
type WireViolation struct {
	Kind       uint8
	Relation   string
	Attr       string
	Constraint string
	Op         string
}

// hello is the client's opening frame, the protocol's one JSON body:
// {"id":N,"op":"hello","version":V}. Its shape is frozen so that peers of
// every release can read each other's offer.
type hello struct {
	ID      uint64 `json:"id"`
	Op      string `json:"op"`
	Version int    `json:"version,omitempty"`
}

// helloReply is the server's JSON answer to the hello: an acceptance naming
// the version the connection speaks from the next frame on, or a refusal.
type helloReply struct {
	ID      uint64 `json:"id"`
	OK      bool   `json:"ok"`
	Code    Code   `json:"code,omitempty"`
	Error   string `json:"error,omitempty"`
	Version int    `json:"version,omitempty"`
}

// decodeHello parses the opening frame and checks the offer. A body that is
// not a JSON hello, or offers a version below ProtoVersion, is ErrProtocol.
func decodeHello(body []byte, h *hello) error {
	if err := json.Unmarshal(body, h); err != nil {
		return fmt.Errorf("%w: bad hello: %v", ErrProtocol, err)
	}
	if h.Op != OpHello {
		return fmt.Errorf("%w: first frame must be hello, got %q", ErrProtocol, h.Op)
	}
	if h.Version < ProtoVersion {
		return fmt.Errorf("%w: protocol version %d not supported (server speaks %d)", ErrProtocol, h.Version, ProtoVersion)
	}
	return nil
}

// checkHelloReply parses the server's answer to the hello: nil for an
// acceptance of ProtoVersion, the refusal as a *RemoteError, and ErrProtocol
// for anything else — there is no other codec to fall back to.
func checkHelloReply(body []byte) error {
	var r helloReply
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("%w: bad hello reply: %v", ErrProtocol, err)
	}
	if !r.OK {
		return responseError(&Response{Code: r.Code, Error: r.Error})
	}
	if r.Version != ProtoVersion {
		return fmt.Errorf("%w: server answered protocol %d, client speaks only %d", ErrProtocol, r.Version, ProtoVersion)
	}
	return nil
}

// writeHelloReply accepts the hello when err is nil and refuses it with
// err's code otherwise.
func writeHelloReply(w io.Writer, id uint64, err error) (int, error) {
	r := helloReply{ID: id, OK: true, Version: ProtoVersion}
	if err != nil {
		r = helloReply{ID: id, Code: CodeOf(err), Error: err.Error()}
	}
	return writeJSONFrame(w, &r)
}

// AcceptHello runs the server side of the handshake on a fresh connection:
// read the client's JSON hello and answer it. On a nil error the connection
// speaks binary frames from the next frame on; any error has already been
// answered (best effort) with a refusal, and the caller closes the
// connection. read and written count the frame bytes moved, prefixes
// included.
func AcceptHello(r io.Reader, w io.Writer, maxFrame int) (read, written int, err error) {
	var h hello
	body, err := ReadFrame(r, maxFrame)
	if err == nil {
		read = 4 + len(body)
		err = decodeHello(body, &h)
	}
	written, werr := writeHelloReply(w, h.ID, err)
	if err == nil {
		err = werr
	}
	return read, written, err
}

// writeJSONFrame writes one length-prefixed JSON frame in a single Write.
// Only the hello exchange uses it. The body ends in a newline, which keeps
// the frames byte-identical to earlier releases' hellos; decoders treat it as
// whitespace.
func writeJSONFrame(w io.Writer, v any) (int, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return 0, err
	}
	buf := binary.BigEndian.AppendUint32(make([]byte, 0, 5+len(body)), uint32(len(body)+1))
	buf = append(append(buf, body...), '\n')
	return w.Write(buf)
}

// framePool holds the per-write scratch buffers: each frame is assembled —
// 4-byte length prefix plus body — in one reusable buffer and issued as ONE
// Write, so steady-state serving neither allocates a body per frame nor
// copies it into a second framing buffer.
var framePool = sync.Pool{New: func() any {
	b := make([]byte, 0, 512)
	return &b
}}

// frameKeepCap bounds what a pooled frame buffer may retain: a rare huge
// frame should not pin its allocation in the pool forever.
const frameKeepCap = 64 << 10

// WriteFrame writes one length-prefixed binary frame; m must be a *Request
// or a *Response.
func WriteFrame(w io.Writer, m any) (int, error) {
	bp := framePool.Get().(*[]byte)
	buf := append((*bp)[:0], 0, 0, 0, 0)
	var err error
	switch m := m.(type) {
	case *Request:
		buf, err = appendRequest(buf, m)
	case *Response:
		buf = appendResponse(buf, m)
	default:
		err = fmt.Errorf("binary codec cannot encode %T", m)
	}
	if err != nil {
		framePool.Put(bp)
		return 0, err
	}
	binary.BigEndian.PutUint32(buf, uint32(len(buf)-4))
	n, err := w.Write(buf)
	if cap(buf) <= frameKeepCap {
		*bp = buf
		framePool.Put(bp)
	}
	return n, err
}

// ReadFrame reads one length-prefixed frame body of at most maxFrame bytes.
// An announced length of zero or beyond the limit is a protocol violation
// (returned before reading — and before allocating — the body). io.EOF is
// returned unwrapped on a clean close before the prefix.
func ReadFrame(r io.Reader, maxFrame int) ([]byte, error) {
	return ReadFrameInto(r, maxFrame, nil)
}

// ReadFrameInto is ReadFrame with a reusable buffer: when buf's capacity
// covers the announced length the body is read into it and the returned
// slice aliases buf. Connections keep one scratch buffer and pass it here,
// so steady-state reads allocate nothing.
func ReadFrameInto(r io.Reader, maxFrame int, buf []byte) ([]byte, error) {
	var prefix [4]byte
	if _, err := io.ReadFull(r, prefix[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("reading frame length: %w", err)
	}
	n := binary.BigEndian.Uint32(prefix[:])
	if n == 0 {
		return nil, fmt.Errorf("%w: zero-length frame", ErrProtocol)
	}
	if int64(n) > int64(maxFrame) {
		return nil, fmt.Errorf("%w: frame of %d bytes exceeds limit %d", ErrProtocol, n, maxFrame)
	}
	var body []byte
	if uint64(cap(buf)) >= uint64(n) {
		body = buf[:n]
	} else {
		body = make([]byte, n)
	}
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, fmt.Errorf("reading frame body: %w", err)
	}
	return body, nil
}

// DecodeRequest parses one binary request body. Malformed bodies — unknown
// opcodes or value tags, bad lengths, trailing bytes — are ErrProtocol: the
// connection fails closed.
func DecodeRequest(body []byte) (*Request, error) {
	req, err := decodeRequest(body)
	if err != nil {
		return nil, fmt.Errorf("%w: bad request: %v", ErrProtocol, err)
	}
	return req, nil
}

// DecodeResponse parses one binary response body.
func DecodeResponse(body []byte) (*Response, error) {
	resp, err := decodeResponse(body)
	if err != nil {
		return nil, fmt.Errorf("%w: bad response: %v", ErrProtocol, err)
	}
	return resp, nil
}
