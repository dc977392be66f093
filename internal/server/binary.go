package server

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/engine"
	"repro/internal/relation"
)

// The binary codec of protocol version 2, which carries every frame after
// the JSON hello. A frame is a 4-byte big-endian length prefix (bounded by
// MaxFrame) and a compact binary body: one opcode byte, unsigned varints for
// IDs, lengths, and counts, signed varints for integer values, and raw
// little-endian IEEE 754 bits for floats — so NaN payloads and signed zero
// survive bit-exactly. Strings travel as length-prefixed raw bytes. Values
// are encoded from, and decoded straight into, relation.Value.
//
// The encoding is a frozen compatibility contract: wire_golden_test.go pins
// byte-exact vectors for every frame shape, and any change that breaks them
// needs a new protocol version, not an edit. Both request and response
// bodies are strict — trailing bytes after the last field fail the decode
// (and therefore the connection) closed.
//
// Field order is fixed and every field is always present (absent fields
// encode as a zero count or empty string, one byte each), which keeps the
// decoder branch-free and the golden vectors total:
//
//	Request  = opcode u8 | id uvarint | deadline_ms uvarint | version uvarint
//	         | relation string | key tuple | tuple tuple
//	         | ntuples uvarint tuple... | nops uvarint op...
//	op       = kind u8 (insert/delete/update opcode) | relation string
//	         | key tuple | tuple tuple
//	Response = id uvarint | flags u8 | code string | error string
//	         | [version uvarint] | [violation] | [tuple] | [stats]
//	violation= kind u8 | relation string | attr string | constraint string | op string
//	stats    = 9 uvarints (inserts deletes updates lookups declarative_checks
//	           trigger_firings index_lookups tuples_scanned version_lsn)
//	tuple    = count uvarint | value...          (count 0 = absent/nil)
//	string   = len uvarint | raw bytes
//	value    = tag u8 | payload (tag-dependent, see binVal*)

// Binary opcodes, one per protocol operation. Frozen.
const (
	binOpHello       = 0x01
	binOpPing        = 0x02
	binOpInsert      = 0x03
	binOpDelete      = 0x04
	binOpUpdate      = 0x05
	binOpFetch       = 0x06
	binOpInsertBatch = 0x07
	binOpApplyBatch  = 0x08
	binOpBegin       = 0x09
	binOpCommit      = 0x0a
	binOpRollback    = 0x0b
	binOpStats       = 0x0c
	binOpCheckpoint  = 0x0d
	// Replication opcodes, appended in v2 without touching the frozen ones.
	// Their requests carry two extra trailing fields (after_lsn uvarint,
	// max_records uvarint) and their responses may carry the repl section
	// (binFlagRepl); both are invisible to the pre-replication frame shapes,
	// so the golden vectors stand.
	binOpReplSubscribe = 0x0e
	binOpReplFetch     = 0x0f
	binOpReplHeartbeat = 0x10
)

// Binary value tags. Booleans fold their value into the tag. Frozen.
const (
	binValNull   = 0x00
	binValString = 0x01 // uvarint length + raw bytes
	binValInt    = 0x02 // signed (zigzag) varint
	binValFloat  = 0x03 // 8 bytes, little-endian IEEE 754 bits
	binValFalse  = 0x04
	binValTrue   = 0x05
)

// Response flag bits. Frozen.
const (
	binFlagOK        = 1 << 0
	binFlagFound     = 1 << 1
	binFlagTuple     = 1 << 2
	binFlagViolation = 1 << 3
	binFlagStats     = 1 << 4
	binFlagVersion   = 1 << 5
	binFlagRepl      = 1 << 6
)

func opToOpcode(op string) (byte, bool) {
	switch op {
	case OpHello:
		return binOpHello, true
	case OpPing:
		return binOpPing, true
	case OpInsert:
		return binOpInsert, true
	case OpDelete:
		return binOpDelete, true
	case OpUpdate:
		return binOpUpdate, true
	case OpFetch:
		return binOpFetch, true
	case OpInsertBatch:
		return binOpInsertBatch, true
	case OpApplyBatch:
		return binOpApplyBatch, true
	case OpBegin:
		return binOpBegin, true
	case OpCommit:
		return binOpCommit, true
	case OpRollback:
		return binOpRollback, true
	case OpStats:
		return binOpStats, true
	case OpCheckpoint:
		return binOpCheckpoint, true
	case OpReplSubscribe:
		return binOpReplSubscribe, true
	case OpReplFetch:
		return binOpReplFetch, true
	case OpReplHeartbeat:
		return binOpReplHeartbeat, true
	}
	return 0, false
}

func opcodeToOp(b byte) (string, bool) {
	switch b {
	case binOpHello:
		return OpHello, true
	case binOpPing:
		return OpPing, true
	case binOpInsert:
		return OpInsert, true
	case binOpDelete:
		return OpDelete, true
	case binOpUpdate:
		return OpUpdate, true
	case binOpFetch:
		return OpFetch, true
	case binOpInsertBatch:
		return OpInsertBatch, true
	case binOpApplyBatch:
		return OpApplyBatch, true
	case binOpBegin:
		return OpBegin, true
	case binOpCommit:
		return OpCommit, true
	case binOpRollback:
		return OpRollback, true
	case binOpStats:
		return OpStats, true
	case binOpCheckpoint:
		return OpCheckpoint, true
	case binOpReplSubscribe:
		return OpReplSubscribe, true
	case binOpReplFetch:
		return OpReplFetch, true
	case binOpReplHeartbeat:
		return OpReplHeartbeat, true
	}
	return "", false
}

// --- encoding (append into the caller's pooled buffer, no allocation) ---

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendValue(dst []byte, v relation.Value) []byte {
	switch v.Kind() {
	case relation.KindString:
		return appendString(append(dst, binValString), v.AsString())
	case relation.KindInt:
		return binary.AppendVarint(append(dst, binValInt), v.AsInt())
	case relation.KindFloat:
		return binary.LittleEndian.AppendUint64(append(dst, binValFloat), math.Float64bits(v.AsFloat()))
	case relation.KindBool:
		if v.AsBool() {
			return append(dst, binValTrue)
		}
		return append(dst, binValFalse)
	}
	return append(dst, binValNull)
}

func appendTuple(dst []byte, t relation.Tuple) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(t)))
	for _, v := range t {
		dst = appendValue(dst, v)
	}
	return dst
}

// batchOpcode maps a batch op kind onto its (insert/delete/update) opcode.
func batchOpcode(k engine.BatchKind) (byte, bool) {
	switch k {
	case engine.BatchInsert:
		return binOpInsert, true
	case engine.BatchDelete:
		return binOpDelete, true
	case engine.BatchUpdate:
		return binOpUpdate, true
	}
	return 0, false
}

// appendRequest encodes one request body.
func appendRequest(dst []byte, req *Request) ([]byte, error) {
	oc, ok := opToOpcode(req.Op)
	if !ok {
		return nil, fmt.Errorf("unknown op %q", req.Op)
	}
	dst = append(dst, oc)
	dst = binary.AppendUvarint(dst, req.ID)
	dst = binary.AppendUvarint(dst, uint64(req.DeadlineMS))
	dst = binary.AppendUvarint(dst, uint64(req.Version))
	dst = appendString(dst, req.Relation)
	dst = appendTuple(dst, req.Key)
	dst = appendTuple(dst, req.Tuple)
	dst = binary.AppendUvarint(dst, uint64(len(req.Tuples)))
	for _, t := range req.Tuples {
		dst = appendTuple(dst, t)
	}
	dst = binary.AppendUvarint(dst, uint64(len(req.Ops)))
	for _, op := range req.Ops {
		kc, ok := batchOpcode(op.Kind)
		if !ok {
			return nil, fmt.Errorf("unknown batch kind %d", op.Kind)
		}
		dst = append(dst, kc)
		dst = appendString(dst, op.Relation)
		dst = appendTuple(dst, op.Key)
		dst = appendTuple(dst, op.Tuple)
	}
	if replOp(req.Op) {
		dst = binary.AppendUvarint(dst, req.AfterLSN)
		dst = binary.AppendUvarint(dst, uint64(req.MaxRecords))
	}
	return dst, nil
}

// appendResponse encodes one response body.
func appendResponse(dst []byte, resp *Response) []byte {
	dst = binary.AppendUvarint(dst, resp.ID)
	var flags byte
	if resp.OK {
		flags |= binFlagOK
	}
	if resp.Found {
		flags |= binFlagFound
	}
	if len(resp.Tuple) > 0 {
		flags |= binFlagTuple
	}
	if resp.Violation != nil {
		flags |= binFlagViolation
	}
	if resp.Stats != nil {
		flags |= binFlagStats
	}
	if resp.Version != 0 {
		flags |= binFlagVersion
	}
	if resp.Repl != nil {
		flags |= binFlagRepl
	}
	dst = append(dst, flags)
	dst = appendString(dst, string(resp.Code))
	dst = appendString(dst, resp.Error)
	if flags&binFlagVersion != 0 {
		dst = binary.AppendUvarint(dst, uint64(resp.Version))
	}
	if v := resp.Violation; v != nil {
		dst = append(dst, v.Kind)
		dst = appendString(dst, v.Relation)
		dst = appendString(dst, v.Attr)
		dst = appendString(dst, v.Constraint)
		dst = appendString(dst, v.Op)
	}
	if flags&binFlagTuple != 0 {
		dst = appendTuple(dst, resp.Tuple)
	}
	if s := resp.Stats; s != nil {
		for _, n := range []int{s.Inserts, s.Deletes, s.Updates, s.Lookups,
			s.DeclarativeChecks, s.TriggerFirings, s.IndexLookups, s.TuplesScanned} {
			dst = binary.AppendUvarint(dst, uint64(n))
		}
		dst = binary.AppendUvarint(dst, s.VersionLSN)
	}
	if rp := resp.Repl; rp != nil {
		dst = binary.AppendUvarint(dst, rp.CommitLSN)
		dst = binary.AppendUvarint(dst, rp.SnapshotLSN)
		dst = binary.AppendUvarint(dst, uint64(len(rp.Snapshot)))
		dst = append(dst, rp.Snapshot...)
		dst = binary.AppendUvarint(dst, uint64(len(rp.Records)))
		for _, rec := range rp.Records {
			dst = binary.AppendUvarint(dst, rec.LSN)
			dst = binary.AppendUvarint(dst, uint64(len(rec.Payload)))
			dst = append(dst, rec.Payload...)
		}
	}
	return dst
}

// --- decoding (strict: bounds-checked, no trailing bytes) ---

// binReader walks one v2 body. Every length and count is validated against
// the remaining bytes before any allocation sized from it, so a hostile
// frame can announce, at most, what its own (MaxFrame-bounded) body holds.
type binReader struct {
	b   []byte
	off int
}

func (r *binReader) remaining() int { return len(r.b) - r.off }

func (r *binReader) u8() (byte, error) {
	if r.off >= len(r.b) {
		return 0, fmt.Errorf("truncated body at byte %d", r.off)
	}
	b := r.b[r.off]
	r.off++
	return b, nil
}

func (r *binReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("bad uvarint at byte %d", r.off)
	}
	r.off += n
	return v, nil
}

func (r *binReader) varint() (int64, error) {
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("bad varint at byte %d", r.off)
	}
	r.off += n
	return v, nil
}

// count reads a collection count, rejecting any that could not fit in the
// remaining bytes even at one byte per element.
func (r *binReader) count() (int, error) {
	n, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if n > uint64(r.remaining()) {
		return 0, fmt.Errorf("count %d exceeds remaining %d bytes", n, r.remaining())
	}
	return int(n), nil
}

func (r *binReader) str() (string, error) {
	n, err := r.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(r.remaining()) {
		return "", fmt.Errorf("string length %d exceeds remaining %d bytes", n, r.remaining())
	}
	s := string(r.b[r.off : r.off+int(n)]) // copy: the body buffer is pooled
	r.off += int(n)
	return s, nil
}

// bytes reads a length-prefixed byte blob (copied: the body buffer is
// pooled). A zero length returns nil.
func (r *binReader) bytes() ([]byte, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(r.remaining()) {
		return nil, fmt.Errorf("blob length %d exceeds remaining %d bytes", n, r.remaining())
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]byte, n)
	copy(out, r.b[r.off:])
	r.off += int(n)
	return out, nil
}

func (r *binReader) value() (relation.Value, error) {
	tag, err := r.u8()
	if err != nil {
		return relation.Value{}, err
	}
	switch tag {
	case binValNull:
		return relation.Null(), nil
	case binValString:
		s, err := r.str()
		return relation.NewString(s), err
	case binValInt:
		n, err := r.varint()
		return relation.NewInt(n), err
	case binValFloat:
		if r.remaining() < 8 {
			return relation.Value{}, fmt.Errorf("truncated float at byte %d", r.off)
		}
		bits := binary.LittleEndian.Uint64(r.b[r.off:])
		r.off += 8
		return relation.NewFloat(math.Float64frombits(bits)), nil
	case binValFalse:
		return relation.NewBool(false), nil
	case binValTrue:
		return relation.NewBool(true), nil
	}
	return relation.Value{}, fmt.Errorf("unknown value tag 0x%02x", tag)
}

func (r *binReader) tuple() (relation.Tuple, error) {
	n, err := r.count()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil // count 0 = absent
	}
	out := make(relation.Tuple, n)
	for i := range out {
		if out[i], err = r.value(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// decodeRequest parses one request body.
func decodeRequest(body []byte) (*Request, error) {
	r := &binReader{b: body}
	oc, err := r.u8()
	if err != nil {
		return nil, err
	}
	op, ok := opcodeToOp(oc)
	if !ok {
		return nil, fmt.Errorf("unknown opcode 0x%02x", oc)
	}
	req := &Request{Op: op}
	if req.ID, err = r.uvarint(); err != nil {
		return nil, err
	}
	deadline, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if deadline > math.MaxInt64 {
		return nil, fmt.Errorf("deadline %d overflows", deadline)
	}
	req.DeadlineMS = int64(deadline)
	version, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if version > math.MaxInt32 {
		return nil, fmt.Errorf("version %d overflows", version)
	}
	req.Version = int(version)
	if req.Relation, err = r.str(); err != nil {
		return nil, err
	}
	if req.Key, err = r.tuple(); err != nil {
		return nil, err
	}
	if req.Tuple, err = r.tuple(); err != nil {
		return nil, err
	}
	ntuples, err := r.count()
	if err != nil {
		return nil, err
	}
	if ntuples > 0 {
		req.Tuples = make([]relation.Tuple, ntuples)
		for i := range req.Tuples {
			if req.Tuples[i], err = r.tuple(); err != nil {
				return nil, err
			}
		}
	}
	nops, err := r.count()
	if err != nil {
		return nil, err
	}
	if nops > 0 {
		req.Ops = make([]engine.BatchOp, nops)
		for i := range req.Ops {
			kc, err := r.u8()
			if err != nil {
				return nil, err
			}
			switch kc {
			case binOpInsert:
				req.Ops[i].Kind = engine.BatchInsert
			case binOpDelete:
				req.Ops[i].Kind = engine.BatchDelete
			case binOpUpdate:
				req.Ops[i].Kind = engine.BatchUpdate
			default:
				return nil, fmt.Errorf("unknown batch kind opcode 0x%02x", kc)
			}
			if req.Ops[i].Relation, err = r.str(); err != nil {
				return nil, err
			}
			if req.Ops[i].Key, err = r.tuple(); err != nil {
				return nil, err
			}
			if req.Ops[i].Tuple, err = r.tuple(); err != nil {
				return nil, err
			}
		}
	}
	if replOp(req.Op) {
		if req.AfterLSN, err = r.uvarint(); err != nil {
			return nil, err
		}
		maxRecords, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if maxRecords > math.MaxInt32 {
			return nil, fmt.Errorf("max_records %d overflows", maxRecords)
		}
		req.MaxRecords = int(maxRecords)
	}
	if r.remaining() != 0 {
		return nil, fmt.Errorf("%d trailing bytes after request", r.remaining())
	}
	return req, nil
}

// decodeResponse parses one response body.
func decodeResponse(body []byte) (*Response, error) {
	r := &binReader{b: body}
	resp := &Response{}
	var err error
	if resp.ID, err = r.uvarint(); err != nil {
		return nil, err
	}
	flags, err := r.u8()
	if err != nil {
		return nil, err
	}
	resp.OK = flags&binFlagOK != 0
	resp.Found = flags&binFlagFound != 0
	code, err := r.str()
	if err != nil {
		return nil, err
	}
	resp.Code = Code(code)
	if resp.Error, err = r.str(); err != nil {
		return nil, err
	}
	if flags&binFlagVersion != 0 {
		version, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if version > math.MaxInt32 {
			return nil, fmt.Errorf("version %d overflows", version)
		}
		resp.Version = int(version)
	}
	if flags&binFlagViolation != 0 {
		v := &WireViolation{}
		if v.Kind, err = r.u8(); err != nil {
			return nil, err
		}
		if v.Relation, err = r.str(); err != nil {
			return nil, err
		}
		if v.Attr, err = r.str(); err != nil {
			return nil, err
		}
		if v.Constraint, err = r.str(); err != nil {
			return nil, err
		}
		if v.Op, err = r.str(); err != nil {
			return nil, err
		}
		resp.Violation = v
	}
	if flags&binFlagTuple != 0 {
		if resp.Tuple, err = r.tuple(); err != nil {
			return nil, err
		}
	}
	if flags&binFlagStats != 0 {
		var ns [8]uint64
		for i := range ns {
			if ns[i], err = r.uvarint(); err != nil {
				return nil, err
			}
			if ns[i] > math.MaxInt64 {
				return nil, fmt.Errorf("stat counter %d overflows", ns[i])
			}
		}
		lsn, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		resp.Stats = &engine.StatsSnapshot{
			Inserts:           int(ns[0]),
			Deletes:           int(ns[1]),
			Updates:           int(ns[2]),
			Lookups:           int(ns[3]),
			DeclarativeChecks: int(ns[4]),
			TriggerFirings:    int(ns[5]),
			IndexLookups:      int(ns[6]),
			TuplesScanned:     int(ns[7]),
			VersionLSN:        lsn,
		}
	}
	if flags&binFlagRepl != 0 {
		rp := &WireRepl{}
		if rp.CommitLSN, err = r.uvarint(); err != nil {
			return nil, err
		}
		if rp.SnapshotLSN, err = r.uvarint(); err != nil {
			return nil, err
		}
		if rp.Snapshot, err = r.bytes(); err != nil {
			return nil, err
		}
		nrecs, err := r.count()
		if err != nil {
			return nil, err
		}
		if nrecs > 0 {
			rp.Records = make([]WireRecord, nrecs)
			for i := range rp.Records {
				if rp.Records[i].LSN, err = r.uvarint(); err != nil {
					return nil, err
				}
				if rp.Records[i].Payload, err = r.bytes(); err != nil {
					return nil, err
				}
			}
		}
		resp.Repl = rp
	}
	if r.remaining() != 0 {
		return nil, fmt.Errorf("%d trailing bytes after response", r.remaining())
	}
	return resp, nil
}
