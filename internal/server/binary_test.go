package server

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/relation"
)

// sameEncoding reports whether two messages encode to the same bytes: the
// codec's own notion of equality, which — unlike reflect.DeepEqual — holds
// for NaN floats and tells -0.0 from +0.0.
func sameEncoding(t *testing.T, a, b any) bool {
	t.Helper()
	enc := func(m any) []byte {
		if resp, ok := m.(*Response); ok {
			return appendResponse(nil, resp)
		}
		body, err := appendRequest(nil, m.(*Request))
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	return bytes.Equal(enc(a), enc(b))
}

// FuzzBinaryRoundTrip builds a request and a response from arbitrary
// primitive values and requires encode→decode to be the identity,
// bit-exactly for floats (NaN payloads, signed zero) and byte-exactly for
// strings of any size.
func FuzzBinaryRoundTrip(f *testing.F) {
	f.Add(uint64(1), "rel", "str", int64(-5), math.NaN(), true, int64(0))
	f.Add(uint64(0), "", "", int64(math.MinInt64), math.Copysign(0, -1), false, int64(1))
	f.Add(uint64(math.MaxUint64), "R", strings.Repeat("x", 1<<16), int64(math.MaxInt64), math.Inf(-1), true, int64(250))
	f.Fuzz(func(t *testing.T, id uint64, rel, s string, i int64, fv float64, b bool, deadline int64) {
		if deadline < 0 {
			deadline = -deadline
		}
		if deadline < 0 { // MinInt64 negates to itself
			deadline = 0
		}
		tuple := relation.Tuple{
			relation.Null(),
			relation.NewString(s),
			relation.NewInt(i),
			relation.NewFloat(fv),
			relation.NewBool(b),
		}
		req := &Request{
			ID: id, Op: OpUpdate, Relation: rel, DeadlineMS: deadline,
			Key:   relation.Tuple{relation.NewString(s)},
			Tuple: tuple,
		}
		body, err := appendRequest(nil, req)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		got, err := decodeRequest(body)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !sameEncoding(t, got, req) || got.Tuple[1].AsString() != s || got.Tuple[2].AsInt() != i || got.Tuple[4].AsBool() != b {
			t.Fatalf("round trip mismatch:\n got  %+v\n want %+v", got, req)
		}
		// Float bits must survive exactly, not just as equal values.
		if bits := math.Float64bits(got.Tuple[3].AsFloat()); bits != math.Float64bits(fv) {
			t.Fatalf("float bits %016x, want %016x", bits, math.Float64bits(fv))
		}

		resp := &Response{
			ID: id, OK: b, Found: true, Tuple: tuple,
			Code: Code(rel), Error: s,
		}
		rgot, err := decodeResponse(appendResponse(nil, resp))
		if err != nil {
			t.Fatalf("decode response: %v", err)
		}
		if !sameEncoding(t, rgot, resp) || rgot.Error != s || !rgot.Tuple[0].IsNull() {
			t.Fatalf("response round trip mismatch:\n got  %+v\n want %+v", rgot, resp)
		}
	})
}

// singleWriteRecorder counts Write calls: every frame path must issue
// exactly one per frame (prefix and body together).
type singleWriteRecorder struct {
	writes int
	buf    bytes.Buffer
}

func (r *singleWriteRecorder) Write(p []byte) (int, error) {
	r.writes++
	return r.buf.Write(p)
}

func TestWriteFrameSingleWrite(t *testing.T) {
	req := &Request{ID: 9, Op: OpInsert, Relation: "R",
		Tuple: relation.Tuple{relation.NewString("v")}}
	var rec singleWriteRecorder
	if _, err := WriteFrame(&rec, req); err != nil {
		t.Fatal(err)
	}
	if rec.writes != 1 {
		t.Errorf("binary frame took %d writes, want 1", rec.writes)
	}
	body, err := ReadFrame(&rec.buf, DefaultMaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRequest(body)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, req) {
		t.Errorf("binary frame round trip mismatch: %+v", got)
	}

	rec = singleWriteRecorder{}
	if _, err := writeJSONFrame(&rec, &hello{ID: 1, Op: OpHello, Version: ProtoVersion}); err != nil {
		t.Fatal(err)
	}
	if rec.writes != 1 {
		t.Errorf("hello frame took %d writes, want 1", rec.writes)
	}
}

// typicalFetch is a fetch hit of a three-column tuple, the frame a read-heavy
// session moves most.
var typicalFetch = &Response{ID: 3, OK: true, Found: true,
	Tuple: relation.Tuple{relation.NewString("k1"), relation.NewInt(42), relation.NewFloat(42)}}

// TestEncodeAllocsSteadyState pins the allocs/frame budget: once the pool is
// warm, encoding a typical frame must cost at most 2 allocations.
func TestEncodeAllocsSteadyState(t *testing.T) {
	var sink bytes.Buffer
	// Warm the pool.
	for i := 0; i < 16; i++ {
		sink.Reset()
		if _, err := WriteFrame(&sink, typicalFetch); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		sink.Reset()
		if _, err := WriteFrame(&sink, typicalFetch); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("binary encode path allocates %.1f/frame, budget is 2", allocs)
	}
}

// TestDecodeAllocsSteadyState pins the allocations of decoding the two most
// common frames, values going straight into relation.Value: the message, its
// tuple, and the one multi-byte string it copies out of the pooled buffer
// (Go interns one-byte strings, so "R" and "v" cost nothing).
func TestDecodeAllocsSteadyState(t *testing.T) {
	fetch := appendResponse(nil, typicalFetch)
	insert, err := appendRequest(nil, &Request{ID: 9, Op: OpInsert, Relation: "R",
		Tuple: relation.Tuple{relation.NewString("k1"), relation.NewString("v"), relation.NewInt(7), relation.Null()}})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		budget float64
		decode func() error
	}{
		{"fetch response", 3, func() error {
			_, err := DecodeResponse(fetch)
			return err
		}},
		{"insert request", 3, func() error {
			_, err := DecodeRequest(insert)
			return err
		}},
	} {
		allocs := testing.AllocsPerRun(200, func() {
			if err := tc.decode(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > tc.budget {
			t.Errorf("decoding a %s allocates %.1f, budget is %.0f", tc.name, allocs, tc.budget)
		}
	}
}

// TestBinaryTruncationFailsClosed walks every prefix of a valid body: each
// must produce a decode error, never a panic or a silently short request.
func TestBinaryTruncationFailsClosed(t *testing.T) {
	req := &Request{ID: 5, Op: OpApplyBatch, Ops: []engine.BatchOp{
		engine.Upd("R", relation.Tuple{relation.NewString("k")},
			relation.Tuple{relation.NewInt(7), relation.NewFloat(1)}),
	}}
	body, err := appendRequest(nil, req)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(body); n++ {
		if _, err := decodeRequest(body[:n]); err == nil {
			t.Fatalf("decode accepted a %d/%d-byte truncation", n, len(body))
		}
	}
	// And one past the end: trailing bytes are a protocol violation too.
	if _, err := decodeRequest(append(append([]byte{}, body...), 0)); err == nil {
		t.Fatal("decode accepted a trailing byte")
	}
}
