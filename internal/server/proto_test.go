package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"repro/internal/engine"
	"repro/internal/relation"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	req := &Request{ID: 7, Op: OpInsert, Relation: "R", Tuple: relation.Tuple{relation.NewString("k")}}
	if _, err := WriteFrame(&buf, req); err != nil {
		t.Fatal(err)
	}
	body, err := ReadFrame(&buf, DefaultMaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRequest(body)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != 7 || got.Op != OpInsert || got.Relation != "R" || len(got.Tuple) != 1 || got.Tuple[0].AsString() != "k" {
		t.Fatalf("round trip mangled the request: %+v", got)
	}
}

func TestReadFrameFailsClosed(t *testing.T) {
	prefix := func(n uint32) []byte {
		var b [4]byte
		binary.BigEndian.PutUint32(b[:], n)
		return b[:]
	}
	t.Run("zero length", func(t *testing.T) {
		_, err := ReadFrame(bytes.NewReader(prefix(0)), 64)
		if !errors.Is(err, ErrProtocol) {
			t.Fatalf("want ErrProtocol, got %v", err)
		}
	})
	t.Run("oversized", func(t *testing.T) {
		// The limit check must fire before the body is read or allocated:
		// no body bytes follow the prefix, yet the error is ErrProtocol,
		// not an io error from a short read.
		_, err := ReadFrame(bytes.NewReader(prefix(1<<31)), 64)
		if !errors.Is(err, ErrProtocol) {
			t.Fatalf("want ErrProtocol, got %v", err)
		}
	})
	t.Run("truncated body", func(t *testing.T) {
		_, err := ReadFrame(bytes.NewReader(append(prefix(10), 'x')), 64)
		if err == nil || errors.Is(err, io.EOF) {
			t.Fatalf("truncated body must be an error distinct from clean EOF, got %v", err)
		}
	})
	t.Run("clean close", func(t *testing.T) {
		if _, err := ReadFrame(bytes.NewReader(nil), 64); err != io.EOF {
			t.Fatalf("clean close must be unwrapped io.EOF, got %v", err)
		}
	})
	t.Run("truncated prefix", func(t *testing.T) {
		_, err := ReadFrame(bytes.NewReader(prefix(4)[:2]), 64)
		if err == nil || err == io.EOF {
			t.Fatalf("mid-prefix close must be an error distinct from clean EOF, got %v", err)
		}
	})
}

func TestDecodeRequestFailsClosed(t *testing.T) {
	// A well-formed insert of one string value, then the same bytes with one
	// field broken at a time.
	valid := []byte{binOpInsert, 1, 0, 0, 1, 'R', 0, 1, binValString, 1, 'v', 0, 0}
	if _, err := DecodeRequest(valid); err != nil {
		t.Fatalf("valid body refused: %v", err)
	}
	with := func(i int, b byte) []byte {
		out := append([]byte{}, valid...)
		out[i] = b
		return out
	}
	cases := []struct {
		name string
		body []byte
	}{
		{"unknown op", with(0, 0x7f)},
		{"unknown value tag", with(8, 0x06)},
		{"batch kind not a write", []byte{binOpApplyBatch, 1, 0, 0, 0, 0, 0, 0, 1, binOpFetch, 1, 'R', 0, 0}},
		{"trailing byte", append(append([]byte{}, valid...), 0)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeRequest(tc.body)
			if !errors.Is(err, ErrProtocol) {
				t.Fatalf("want ErrProtocol, got %v", err)
			}
		})
	}
}

// FuzzReadFrame feeds arbitrary bytes through the frame reader and every
// decoder that faces untrusted input — the binary request and response
// decoders and the JSON hello and hello-reply decoders: they must fail closed (error or valid
// message), never panic — in particular the binary decoder's counts and
// lengths must be bounds-checked before any allocation sized from them.
func FuzzReadFrame(f *testing.F) {
	var seed bytes.Buffer
	writeJSONFrame(&seed, &hello{ID: 1, Op: OpHello, Version: ProtoVersion})
	f.Add(seed.Bytes())
	seed.Reset()
	WriteFrame(&seed, &Request{ID: 2, Op: OpInsert, Relation: "R",
		Tuple: relation.Tuple{relation.NewString("v"), relation.NewInt(7)}})
	f.Add(seed.Bytes())
	seed.Reset()
	WriteFrame(&seed, &Request{ID: 3, Op: OpApplyBatch,
		Ops: []engine.BatchOp{engine.Del("R", relation.Tuple{relation.Null()})}})
	f.Add(seed.Bytes())
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 'x'})
	f.Add([]byte(`{"id":1,"op":"insert"}`))
	// A binary body announcing a huge tuple count with no bytes behind it.
	f.Add([]byte{0, 0, 0, 12, binOpInsert, 1, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		body, err := ReadFrame(bytes.NewReader(data), 1<<16)
		if err != nil {
			return
		}
		DecodeRequest(body)
		DecodeResponse(body)
		var h hello
		decodeHello(body, &h)
		checkHelloReply(body)
	})
}
