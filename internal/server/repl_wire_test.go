package server

import (
	"bytes"
	"reflect"
	"testing"
)

// Round-trip the replication request/response shapes: the repl fields are
// additions on top of the frozen binary layout, so they must survive
// encode/decode exactly.
func TestReplFramesRoundTrip(t *testing.T) {
	reqs := []*Request{
		{ID: 7, Op: OpReplSubscribe, AfterLSN: 42, MaxRecords: 512},
		{ID: 8, Op: OpReplFetch, AfterLSN: 0, MaxRecords: 0, DeadlineMS: 250},
		{ID: 9, Op: OpReplHeartbeat},
	}
	resps := []*Response{
		{ID: 7, OK: true, Repl: &WireRepl{CommitLSN: 99, Records: []WireRecord{
			{LSN: 43, Payload: []byte{0x01, 0x00, 0xff}},
			{LSN: 44, Payload: []byte("record")},
		}}},
		{ID: 8, OK: true, Repl: &WireRepl{CommitLSN: 99, Snapshot: []byte("STATE"), SnapshotLSN: 90}},
		{ID: 9, OK: true, Repl: &WireRepl{CommitLSN: 99}},
	}
	for _, req := range reqs {
		var buf bytes.Buffer
		if _, err := WriteFrame(&buf, req); err != nil {
			t.Fatalf("encode %s: %v", req.Op, err)
		}
		body, err := ReadFrame(&buf, DefaultMaxFrame)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeRequest(body)
		if err != nil {
			t.Fatalf("decode %s: %v", req.Op, err)
		}
		if !reflect.DeepEqual(got, req) {
			t.Fatalf("request round-trip:\ngot  %+v\nwant %+v", got, req)
		}
	}
	for _, resp := range resps {
		var buf bytes.Buffer
		if _, err := WriteFrame(&buf, resp); err != nil {
			t.Fatalf("encode response %d: %v", resp.ID, err)
		}
		body, err := ReadFrame(&buf, DefaultMaxFrame)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeResponse(body)
		if err != nil {
			t.Fatalf("decode response %d: %v", resp.ID, err)
		}
		if !reflect.DeepEqual(got, resp) {
			t.Fatalf("response round-trip:\ngot  %+v\nwant %+v", got, resp)
		}
	}
}
