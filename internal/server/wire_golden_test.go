package server

import (
	"encoding/hex"
	"math"
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/relation"
)

// The binary v2 encoding is a frozen compatibility contract (like the shard
// hash vectors): these byte-exact vectors pin every frame shape. A failure
// here means the wire format changed — that needs a new protocol version,
// not an updated vector.

var goldenRequests = []struct {
	name string
	req  *Request
	hex  string
}{
	{"hello", &Request{ID: 1, Op: OpHello, Version: 2},
		"010100020000000000"},
	{"ping", &Request{ID: 7, Op: OpPing},
		"020700000000000000"},
	{"insert all value kinds", &Request{ID: 2, Op: OpInsert, Relation: "R", Tuple: relation.Tuple{
		relation.Null(),
		relation.NewString("héllo"),
		relation.NewInt(-5),
		relation.NewFloat(math.Float64frombits(0x7ff8000000000001)), // NaN with a payload bit
		relation.NewFloat(math.Float64frombits(0x8000000000000000)), // -0.0
		relation.NewBool(true),
		relation.NewBool(false),
	}},
		"030200000152000700010668c3a96c6c6f020903010000000000f87f03000000000000008005040000"},
	{"fetch with deadline", &Request{ID: 3, Op: OpFetch, Relation: "R",
		Key: relation.Tuple{relation.NewString("k1")}, DeadlineMS: 1500},
		"0603dc0b0001520101026b31000000"},
	{"insert_batch", &Request{ID: 4, Op: OpInsertBatch, Relation: "R", Tuples: []relation.Tuple{
		{relation.NewString("a"), relation.NewInt(1)},
		{relation.NewString("b"), relation.NewInt(2)},
	}},
		"07040000015200000202010161020202010162020400"},
	{"apply_batch", &Request{ID: 5, Op: OpApplyBatch, Ops: []engine.BatchOp{
		engine.Ins("R", relation.Tuple{relation.NewString("x")}),
		engine.Del("R", relation.Tuple{relation.NewString("y")}),
		engine.Upd("R", relation.Tuple{relation.NewString("z")}, relation.Tuple{relation.NewInt(9)}),
	}},
		"080500000000000003030152000101017804015201010179000501520101017a010212"},
}

var goldenResponses = []struct {
	name string
	resp *Response
	hex  string
}{
	{"hello ok", &Response{ID: 1, OK: true, Version: 2},
		"0121000002"},
	{"bare ok", &Response{ID: 2, OK: true},
		"02010000"},
	{"fetch hit", &Response{ID: 3, OK: true, Found: true,
		Tuple: relation.Tuple{relation.NewString("k1"), relation.NewInt(42)}},
		"030700000201026b310254"},
	{"protocol error", &Response{ID: 4, Code: CodeProtocol, Error: "bad frame"},
		"04000870726f746f636f6c09626164206672616d65"},
	{"constraint violation", &Response{ID: 5, Code: CodeConstraint, Error: "null key",
		Violation: &WireViolation{Kind: 2, Relation: "R", Attr: "R.K", Constraint: "NNK", Op: "insert"}},
		"050814636f6e73747261696e745f76696f6c6174696f6e086e756c6c206b657902015203522e4b034e4e4b06696e73657274"},
	{"stats", &Response{ID: 6, OK: true, Stats: &engine.StatsSnapshot{
		Inserts: 3, Deletes: 1, Updates: 2, Lookups: 100, DeclarativeChecks: 7,
		TriggerFirings: 0, IndexLookups: 100, TuplesScanned: 250, VersionLSN: 12}},
		"0611000003010264070064fa010c"},
}

func TestGoldenRequestVectors(t *testing.T) {
	for _, g := range goldenRequests {
		t.Run(g.name, func(t *testing.T) {
			want, err := hex.DecodeString(g.hex)
			if err != nil {
				t.Fatal(err)
			}
			got, err := appendRequest(nil, g.req)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("encoding drifted:\n got  %x\n want %x", got, want)
			}
			dec, err := decodeRequest(want)
			if err != nil {
				t.Fatal(err)
			}
			if !sameEncoding(t, dec, g.req) {
				t.Fatalf("decode mismatch:\n got  %+v\n want %+v", dec, g.req)
			}
		})
	}
}

func TestGoldenResponseVectors(t *testing.T) {
	for _, g := range goldenResponses {
		t.Run(g.name, func(t *testing.T) {
			want, err := hex.DecodeString(g.hex)
			if err != nil {
				t.Fatal(err)
			}
			got := appendResponse(nil, g.resp)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("encoding drifted:\n got  %x\n want %x", got, want)
			}
			dec, err := decodeResponse(want)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(dec, g.resp) {
				t.Fatalf("decode mismatch:\n got  %+v\n want %+v", dec, g.resp)
			}
		})
	}
}
