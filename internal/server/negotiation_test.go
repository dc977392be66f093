package server

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"testing"
)

// errV1Offer is the server's refusal of a hello offering version 1.
var errV1Offer = fmt.Errorf("%w: protocol version 1 not supported (server speaks 2)", ErrProtocol)

// The hello exchange is the one JSON frame of the protocol, and its bytes are
// a compatibility contract with every earlier release: these vectors pin
// the whole frame, length prefix included.
var goldenHello = []struct {
	name   string
	write  func(w io.Writer) (int, error)
	prefix string // the 4-byte length prefix, hex
	body   string
}{
	{"hello request", func(w io.Writer) (int, error) {
		return writeJSONFrame(w, &hello{ID: 1, Op: OpHello, Version: ProtoVersion})
	}, "00000022", `{"id":1,"op":"hello","version":2}` + "\n"},
	{"hello accept", func(w io.Writer) (int, error) { return writeHelloReply(w, 1, nil) },
		"0000001f", `{"id":1,"ok":true,"version":2}` + "\n"},
	{"hello refuse", func(w io.Writer) (int, error) { return writeHelloReply(w, 1, errV1Offer) },
		"0000007f", `{"id":1,"ok":false,"code":"protocol","error":"server: protocol violation: protocol version 1 not supported (server speaks 2)"}` + "\n"},
}

func TestGoldenHelloVectors(t *testing.T) {
	for _, g := range goldenHello {
		t.Run(g.name, func(t *testing.T) {
			var buf bytes.Buffer
			if _, err := g.write(&buf); err != nil {
				t.Fatal(err)
			}
			want := g.prefix + hex.EncodeToString([]byte(g.body))
			if got := hex.EncodeToString(buf.Bytes()); got != want {
				t.Fatalf("hello frame drifted:\n got  %s\n want %s", got, want)
			}
		})
	}
	// The pinned refusal is the one the server gives a v1 offer.
	var h hello
	if err := decodeHello([]byte(`{"id":1,"op":"hello","version":1}`), &h); err == nil || err.Error() != errV1Offer.Error() {
		t.Fatalf("v1 offer refused with %v, want %v", err, errV1Offer)
	}
}

// fakeServer accepts connections on a loopback listener and hands each to
// serve, counting accepted connections.
func fakeServer(t *testing.T, serve func(nc net.Conn)) (addr string, accepts *atomic.Int32) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	accepts = new(atomic.Int32)
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			accepts.Add(1)
			go func() {
				defer nc.Close()
				serve(nc)
			}()
		}
	}()
	return ln.Addr().String(), accepts
}

// readOffer reads a JSON hello the way every release's server does.
func readOffer(nc net.Conn) (hello, error) {
	var h hello
	body, err := ReadFrame(nc, DefaultMaxFrame)
	if err != nil {
		return h, err
	}
	return h, json.Unmarshal(body, &h)
}

// TestVersionNegotiationMatrix covers every client/server pairing that can
// meet on the network: only version 2 on both sides connects, a server
// answers any higher offer with 2, and every other pairing is refused with
// CodeProtocol.
func TestVersionNegotiationMatrix(t *testing.T) {
	t.Run("v2 client, v2 server", func(t *testing.T) {
		_, addr := startServer(t, Config{})
		c, err := Dial(addr, ClientOptions{PoolSize: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.InsertCtx(nil, "R", row("neg", "v")); err != nil {
			t.Fatal(err)
		}
		tup, found, err := c.FetchCtx(nil, "R", key("neg"))
		if err != nil || !found || tup[1].AsString() != "v" {
			t.Fatalf("fetch: tup=%v found=%v err=%v", tup, found, err)
		}
		if _, found, err := c.FetchCtx(nil, "R", key("absent")); err != nil || found {
			t.Fatalf("miss: found=%v err=%v", found, err)
		}
	})
	t.Run("v2 client, v1-only server", func(t *testing.T) {
		// A server pinned to JSON v1 accepts the hello but answers version 1.
		addr, accepts := fakeServer(t, func(nc net.Conn) {
			h, err := readOffer(nc)
			if err != nil {
				return
			}
			writeJSONFrame(nc, &helloReply{ID: h.ID, OK: true, Version: 1})
			ReadFrame(nc, DefaultMaxFrame) // wait for the client to hang up
		})
		_, err := Dial(addr, ClientOptions{PoolSize: 1})
		if CodeOf(err) != CodeProtocol {
			t.Fatalf("Dial = %v (code %q), want code %q", err, CodeOf(err), CodeProtocol)
		}
		if n := accepts.Load(); n != 1 {
			t.Fatalf("client dialed %d times, want 1", n)
		}
	})
	t.Run("v1 client, v2 server", func(t *testing.T) {
		_, addr := startServer(t, Config{})
		c := dialRaw(t, addr)
		c.sendHello(1)
		if resps := c.drainResponses(); len(resps) != 1 || resps[0].OK || resps[0].Code != CodeProtocol {
			t.Fatalf("v1 offer answered %+v, want one %q refusal", resps, CodeProtocol)
		}
	})
	t.Run("v3 client, v2 server", func(t *testing.T) {
		_, addr := startServer(t, Config{})
		c := dialRaw(t, addr)
		c.sendHello(3)
		resp, err := c.recv()
		if err != nil || !resp.OK || resp.Version != ProtoVersion {
			t.Fatalf("v3 offer answered %+v (%v), want version %d", resp, err, ProtoVersion)
		}
		c.binary = true
		c.send(&Request{ID: 2, Op: OpPing})
		if resp, err := c.recv(); err != nil || !resp.OK || resp.ID != 2 {
			t.Fatalf("binary ping after the hello: %+v (%v)", resp, err)
		}
	})
}

// TestGarbageVersionFailsOnlyThatConnection sends hellos offering versions
// below 2: each must get exactly one protocol-error reply before the server
// closes that connection, while a connection established before it keeps
// working.
func TestGarbageVersionFailsOnlyThatConnection(t *testing.T) {
	_, addr := startServer(t, Config{})

	good, err := Dial(addr, ClientOptions{PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer good.Close()

	for _, offer := range []int{0, 1} {
		bad := dialRaw(t, addr)
		bad.sendHello(offer)
		resps := bad.drainResponses() // returns only once the server closed the conn
		if len(resps) != 1 {
			t.Fatalf("offer %d: %d replies before close, want 1", offer, len(resps))
		}
		if resp := resps[0]; resp.OK || resp.Code != CodeProtocol {
			t.Fatalf("offer %d answered %+v, want code %q", offer, resp, CodeProtocol)
		}
		if !errors.Is(responseError(resps[0]), ErrProtocol) {
			t.Fatalf("offer %d: response %+v does not map to ErrProtocol", offer, resps[0])
		}
	}

	// The abuse must not have poisoned the healthy connection.
	if err := good.PingCtx(nil); err != nil {
		t.Fatalf("healthy connection broken after another conn's bad hello: %v", err)
	}
}

// TestClientRefusedByLegacyServerDialsOnce runs a fake pre-negotiation
// server that rejects any hello other than version 1 outright. The client
// has no other codec to offer: Dial must fail with CodeProtocol after
// exactly one connection, without redialing.
func TestClientRefusedByLegacyServerDialsOnce(t *testing.T) {
	addr, accepts := fakeServer(t, func(nc net.Conn) {
		h, err := readOffer(nc)
		if err != nil {
			return
		}
		writeJSONFrame(nc, &helloReply{ID: h.ID, Code: CodeProtocol,
			Error: fmt.Sprintf("server: protocol violation: protocol version %d not supported (server speaks 1)", h.Version)})
	})
	_, err := Dial(addr, ClientOptions{PoolSize: 1})
	if CodeOf(err) != CodeProtocol || !errors.Is(err, ErrProtocol) {
		t.Fatalf("Dial against a v1-only server = %v (code %q), want code %q", err, CodeOf(err), CodeProtocol)
	}
	if n := accepts.Load(); n != 1 {
		t.Fatalf("client dialed %d times, want exactly 1", n)
	}
}
