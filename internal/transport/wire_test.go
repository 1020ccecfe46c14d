package transport

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repdir/internal/codec"
	"repdir/internal/keyspace"
	"repdir/internal/lock"
	"repdir/internal/rep"
	"repdir/internal/version"
)

// TestWireGoldenVectors pins the binary encoding byte-for-byte. These
// vectors are the on-wire contract: if one of them changes, old and new
// builds can no longer talk, so a failure here means "bump the wire
// version", never "update the expected bytes". Request vectors carry
// the version in their names.
func TestWireGoldenVectors(t *testing.T) {
	// The request header is tag, id, txn, epoch, deadline budget
	// (microseconds, 0 = none); op fields follow.
	reqVectors := []struct {
		name string
		ver  int // the wire version that introduced the vector's tag
		req  request
		want []byte
	}{
		{
			name: "lookup_deadline",
			ver:  3,
			req:  request{ID: 7, Op: opLookup, Txn: 9, Epoch: 5, Deadline: 300, Key: keyspace.New("k")},
			want: []byte{0x01, 0x07, 0x09, 0x05, 0xac, 0x02, 0x02, 0x01, 'k'},
		},
		{
			name: "lookup_no_deadline",
			ver:  3,
			req:  request{ID: 7, Op: opLookup, Txn: 9, Key: keyspace.New("k")},
			want: []byte{0x01, 0x07, 0x09, 0x00, 0x00, 0x02, 0x01, 'k'},
		},
		{
			name: "lookup_once",
			ver:  4,
			req:  request{ID: 7, Op: opLookupOnce, Txn: 9, Epoch: 5, Deadline: 300, Key: keyspace.New("k")},
			want: []byte{0x0d, 0x07, 0x09, 0x05, 0xac, 0x02, 0x02, 0x01, 'k'},
		},
		{
			name: "prepare_deadline",
			ver:  3,
			req:  request{ID: 200, Op: opPrepare, Txn: 300, Deadline: 1},
			want: []byte{0x08, 0xc8, 0x01, 0xac, 0x02, 0x00, 0x01},
		},
	}
	for _, v := range reqVectors {
		t.Run(fmt.Sprintf("request_v%d_%s", v.ver, v.name), func(t *testing.T) {
			got := appendRequest(nil, &v.req)
			if !bytes.Equal(got, v.want) {
				t.Fatalf("encoding drifted:\n got  %#v\n want %#v", got, v.want)
			}
		})
	}

	respVectors := []struct {
		name string
		resp response
		want []byte
	}{
		{
			name: "lookup_found",
			resp: response{ID: 7, Op: opLookup, Code: codeOK, Found: true, Version: 4, Value: "v"},
			want: []byte{0x01, 0x07, 0x00, 0x01, 0x04, 0x01, 'v'},
		},
		{
			name: "lookup_once_gap",
			resp: response{ID: 7, Op: opLookupOnce, Code: codeOK, Found: false, Version: 4},
			want: []byte{0x0d, 0x07, 0x00, 0x00, 0x04, 0x00},
		},
		{
			name: "predecessor",
			resp: response{ID: 1, Op: opPredecessor, Code: codeOK, Key: keyspace.New("p"), Version: 2, Value: "w", GapVersion: 3},
			want: []byte{0x02, 0x01, 0x00, 0x02, 0x01, 'p', 0x02, 0x01, 'w', 0x03},
		},
		{
			name: "status",
			resp: response{ID: 1, Op: opStatus, Code: codeOK, TxnStatus: rep.TxnStatus(2)},
			want: []byte{0x0b, 0x01, 0x00, 0x02},
		},
		{
			name: "error",
			resp: response{ID: 1, Op: opInsert, Code: codeSentinel, Msg: "no"},
			want: []byte{0x06, 0x01, 0x02, 0x02, 'n', 'o'},
		},
	}
	for _, v := range respVectors {
		t.Run("response_"+v.name, func(t *testing.T) {
			got := appendResponse(nil, &v.resp)
			if !bytes.Equal(got, v.want) {
				t.Fatalf("encoding drifted:\n got  %#v\n want %#v", got, v.want)
			}
		})
	}
}

// wireRequestVariants covers every request op with representative field
// values; wireResponseVariants does the same for responses.
func wireRequestVariants() []request {
	return []request{
		{ID: 1, Op: opLookup, Txn: 2, Key: keyspace.New("alpha")},
		{ID: 3, Op: opPredecessor, Txn: 4, Key: keyspace.High()},
		{ID: 5, Op: opSuccessor, Txn: 6, Key: keyspace.Low()},
		{ID: 7, Op: opPredecessorBatch, Txn: 8, Key: keyspace.New("b"), Count: 17},
		{ID: 9, Op: opSuccessorBatch, Txn: 10, Key: keyspace.New(""), Count: 0},
		{ID: 11, Op: opInsert, Txn: 12, Key: keyspace.New("k"), Version: 1 << 40, Value: "value with spaces\x00and zero"},
		{ID: 13, Op: opCoalesce, Txn: 14, Key: keyspace.Low(), Hi: keyspace.New("z"), Version: 7},
		{ID: 15, Op: opPrepare, Txn: 16},
		{ID: 17, Op: opCommit, Txn: 18},
		{ID: 19, Op: opAbort, Txn: 20},
		{ID: 21, Op: opStatus, Txn: 22},
		{ID: 23, Op: opName},
		{ID: 25, Op: opLookupOnce, Txn: 26, Key: keyspace.New("once")},
	}
}

func wireResponseVariants() []response {
	return []response{
		{ID: 1, Op: opLookup, Found: true, Version: 9, Value: "v"},
		{ID: 2, Op: opLookup, Found: false},
		{ID: 3, Op: opPredecessor, Key: keyspace.New("p"), Version: 1, Value: "x", GapVersion: 2},
		{ID: 4, Op: opSuccessor, Key: keyspace.High(), Version: 1, GapVersion: 1 << 50},
		{ID: 5, Op: opPredecessorBatch, Neighbors: []rep.NeighborResult{
			{Key: keyspace.Low(), Version: 1, Value: "", GapVersion: 2},
			{Key: keyspace.New("n"), Version: 3, Value: "nv", GapVersion: 4},
		}},
		{ID: 6, Op: opSuccessorBatch},
		{ID: 7, Op: opInsert},
		{ID: 8, Op: opCoalesce, DeletedKeys: []keyspace.Key{keyspace.New("a"), keyspace.New("b")}},
		{ID: 9, Op: opCoalesce},
		{ID: 10, Op: opPrepare},
		{ID: 11, Op: opCommit},
		{ID: 12, Op: opAbort},
		{ID: 13, Op: opStatus, TxnStatus: rep.TxnStatus(1)},
		{ID: 14, Op: opName, Name: "rep-a"},
		{ID: 15, Op: opInsert, Code: codeSentinel, Msg: "cannot overwrite sentinel"},
		{ID: 16, Op: opLookup, Code: codeUnavailable, Msg: "down"},
		{ID: 17, Op: opLookupOnce, Found: true, Version: 3, Value: "once"},
		{ID: 18, Op: opLookupOnce, Code: codeDie, Msg: "die"},
	}
}

// TestWireRoundTrip encodes and decodes every request and response
// variant, alone and coalesced into one frame.
func TestWireRoundTrip(t *testing.T) {
	reqs := wireRequestVariants()
	for i := range reqs {
		reqs[i].Epoch = uint64(i * 3)
		reqs[i].Deadline = uint64(i * 50_000)
	}
	var buf []byte
	for i := range reqs {
		buf = appendRequest(buf, &reqs[i])
	}
	r := codec.NewReader(buf)
	for i := range reqs {
		var got request
		if err := readRequest(r, &got); err != nil {
			t.Fatalf("request %d (%v): %v", i, reqs[i].Op, err)
		}
		if !reflect.DeepEqual(got, reqs[i]) {
			t.Fatalf("request round-trip mismatch:\n got  %+v\n want %+v", got, reqs[i])
		}
	}
	if r.Remaining() != 0 {
		t.Fatalf("%d bytes left over after decoding all requests", r.Remaining())
	}

	resps := wireResponseVariants()
	buf = nil
	for i := range resps {
		buf = appendResponse(buf, &resps[i])
	}
	r = codec.NewReader(buf)
	for i := range resps {
		var got response
		if err := readResponse(r, &got); err != nil {
			t.Fatalf("response %d (%v): %v", i, resps[i].Op, err)
		}
		if !reflect.DeepEqual(got, resps[i]) {
			t.Fatalf("response round-trip mismatch:\n got  %+v\n want %+v", got, resps[i])
		}
	}
	if r.Remaining() != 0 {
		t.Fatalf("%d bytes left over after decoding all responses", r.Remaining())
	}
}

// TestWireTruncatedInputs feeds every prefix of valid messages to the
// decoders: each must error cleanly, never panic or read out of bounds.
func TestWireTruncatedInputs(t *testing.T) {
	reqs := wireRequestVariants()
	for i := range reqs {
		full := appendRequest(nil, &reqs[i])
		for n := 0; n < len(full); n++ {
			var got request
			if err := readRequest(codec.NewReader(full[:n]), &got); err == nil {
				t.Fatalf("request %v truncated to %d/%d bytes decoded without error", reqs[i].Op, n, len(full))
			}
		}
	}
	resps := wireResponseVariants()
	for i := range resps {
		full := appendResponse(nil, &resps[i])
		for n := 0; n < len(full); n++ {
			var got response
			if err := readResponse(codec.NewReader(full[:n]), &got); err == nil {
				t.Fatalf("response %v truncated to %d/%d bytes decoded without error", resps[i].Op, n, len(full))
			}
		}
	}
}

// TestProtocolNegotiation covers the preamble exchange. A matching
// server carries traffic; a server that closes the connection after
// the client's preamble (what a pre-codec build does) or answers with
// another wire version fails the call with ErrUnavailable, and the
// client's redial offers the same preamble again — there is no other
// codec to fall back to.
func TestProtocolNegotiation(t *testing.T) {
	t.Run("binary_binary", func(t *testing.T) {
		srv, err := Serve(rep.New("nego"), "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		c, err := Dial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if err := c.Insert(ctx, 1, keyspace.New("k"), 1, "v"); err != nil {
			t.Fatal(err)
		}
		if err := c.Commit(ctx, 1); err != nil {
			t.Fatal(err)
		}
		res, err := c.Lookup(ctx, 2, keyspace.New("k"))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found || res.Value != "v" {
			t.Fatalf("lookup = %+v, want found v", res)
		}
		c.Abort(ctx, 2)
		if sent := c.WireStats().Sent(); sent.Frames == 0 || sent.Msgs == 0 {
			t.Fatalf("connection recorded no wire traffic: %+v", sent)
		}
	})
	t.Run("v3_client", func(t *testing.T) {
		// A version-3 build offers [0x00, 3]; the server must close the
		// connection without echoing, so that build fails at dial instead
		// of meeting tag 13 mid-stream.
		srv, err := Serve(rep.New("nego"), "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write([]byte{preambleByte, 3}); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		var b [2]byte
		if n, err := io.ReadFull(conn, b[:]); err == nil || n != 0 {
			t.Fatalf("server answered a version-3 preamble with %d bytes %v (err %v), want a close", n, b[:n], err)
		}
	})
	for _, tc := range []struct {
		name  string
		reply []byte // nil: close without answering
	}{
		{"new_client_legacy_server", nil},
		{"wrong_version", []byte{preambleByte, 3}},
		{"wrong_preamble_byte", []byte{0x01, wireVersion}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addr, preambles := fakePreambleServer(t, tc.reply)
			c := &Client{addr: addr}
			for attempt := 0; attempt < 2; attempt++ {
				if attempt > 0 {
					// Let the redial backoff lapse so the second call dials.
					c.mu.Lock()
					c.nextDial = time.Time{}
					c.mu.Unlock()
				}
				_, err := c.Lookup(ctx, 1, keyspace.New("k"))
				if !errors.Is(err, ErrUnavailable) {
					t.Fatalf("attempt %d: lookup = %v, want ErrUnavailable", attempt, err)
				}
			}
			for i := 0; i < 2; i++ {
				select {
				case got := <-preambles:
					if want := [2]byte{preambleByte, wireVersion}; got != want {
						t.Fatalf("dial %d offered preamble %v, want %v", i, got, want)
					}
				case <-time.After(5 * time.Second):
					t.Fatalf("server saw %d dials, want 2", i)
				}
			}
		})
	}
}

// fakePreambleServer accepts connections, reports each client
// preamble on the returned channel, answers with reply (or nothing),
// and closes the connection.
func fakePreambleServer(t *testing.T, reply []byte) (string, <-chan [2]byte) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	preambles := make(chan [2]byte, 8)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			var pre [2]byte
			if _, err := io.ReadFull(conn, pre[:]); err == nil {
				preambles <- pre
				if reply != nil {
					conn.Write(reply)
				}
			}
			conn.Close()
		}
	}()
	return ln.Addr().String(), preambles
}

// TestLocalTCPEquivalence drives the same operation sequence through the
// in-process Local transport and a TCP client, and requires identical
// results — the codec must be semantically invisible.
func TestLocalTCPEquivalence(t *testing.T) {
	type outcome struct {
		desc string
		val  any
		err  error
	}
	drive := func(d rep.Directory) []outcome {
		var out []outcome
		add := func(desc string, val any, err error) {
			// Compare error identities, not message spellings: remote
			// errors carry an addr suffix by design.
			for _, sentinel := range []error{rep.ErrSentinel, rep.ErrMissingBound, rep.ErrBadRange,
				rep.ErrNoNeighbor, rep.ErrTxnDecided, rep.ErrUnknownTxn} {
				if errors.Is(err, sentinel) {
					out = append(out, outcome{desc, val, sentinel})
					return
				}
			}
			out = append(out, outcome{desc, val, err})
		}
		ins := func(txn lock.TxnID, k string, ver version.V, v string) {
			add("insert "+k, nil, d.Insert(ctx, txn, keyspace.New(k), ver, v))
		}
		ins(1, "b", 1, "bv")
		ins(1, "d", 1, "dv")
		ins(1, "f", 1, "fv")
		add("commit 1", nil, d.Commit(ctx, 1))
		lr, err := d.Lookup(ctx, 2, keyspace.New("d"))
		add("lookup d", lr, err)
		lr, err = d.Lookup(ctx, 2, keyspace.New("nope"))
		add("lookup nope", lr, err)
		nr, err := d.Predecessor(ctx, 2, keyspace.New("d"))
		add("pred d", nr, err)
		nr, err = d.Successor(ctx, 2, keyspace.New("d"))
		add("succ d", nr, err)
		ns, err := d.SuccessorBatch(ctx, 2, keyspace.Low(), 10)
		add("succ batch", ns, err)
		ns, err = d.PredecessorBatch(ctx, 2, keyspace.High(), 2)
		add("pred batch", ns, err)
		st, err := d.Status(ctx, 2)
		add("status", st, err)
		add("abort 2", nil, d.Abort(ctx, 2))
		cr, err := d.Coalesce(ctx, 3, keyspace.New("a"), keyspace.New("e"), 2)
		add("coalesce", cr, err)
		add("commit 3", nil, d.Commit(ctx, 3))
		// Error paths must map identically over the wire.
		add("insert low", nil, d.Insert(ctx, 4, keyspace.Low(), 9, "x"))
		_, err = d.Coalesce(ctx, 4, keyspace.New("z"), keyspace.New("a"), 9)
		add("coalesce bad range", nil, err)
		add("abort 4", nil, d.Abort(ctx, 4))
		return out
	}

	want := drive(NewLocal(rep.New("ref")))
	t.Run("binary", func(t *testing.T) {
		srv, err := Serve(rep.New("ref"), "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		c, err := Dial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		got := drive(c)
		if len(got) != len(want) {
			t.Fatalf("outcome count %d, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i].desc != want[i].desc || !reflect.DeepEqual(got[i].val, want[i].val) || !errors.Is(got[i].err, want[i].err) || (got[i].err == nil) != (want[i].err == nil) {
				t.Errorf("step %q:\n got  (%+v, %v)\n want (%+v, %v)",
					want[i].desc, got[i].val, got[i].err, want[i].val, want[i].err)
			}
		}
	})
}

// flakyConn wraps a net.Conn so tests can inject a write failure at an
// arbitrary moment mid-stream.
type flakyConn struct {
	net.Conn
	failWrites atomic.Bool
}

func (f *flakyConn) Write(p []byte) (int, error) {
	if f.failWrites.Load() {
		return 0, errors.New("injected write failure")
	}
	return f.Conn.Write(p)
}

// TestWritePoisonFastFailBinary is the regression test for the old
// write-poisoning failure mode: a failed send on the shared connection
// must tear it down and fast-fail every in-flight call, rather than
// leaving callers hung on a stream nobody will ever write again.
func TestWritePoisonFastFailBinary(t *testing.T) {
	cli, srvSide := net.Pipe()
	defer srvSide.Close()
	go io.Copy(io.Discard, srvSide) // absorb sends; never respond

	fc := &flakyConn{Conn: cli}
	c := &Client{addr: "injected"}
	cc := newClientConn(fc, c.addr, 0, &c.stats)
	c.mu.Lock()
	c.cc = cc
	c.mu.Unlock()
	go cc.readLoop(c.addr)

	// Park calls in flight: their sends succeed, and they wait on
	// responses that will never come.
	const parked = 3
	errs := make(chan error, parked+1)
	for i := 0; i < parked; i++ {
		go func(i int) {
			errs <- c.Prepare(ctx, lock.TxnID(i+1))
		}(i)
	}
	time.Sleep(50 * time.Millisecond)

	// Now poison the stream mid-connection and issue one more call.
	fc.failWrites.Store(true)
	go func() { errs <- c.Prepare(ctx, 99) }()

	deadline := time.After(5 * time.Second)
	for i := 0; i < parked+1; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, ErrUnavailable) {
				t.Errorf("call %d = %v, want ErrUnavailable", i, err)
			}
		case <-deadline:
			t.Fatalf("only %d of %d calls returned after a poisoned write; the rest are hung", i, parked+1)
		}
	}
	if !cc.isBroken() {
		t.Error("connection not torn down after write failure")
	}
}

// TestServerWriteFailureFailsClientFast covers the server half of the
// write-poisoning fix end to end: when the server cannot write a
// response (here: the client's receive direction is shut down), it must
// close the connection so the client's other in-flight calls fail fast
// instead of waiting out the 30s call timeout.
func TestServerWriteFailureFailsClientFast(t *testing.T) {
	dir := slowDir{Directory: rep.New("wfail"), delay: 200 * time.Millisecond}
	srv, err := Serve(dir, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// One slow call in flight, then kill the socket out from under the
	// server's pending response write.
	done := make(chan error, 1)
	go func() {
		_, err := c.Lookup(ctx, 1, keyspace.New("slow"))
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	breakConn(t, c)
	select {
	case err := <-done:
		if !errors.Is(err, ErrUnavailable) {
			t.Fatalf("in-flight call = %v, want ErrUnavailable", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight call hung after server-side write failure")
	}
}

// TestFrameWriterBatches drives many concurrent calls over one binary
// connection and checks requests actually coalesce: group commit only
// batches when messages arrive faster than write syscalls drain, so the
// worker count must saturate the single connection.
func TestFrameWriterBatches(t *testing.T) {
	srv, err := Serve(rep.New("batch"), "127.0.0.1:0", WithPerConnConcurrency(256))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const workers = 64
	const perWorker = 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				id := lock.TxnID(w*perWorker + i + 1)
				if _, err := c.Lookup(ctx, id, keyspace.New(fmt.Sprintf("k%d", w))); err != nil {
					t.Error(err)
					return
				}
				c.Abort(ctx, id)
			}
		}(w)
	}
	wg.Wait()
	sent := c.WireStats().Sent()
	if sent.Msgs == 0 {
		t.Fatal("no wire traffic recorded")
	}
	if sent.Frames >= sent.Msgs {
		t.Errorf("client sent %d frames for %d messages; group commit is not coalescing", sent.Frames, sent.Msgs)
	}
	t.Logf("client: %d msgs in %d frames (%.2f msgs/frame), server tx batch: %v",
		sent.Msgs, sent.Frames, float64(sent.Msgs)/float64(sent.Frames), srv.WireStats().Sent().Batch)
}

// TestMaxBatchOne pins every message to its own frame — the unbatched
// baseline the benchmarks compare against.
func TestMaxBatchOne(t *testing.T) {
	srv, err := Serve(rep.New("nobatch"), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr(), WithMaxBatch(1))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				id := lock.TxnID(w*20 + i + 1)
				if _, err := c.Lookup(ctx, id, keyspace.New("k")); err != nil {
					t.Error(err)
					return
				}
				c.Abort(ctx, id)
			}
		}(w)
	}
	wg.Wait()
	sent := c.WireStats().Sent()
	if sent.Frames != sent.Msgs {
		t.Errorf("WithMaxBatch(1): %d frames for %d messages, want 1:1", sent.Frames, sent.Msgs)
	}
}
