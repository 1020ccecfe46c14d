package transport

import (
	"context"
	"fmt"
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

// BenchmarkLocalLookup measures the in-process transport overhead.
func BenchmarkLocalLookup(b *testing.B) {
	l := NewLocal(rep.New("bench"))
	ctx := context.Background()
	key := keyspace.New("k")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		id := lock.TxnID(i + 1)
		if _, err := l.Lookup(ctx, id, key); err != nil {
			b.Fatal(err)
		}
		l.Abort(ctx, id)
	}
}

// BenchmarkTCPRoundTrip measures a full request/response cycle over
// loopback.
func BenchmarkTCPRoundTrip(b *testing.B) {
	srv, err := Serve(rep.New("bench"), "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	key := keyspace.New("k")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := lock.TxnID(i + 1)
		if _, err := c.Lookup(ctx, id, key); err != nil {
			b.Fatal(err)
		}
		if err := c.Abort(ctx, id); err != nil {
			b.Fatal(err)
		}
	}
}

// delayDir adds a fixed service time to every Lookup, standing in for
// the lock waits, fsyncs, and network distance a loaded deployment sees.
// Loopback RTT is near zero, so without it a quorum benchmark measures
// only codec CPU cost and says nothing about pipelining.
type delayDir struct {
	rep.Directory
	delay time.Duration
}

func (d delayDir) Lookup(ctx context.Context, id lock.TxnID, key keyspace.Key) (rep.LookupResult, error) {
	time.Sleep(d.delay)
	return d.Directory.Lookup(ctx, id, key)
}

// benchTCPQuorum models the suite's read-quorum round over TCP: each
// operation fans a Lookup out to all three members in parallel, waits
// for every reply, then releases the transaction with a parallel Abort.
// Each member takes serviceTime to serve a lookup. workers is how many
// quorum rounds are in flight at once — 1 reproduces the old
// single-in-flight client behavior, higher values exercise the
// multiplexed connection.
func benchTCPQuorum(b *testing.B, workers int) {
	const (
		members     = 3
		serviceTime = 500 * time.Microsecond
	)
	ctx := context.Background()
	clients := make([]*Client, members)
	for i := range clients {
		srv, err := Serve(delayDir{Directory: rep.New(fmt.Sprintf("m%d", i)), delay: serviceTime}, "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		c, err := Dial(srv.Addr())
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		clients[i] = c
	}
	key := keyspace.New("k")
	fanOut := func(do func(c *Client)) {
		var wg sync.WaitGroup
		for _, c := range clients {
			wg.Add(1)
			go func(c *Client) {
				defer wg.Done()
				do(c)
			}(c)
		}
		wg.Wait()
	}
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				n := next.Add(1)
				if n > int64(b.N) {
					return
				}
				id := lock.TxnID(n)
				fanOut(func(c *Client) {
					if _, err := c.Lookup(ctx, id, key); err != nil {
						b.Error(err)
					}
				})
				fanOut(func(c *Client) {
					if err := c.Abort(ctx, id); err != nil {
						b.Error(err)
					}
				})
			}
		}()
	}
	wg.Wait()
}

// nopDir answers every operation instantly with zero values. Quorum
// benchmarks over it measure pure transport cost: codec CPU, framing,
// and syscalls, with no directory or lock-manager time mixed in.
type nopDir struct{ name string }

var _ rep.Directory = nopDir{}

func (d nopDir) Name() string { return d.name }
func (d nopDir) Lookup(context.Context, lock.TxnID, keyspace.Key) (rep.LookupResult, error) {
	return rep.LookupResult{Found: true, Version: 1, Value: "v"}, nil
}
func (d nopDir) Predecessor(context.Context, lock.TxnID, keyspace.Key) (rep.NeighborResult, error) {
	return rep.NeighborResult{Key: keyspace.Low(), Version: 1}, nil
}
func (d nopDir) Successor(context.Context, lock.TxnID, keyspace.Key) (rep.NeighborResult, error) {
	return rep.NeighborResult{Key: keyspace.High(), Version: 1}, nil
}
func (d nopDir) PredecessorBatch(context.Context, lock.TxnID, keyspace.Key, int) ([]rep.NeighborResult, error) {
	return nil, nil
}
func (d nopDir) SuccessorBatch(context.Context, lock.TxnID, keyspace.Key, int) ([]rep.NeighborResult, error) {
	return nil, nil
}
func (d nopDir) Insert(context.Context, lock.TxnID, keyspace.Key, version.V, string) error {
	return nil
}
func (d nopDir) Coalesce(context.Context, lock.TxnID, keyspace.Key, keyspace.Key, version.V) (rep.CoalesceResult, error) {
	return rep.CoalesceResult{}, nil
}
func (d nopDir) Prepare(context.Context, lock.TxnID) error                 { return nil }
func (d nopDir) Commit(context.Context, lock.TxnID) error                  { return nil }
func (d nopDir) Abort(context.Context, lock.TxnID) error                   { return nil }
func (d nopDir) Status(context.Context, lock.TxnID) (rep.TxnStatus, error) { return 0, nil }

// benchQuorumRound is the batching comparison harness: one round = a
// 3-member Lookup fan-out plus a 3-member Abort fan-out (6 messages),
// with `workers` rounds in flight over the same single connection per
// member. Members answer instantly (nopDir), so ns/op is transport
// cost: codec, framing, and syscalls.
func benchQuorumRound(b *testing.B, workers int, dialOpts ...DialOption) {
	const members = 3
	ctx := context.Background()
	clients := make([]*Client, members)
	for i := range clients {
		srv, err := Serve(nopDir{name: fmt.Sprintf("m%d", i)}, "127.0.0.1:0", WithPerConnConcurrency(4*workers))
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		c, err := Dial(srv.Addr(), dialOpts...)
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		clients[i] = c
	}
	key := keyspace.New("k")
	// Mirror core's fanOut: leader leg inline, goroutines for the rest.
	fanOut := func(do func(c *Client) error) {
		var wg sync.WaitGroup
		for i := 1; i < len(clients); i++ {
			wg.Add(1)
			go func(c *Client) {
				defer wg.Done()
				if err := do(c); err != nil {
					b.Error(err)
				}
			}(clients[i])
		}
		if err := do(clients[0]); err != nil {
			b.Error(err)
		}
		wg.Wait()
	}
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				n := next.Add(1)
				if n > int64(b.N) {
					return
				}
				id := lock.TxnID(n)
				fanOut(func(c *Client) error {
					_, err := c.Lookup(ctx, id, key)
					return err
				})
				fanOut(func(c *Client) error {
					return c.Abort(ctx, id)
				})
			}
		}()
	}
	wg.Wait()
}

// BenchmarkTCPQuorumRound measures group-commit batching: same
// machine, same harness, "binary_nobatch" with every message in its
// own frame, "binary" with batching on.
func BenchmarkTCPQuorumRound(b *testing.B) {
	const workers = 16
	b.Run("binary_nobatch", func(b *testing.B) {
		benchQuorumRound(b, workers, WithMaxBatch(1))
	})
	b.Run("binary", func(b *testing.B) {
		benchQuorumRound(b, workers)
	})
}

// benchSingleConn saturates ONE client connection with pipelined
// lookups from `workers` goroutines — single-connection throughput.
func benchSingleConn(b *testing.B, workers int, dialOpts ...DialOption) {
	srv, err := Serve(nopDir{name: "s"}, "127.0.0.1:0", WithPerConnConcurrency(4*workers))
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr(), dialOpts...)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	key := keyspace.New("k")
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				n := next.Add(1)
				if n > int64(b.N) {
					return
				}
				if _, err := c.Lookup(ctx, lock.TxnID(n), key); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkTCPSingleConn sweeps batching × concurrency on one
// connection.
func BenchmarkTCPSingleConn(b *testing.B) {
	for _, workers := range []int{16, 64, 128} {
		b.Run(fmt.Sprintf("binary_nobatch/workers=%d", workers), func(b *testing.B) {
			benchSingleConn(b, workers, WithMaxBatch(1))
		})
		b.Run(fmt.Sprintf("binary/workers=%d", workers), func(b *testing.B) {
			benchSingleConn(b, workers)
		})
	}
}

// BenchmarkWireEncodeRequest measures the raw codec encode path.
func BenchmarkWireEncodeRequest(b *testing.B) {
	req := request{ID: 42, Op: opInsert, Txn: 7, Key: keyspace.New("some/key"), Version: 12, Value: "payload-value"}
	buf := make([]byte, 0, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = appendRequest(buf[:0], &req)
	}
	_ = buf
}

// BenchmarkWireDecodeResponse measures the raw codec decode path.
func BenchmarkWireDecodeResponse(b *testing.B) {
	resp := response{ID: 42, Op: opLookup, Code: codeOK, Found: true, Version: 12, Value: "payload-value"}
	buf := appendResponse(nil, &resp)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var got response
		if err := readResponse(codec.NewReader(buf), &got); err != nil {
			b.Fatal(err)
		}
	}
}

// TestEncodeZeroAlloc pins the codec's steady-state allocation behavior:
// encoding any request or response into a reused buffer must not
// allocate, and decoding messages whose fields need no owned copies
// (the whole 2PC surface) must not allocate either. String-bearing
// decodes (keys, values) pay exactly their materialization — that cost
// is the rep API's, not the codec's.
func TestEncodeZeroAlloc(t *testing.T) {
	reqs := wireRequestVariants()
	resps := wireResponseVariants()
	buf := make([]byte, 0, 4096)
	if n := testing.AllocsPerRun(100, func() {
		buf = buf[:0]
		for i := range reqs {
			buf = appendRequest(buf, &reqs[i])
		}
		for i := range resps {
			buf = appendResponse(buf, &resps[i])
		}
	}); n != 0 {
		t.Errorf("encode path allocates %.1f times per run, want 0", n)
	}

	twoPC := []request{
		{ID: 1, Op: opPrepare, Txn: 2},
		{ID: 3, Op: opCommit, Txn: 4},
		{ID: 5, Op: opAbort, Txn: 6},
		{ID: 7, Op: opStatus, Txn: 8},
	}
	var pcBuf []byte
	for i := range twoPC {
		pcBuf = appendRequest(pcBuf, &twoPC[i])
	}
	if n := testing.AllocsPerRun(100, func() {
		r := codec.NewReader(pcBuf)
		var req request
		for r.Remaining() > 0 {
			if err := readRequest(r, &req); err != nil {
				t.Fatal(err)
			}
		}
	}); n != 0 {
		t.Errorf("2PC request decode allocates %.1f times per run, want 0", n)
	}

	pcResps := []response{
		{ID: 1, Op: opPrepare}, {ID: 3, Op: opCommit},
		{ID: 5, Op: opAbort}, {ID: 7, Op: opStatus, TxnStatus: 1},
	}
	var prBuf []byte
	for i := range pcResps {
		prBuf = appendResponse(prBuf, &pcResps[i])
	}
	if n := testing.AllocsPerRun(100, func() {
		r := codec.NewReader(prBuf)
		var resp response
		for r.Remaining() > 0 {
			if err := readResponse(r, &resp); err != nil {
				t.Fatal(err)
			}
		}
	}); n != 0 {
		t.Errorf("2PC response decode allocates %.1f times per run, want 0", n)
	}
}

// BenchmarkTCPQuorumSerial is the old client's ceiling: one quorum
// round in flight at a time.
func BenchmarkTCPQuorumSerial(b *testing.B) { benchTCPQuorum(b, 1) }

// BenchmarkTCPQuorumPipelined keeps 8 quorum rounds in flight over the
// same three connections; the multiplexed transport must let them
// overlap.
func BenchmarkTCPQuorumPipelined(b *testing.B) { benchTCPQuorum(b, 8) }

// BenchmarkTCPLookupConcurrent sweeps single-connection lookup
// throughput across client-side concurrency levels.
func BenchmarkTCPLookupConcurrent(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			ctx := context.Background()
			srv, err := Serve(rep.New("bench"), "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			c, err := Dial(srv.Addr())
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			key := keyspace.New("k")
			var next atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						n := next.Add(1)
						if n > int64(b.N) {
							return
						}
						id := lock.TxnID(n)
						if _, err := c.Lookup(ctx, id, key); err != nil {
							b.Error(err)
						}
						if err := c.Abort(ctx, id); err != nil {
							b.Error(err)
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}
