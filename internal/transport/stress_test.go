package transport

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repdir/internal/keyspace"
	"repdir/internal/lock"
	"repdir/internal/rep"
)

// slowDir delays Lookup on the key "slow"; every other operation passes
// straight through. It lets tests hold one request open on a connection
// while others race past it.
type slowDir struct {
	rep.Directory
	delay time.Duration
}

func (d slowDir) Lookup(ctx context.Context, id lock.TxnID, key keyspace.Key) (rep.LookupResult, error) {
	if key.Equal(keyspace.New("slow")) {
		t := time.NewTimer(d.delay)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
			return rep.LookupResult{}, ctx.Err()
		}
	}
	return d.Directory.Lookup(ctx, id, key)
}

// breakConn force-closes the client's current TCP connection, simulating
// a mid-stream network reset.
func breakConn(t *testing.T, c *Client) {
	t.Helper()
	c.mu.Lock()
	cc := c.cc
	c.mu.Unlock()
	if cc == nil {
		t.Fatal("client has no live connection to break")
	}
	cc.conn.Close()
}

// TestTCPStressNoCrossWiring fires many goroutines' worth of lookups
// through ONE multiplexed client and checks every response carries the
// value of the key that was asked for — an ID mix-up in the demux path
// would hand a caller some other call's answer.
func TestTCPStressNoCrossWiring(t *testing.T) {
	r := rep.New("stress")
	srv, err := Serve(r, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Seed distinct values so a cross-wired response is detectable.
	const keys = 32
	for i := 0; i < keys; i++ {
		if err := c.Insert(ctx, 1, keyspace.New(fmt.Sprintf("k%02d", i)), 1, fmt.Sprintf("val-%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Commit(ctx, 1); err != nil {
		t.Fatal(err)
	}

	const (
		workers = 8
		ops     = 60
	)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := lock.TxnID(100 + w)
			defer c.Abort(ctx, id)
			for j := 0; j < ops; j++ {
				n := (w*ops + j) % keys
				res, err := c.Lookup(ctx, id, keyspace.New(fmt.Sprintf("k%02d", n)))
				if err != nil {
					errs <- fmt.Errorf("worker %d op %d: %w", w, j, err)
					return
				}
				if want := fmt.Sprintf("val-%02d", n); !res.Found || res.Value != want {
					errs <- fmt.Errorf("worker %d: lookup k%02d = %+v, want %q (cross-wired response?)", w, n, res, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestTCPConnKillFailsOnlyInFlight kills the connection while several
// calls are outstanding: exactly those calls must fail with
// ErrUnavailable, and the client must redial cleanly for the next call.
func TestTCPConnKillFailsOnlyInFlight(t *testing.T) {
	dir := slowDir{Directory: rep.New("kill"), delay: 2 * time.Second}
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

	// A call completed before the kill is unaffected.
	if _, err := c.Lookup(ctx, 1, keyspace.New("fast")); err != nil {
		t.Fatal(err)
	}
	c.Abort(ctx, 1)

	const inflight = 3
	var wg sync.WaitGroup
	errs := make([]error, inflight)
	for i := 0; i < inflight; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = c.Lookup(ctx, lock.TxnID(10+i), keyspace.New("slow"))
		}(i)
	}
	// Give the calls time to reach the server, then cut the wire.
	time.Sleep(50 * time.Millisecond)
	breakConn(t, c)
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, ErrUnavailable) {
			t.Errorf("in-flight call %d after conn kill = %v, want ErrUnavailable", i, err)
		}
	}

	// The next call redials and succeeds; the failure did not poison the
	// client.
	if _, err := c.Lookup(ctx, 20, keyspace.New("fast")); err != nil {
		t.Fatalf("call after redial: %v", err)
	}
	c.Abort(ctx, 20)
}

// TestTCPConcurrentDeadlines is the regression test for the shared
// SetDeadline race: one call with a short deadline must time out on its
// own without disturbing a concurrent call with a long deadline on the
// SAME connection. (The old client stamped per-call deadlines onto the
// shared socket, so the short deadline killed whichever read was
// pending.)
func TestTCPConcurrentDeadlines(t *testing.T) {
	dir := slowDir{Directory: rep.New("deadline"), delay: 300 * time.Millisecond}
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

	var wg sync.WaitGroup
	var patientErr, hastyErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		patient, cancel := context.WithTimeout(ctx, 5*time.Second)
		defer cancel()
		_, patientErr = c.Lookup(patient, 1, keyspace.New("slow"))
	}()
	go func() {
		defer wg.Done()
		hasty, cancel := context.WithTimeout(ctx, 30*time.Millisecond)
		defer cancel()
		_, hastyErr = c.Lookup(hasty, 2, keyspace.New("slow"))
	}()
	wg.Wait()
	if !errors.Is(hastyErr, context.DeadlineExceeded) {
		t.Errorf("short-deadline call = %v, want DeadlineExceeded", hastyErr)
	}
	if patientErr != nil {
		t.Errorf("long-deadline call = %v, want success (short deadline leaked onto shared conn?)", patientErr)
	}
	c.Abort(ctx, 1)
	c.Abort(ctx, 2)
}

// TestTCPNoHeadOfLineBlocking checks the server dispatches requests from
// one connection concurrently: a fast lookup issued after a slow one
// completes while the slow one is still being served.
func TestTCPNoHeadOfLineBlocking(t *testing.T) {
	dir := slowDir{Directory: rep.New("hol"), delay: 400 * time.Millisecond}
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

	slowDone := make(chan error, 1)
	go func() {
		_, err := c.Lookup(ctx, 1, keyspace.New("slow"))
		slowDone <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the slow request reach the server
	start := time.Now()
	if _, err := c.Lookup(ctx, 2, keyspace.New("fast")); err != nil {
		t.Fatal(err)
	}
	fastElapsed := time.Since(start)
	if err := <-slowDone; err != nil {
		t.Fatal(err)
	}
	if fastElapsed > 200*time.Millisecond {
		t.Errorf("fast lookup took %v behind a slow one; pipelining is not overlapping requests", fastElapsed)
	}
	c.Abort(ctx, 1)
	c.Abort(ctx, 2)
}

// TestTCPPerConnConcurrencyLimit checks the server-side bound: with a
// limit of 1, the fast request queues behind the slow one.
func TestTCPPerConnConcurrencyLimit(t *testing.T) {
	dir := slowDir{Directory: rep.New("limit"), delay: 200 * time.Millisecond}
	srv, err := Serve(dir, "127.0.0.1:0", WithPerConnConcurrency(1))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	go c.Lookup(ctx, 1, keyspace.New("slow"))
	time.Sleep(30 * time.Millisecond) // slow request is being served
	start := time.Now()
	if _, err := c.Lookup(ctx, 2, keyspace.New("fast")); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 100*time.Millisecond {
		t.Errorf("fast lookup took only %v with concurrency limit 1; limit not enforced", elapsed)
	}
	c.Abort(ctx, 1)
	c.Abort(ctx, 2)
}

// TestCallOutcomeAfterContextEnds pins the result-selection step that
// made TestTCPAbandonedCallResponseDiscarded flaky: when the server's
// copy of a call's deadline expires, its "context deadline exceeded"
// reply can be read after the caller's own context has fired. The
// caller must then see its context's error, whichever of the two select
// picked.
func TestCallOutcomeAfterContextEnds(t *testing.T) {
	expired, cancel := context.WithDeadline(ctx, time.Now().Add(-time.Millisecond))
	defer cancel()
	serverExpired := response{ID: 1, Op: opLookup}
	serverExpired.Code, serverExpired.Msg = encodeError(context.DeadlineExceeded)
	if _, err := callOutcome(expired, callResult{resp: serverExpired}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("server deadline error after the caller's deadline = %v, want DeadlineExceeded", err)
	}
	// The caller's deadline has passed but its timer has not run yet,
	// so ctx.Err is still nil: the reply is still the same event.
	late := lateCtx{Context: ctx, deadline: time.Now().Add(-time.Millisecond)}
	if _, err := callOutcome(late, callResult{resp: serverExpired}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("server deadline error before the caller's timer ran = %v, want DeadlineExceeded", err)
	}
	// A live caller still sees the server's error as sent.
	died := response{ID: 2, Op: opLookup}
	died.Code, died.Msg = encodeError(lock.ErrDie)
	if _, err := callOutcome(ctx, callResult{resp: died}); !errors.Is(err, lock.ErrDie) {
		t.Fatalf("die reply to a live caller = %v, want ErrDie", err)
	}
	// A successful reply is kept even when it is read late.
	ok := response{ID: 3, Op: opLookup, Found: true, Value: "v"}
	if got, err := callOutcome(expired, callResult{resp: ok}); err != nil || got.Value != "v" {
		t.Fatalf("late success = %+v, %v; want the reply", got, err)
	}
	// A broken connection reports itself, not the context.
	if _, err := callOutcome(expired, callResult{err: ErrUnavailable}); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("connection failure = %v, want ErrUnavailable", err)
	}
}

// lateCtx is a context whose deadline has passed while its timer has
// not yet cancelled it.
type lateCtx struct {
	context.Context
	deadline time.Time
}

func (c lateCtx) Deadline() (time.Time, bool) { return c.deadline, true }

// TestTCPOneShotLookup: a Lookup whose context carries
// rep.WithOneShotRead travels as opLookupOnce, and the remote
// representative releases its read lock before replying; a plain Lookup
// keeps its lock until the abort.
func TestTCPOneShotLookup(t *testing.T) {
	r := rep.New("once")
	srv, err := Serve(r, "127.0.0.1:0")
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
	res, err := c.Lookup(rep.WithOneShotRead(ctx), 2, keyspace.New("k"))
	if err != nil || !res.Found || res.Value != "v" {
		t.Fatalf("one-shot lookup = %+v, %v", res, err)
	}
	if n := r.Locks().ActiveTransactions(); n != 0 || len(r.Strays()) != 0 {
		t.Fatalf("after a one-shot lookup: %d lock holders, strays %v; want none", n, r.Strays())
	}
	if _, err := c.Lookup(ctx, 3, keyspace.New("k")); err != nil {
		t.Fatal(err)
	}
	if held := r.Locks().HeldBy(3); held != 1 {
		t.Fatalf("plain lookup holds %d locks, want 1 until its abort", held)
	}
	if err := c.Abort(ctx, 3); err != nil {
		t.Fatal(err)
	}
}

// TestTCPAbandonedCallResponseDiscarded cancels a call mid-flight and
// then keeps using the client: the late response for the abandoned ID
// must be discarded, not delivered to a later call.
func TestTCPAbandonedCallResponseDiscarded(t *testing.T) {
	dir := slowDir{Directory: rep.New("abandon"), delay: 150 * time.Millisecond}
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

	if err := c.Insert(ctx, 1, keyspace.New("fast"), 1, "fast-value"); err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(ctx, 1); err != nil {
		t.Fatal(err)
	}

	short, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
	_, err = c.Lookup(short, 2, keyspace.New("slow"))
	cancel()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("abandoned call = %v, want DeadlineExceeded", err)
	}
	// Issue fresh calls while the abandoned response is still in flight;
	// none of them may receive it.
	for i := 0; i < 5; i++ {
		res, err := c.Lookup(ctx, lock.TxnID(10+i), keyspace.New("fast"))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found || res.Value != "fast-value" {
			t.Fatalf("lookup %d = %+v; received another call's response", i, res)
		}
	}
	time.Sleep(200 * time.Millisecond) // let the abandoned response arrive and be dropped
	if _, err := c.Lookup(ctx, 20, keyspace.New("fast")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		c.Abort(ctx, lock.TxnID(10+i))
	}
	c.Abort(ctx, 2)
	c.Abort(ctx, 20)
}
