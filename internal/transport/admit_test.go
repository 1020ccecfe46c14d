package transport

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repdir/internal/keyspace"
	"repdir/internal/rep"
)

// admitTestServer starts a server over a latency-injected rep and a
// client dialed to it, committing one key so lookups have something to
// find.
func admitTestServer(t *testing.T, latency time.Duration, opts ...ServerOption) (*Local, *Server, *Client) {
	t.Helper()
	r := rep.New("A")
	if err := r.Insert(ctx, 1, keyspace.New("k"), 1, "v"); err != nil {
		t.Fatal(err)
	}
	if err := r.Commit(ctx, 1); err != nil {
		t.Fatal(err)
	}
	l := NewLocal(r)
	l.SetLatency(latency)
	srv, err := Serve(l, "127.0.0.1:0", opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return l, srv, c
}

// TestDeadlineSiblingIsolation is the regression test for the shared
// coarse-deadline contexts the per-request deadline propagation
// replaced: a short-deadline call failing under load must not cancel a
// long-deadline sibling multiplexed on the same connection.
func TestDeadlineSiblingIsolation(t *testing.T) {
	_, _, c := admitTestServer(t, 60*time.Millisecond, WithPerConnConcurrency(1))

	var wg sync.WaitGroup
	var longErr, shortErr error
	var longRes rep.LookupResult

	wg.Add(1)
	go func() {
		defer wg.Done()
		lctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		longRes, longErr = c.Lookup(lctx, 2, keyspace.New("k"))
	}()
	// Let the long call occupy the single worker before the short one
	// queues behind it.
	time.Sleep(20 * time.Millisecond)
	wg.Add(1)
	go func() {
		defer wg.Done()
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
		defer cancel()
		_, shortErr = c.Lookup(sctx, 3, keyspace.New("k"))
	}()
	wg.Wait()

	if shortErr == nil {
		t.Fatal("short-deadline call should have failed")
	}
	if longErr != nil {
		t.Fatalf("long-deadline sibling was cancelled: %v", longErr)
	}
	if !longRes.Found || longRes.Value != "v" {
		t.Fatalf("long-deadline sibling got wrong result: %+v", longRes)
	}
}

// TestExpiredFastReject: a request whose propagated deadline lapses
// while it queues behind a slow sibling is refused with ErrExpired at
// worker pickup instead of burning the worker, and the server counts
// it.
func TestExpiredFastReject(t *testing.T) {
	_, srv, c := admitTestServer(t, 80*time.Millisecond, WithPerConnConcurrency(1))

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		lctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if _, err := c.Lookup(lctx, 2, keyspace.New("k")); err != nil {
			t.Errorf("long call: %v", err)
		}
	}()
	time.Sleep(20 * time.Millisecond)
	// The short call's 20ms budget expires while it waits for the worker
	// (busy for another ~60ms). Its client gives up at its own deadline;
	// the server must notice the lapsed budget at pickup and refuse.
	sctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	if _, err := c.Lookup(sctx, 3, keyspace.New("k")); err == nil {
		t.Error("short call should have failed")
	}
	cancel()
	wg.Wait()

	deadline := time.Now().Add(2 * time.Second)
	for srv.AdmissionStats().Expired == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("server never counted the expired request: %+v", srv.AdmissionStats())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestAdmissionSheds floods a deliberately tiny server far past its
// capacity and checks the overload contract: some requests are refused
// with ErrOverloaded (and counted), some still succeed (shedding is not
// an outage), and 2PC resolution ops are never shed even at full
// saturation.
func TestAdmissionSheds(t *testing.T) {
	_, srv, c := admitTestServer(t, 30*time.Millisecond,
		WithPerConnConcurrency(2),
		WithAdmission(time.Millisecond, 10*time.Millisecond),
		WithDispatchQueue(4),
	)

	const calls = 64
	var ok, overloaded, other atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			_, err := c.Lookup(cctx, 100, keyspace.New("k"))
			switch {
			case err == nil:
				ok.Add(1)
			case errors.Is(err, ErrOverloaded):
				overloaded.Add(1)
			default:
				other.Add(1)
			}
		}()
	}
	// While the flood is in flight, 2PC resolution must keep being
	// served: Status is never sheddable, so it must come back with a
	// real answer (or a real directory error), never ErrOverloaded.
	time.Sleep(10 * time.Millisecond)
	for i := 0; i < 5; i++ {
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_, err := c.Status(sctx, 999)
		cancel()
		if errors.Is(err, ErrOverloaded) || errors.Is(err, ErrExpired) {
			t.Fatalf("2PC resolution op was shed: %v", err)
		}
	}
	wg.Wait()

	stats := srv.AdmissionStats()
	t.Logf("ok=%d overloaded=%d other=%d stats=%+v", ok.Load(), overloaded.Load(), other.Load(), stats)
	if overloaded.Load() == 0 {
		t.Fatal("flood past capacity shed nothing")
	}
	if ok.Load() == 0 {
		t.Fatal("shedding must not become an outage: no request succeeded")
	}
	if other.Load() != 0 {
		t.Fatalf("unexpected non-overload failures: %d", other.Load())
	}
	if stats.Shed == 0 {
		t.Fatalf("server counted no sheds: %+v", stats)
	}
}

// TestAdmitStateUnit drives the CoDel state machine directly.
func TestAdmitStateUnit(t *testing.T) {
	a := &admitState{enabled: true, target: time.Millisecond, interval: 10 * time.Millisecond}

	// Below-target sojourns keep the controller clear.
	a.pickup(time.Now())
	if a.shouldShed() {
		t.Fatal("clear controller should not shed")
	}
	// One above-target sojourn opens an episode but does not yet shed.
	a.pickup(time.Now().Add(-5 * time.Millisecond))
	if a.shouldShed() {
		t.Fatal("single above-target sojourn should not shed")
	}
	// Sustained above-target sojourns past the interval trip overload.
	a.mu.Lock()
	a.firstAbove = time.Now().Add(-20 * time.Millisecond)
	a.mu.Unlock()
	a.pickup(time.Now().Add(-5 * time.Millisecond))
	if !a.shouldShed() {
		t.Fatal("sustained queue delay should trip overload")
	}
	if a.snapshot().Episodes != 1 {
		t.Fatalf("episodes = %d, want 1", a.snapshot().Episodes)
	}
	// A below-target sojourn clears it again.
	a.pickup(time.Now())
	if a.shouldShed() {
		t.Fatal("recovered sojourn should clear overload")
	}

	// wontFinish: cold EWMA rejects nothing; warmed, it rejects budgets
	// under half the typical service time.
	if a.wontFinish(time.Now().Add(time.Nanosecond)) {
		t.Fatal("cold EWMA must not reject")
	}
	a.observeService(10 * time.Millisecond)
	if !a.wontFinish(time.Now().Add(time.Millisecond)) {
		t.Fatal("1ms budget against 10ms service time should be rejected")
	}
	if a.wontFinish(time.Now().Add(50 * time.Millisecond)) {
		t.Fatal("50ms budget against 10ms service time should be admitted")
	}

	// Disabled controller: everything is a no-op.
	var off admitState
	off.pickup(time.Now().Add(-time.Hour))
	if off.shouldShed() || off.wontFinish(time.Now()) {
		t.Fatal("disabled controller must admit everything")
	}
}

// TestSheddableOps pins the admission classes: every read and write
// that starts new work, the one-shot lookup included, may be shed; the
// two-phase-commit resolution ops and the name probe never are.
func TestSheddableOps(t *testing.T) {
	for o := opLookup; o <= opLookupOnce; o++ {
		want := true
		switch o {
		case opPrepare, opCommit, opAbort, opStatus, opName:
			want = false
		}
		if got := sheddable(o); got != want {
			t.Errorf("sheddable(op %d) = %v, want %v", o, got, want)
		}
	}
}
