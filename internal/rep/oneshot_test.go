package rep

import (
	"context"
	"errors"
	"testing"
	"time"

	"repdir/internal/lock"
)

// assertClean fails unless r holds no locks and no transaction state.
func assertClean(t *testing.T, r *Rep) {
	t.Helper()
	if n := r.Locks().ActiveTransactions(); n != 0 {
		t.Errorf("%d transactions still hold locks", n)
	}
	if s := r.Strays(); len(s) != 0 {
		t.Errorf("strays = %v, want none", s)
	}
	if d := r.InDoubt(); len(d) != 0 {
		t.Errorf("in doubt = %v, want none", d)
	}
}

// TestOneShotReadLeavesNoState: a one-shot Lookup answers exactly as a
// plain one does, for entries and gaps, and leaves no lock and no
// registered transaction behind, so no Abort has to follow it.
func TestOneShotReadLeavesNoState(t *testing.T) {
	r := New("A")
	mustInsert(t, r, 1, "b", 3, "bee")
	once := WithOneShotRead(ctx)
	for i, key := range []string{"b", "a", "c"} {
		txn := lock.TxnID(10 + i)
		got, err := r.Lookup(once, txn, k(key))
		if err != nil {
			t.Fatalf("one-shot lookup %s: %v", key, err)
		}
		want, err := r.Lookup(ctx, txn+100, k(key))
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Abort(ctx, txn+100); err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("one-shot lookup %s = %+v, plain = %+v", key, got, want)
		}
		assertClean(t, r)
	}
	if got := r.Counters(); got.Lookups != 6 || got.Aborts != 3 {
		t.Errorf("counters %+v, want 6 lookups and only the 3 plain reads' aborts", got)
	}
}

// lookupOutcome runs one Lookup (one-shot or plain) in the background
// and reports whether it was still blocked after a short wait, plus its
// final result once the writer has committed.
type lookupOutcome struct {
	blocked bool
	res     LookupResult
	err     error
}

// TestOneShotReadAgainstPreparedWriter: against a prepared writer, a
// one-shot read dies when younger and waits when older, exactly as a
// plain Lookup does; the older one sees the writer's version once it
// commits, and only the plain read leaves its lock behind.
func TestOneShotReadAgainstPreparedWriter(t *testing.T) {
	for _, oneShot := range []bool{false, true} {
		for _, older := range []bool{false, true} {
			r := New("A")
			mustInsert(t, r, 1, "x", 1, "old")
			const writer = lock.TxnID(50)
			if err := r.Insert(ctx, writer, k("x"), 2, "new"); err != nil {
				t.Fatal(err)
			}
			if err := r.Prepare(ctx, writer); err != nil {
				t.Fatal(err)
			}
			reader := lock.TxnID(60)
			if older {
				reader = 40
			}
			rctx := ctx
			if oneShot {
				rctx = WithOneShotRead(ctx)
			}
			done := make(chan lookupOutcome, 1)
			go func() {
				res, err := r.Lookup(rctx, reader, k("x"))
				done <- lookupOutcome{res: res, err: err}
			}()
			var out lookupOutcome
			select {
			case out = <-done:
			case <-time.After(50 * time.Millisecond):
				out.blocked = true
			}
			if err := r.Commit(ctx, writer); err != nil {
				t.Fatal(err)
			}
			if out.blocked {
				out2 := <-done
				out.res, out.err = out2.res, out2.err
			}
			switch {
			case older && !out.blocked:
				t.Errorf("oneShot=%v: older reader did not wait (%+v, %v)", oneShot, out.res, out.err)
			case older && (out.err != nil || out.res.Version != 2 || out.res.Value != "new"):
				t.Errorf("oneShot=%v: older reader = %+v, %v; want the committed write", oneShot, out.res, out.err)
			case !older && !errors.Is(out.err, lock.ErrDie):
				t.Errorf("oneShot=%v: younger reader = %+v, %v, blocked=%v; want ErrDie", oneShot, out.res, out.err, out.blocked)
			}
			if oneShot {
				assertClean(t, r)
			} else if held := r.Locks().HeldBy(reader); older && held != 1 {
				t.Errorf("plain older reader holds %d locks, want 1 until its abort", held)
			}
		}
	}
}

// TestOneShotReadRefusedUnderLiveTxn: a one-shot read under a
// transaction that already has state here is refused, and every lock of
// that transaction survives — including the one the refused read took —
// until the transaction itself finishes.
func TestOneShotReadRefusedUnderLiveTxn(t *testing.T) {
	once := WithOneShotRead(ctx)
	t.Run("writer", func(t *testing.T) {
		r := New("A")
		const live = lock.TxnID(7)
		if err := r.Insert(ctx, live, k("a"), 1, "v"); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Lookup(once, live, k("b")); !errors.Is(err, ErrLiveTxn) {
			t.Fatalf("one-shot read under a writer = %v, want ErrLiveTxn", err)
		}
		if held := r.Locks().HeldBy(live); held != 2 {
			t.Fatalf("writer holds %d locks after the refused read, want 2", held)
		}
		if _, err := r.Lookup(ctx, 8, k("a")); !errors.Is(err, lock.ErrDie) {
			t.Fatalf("younger read of the uncommitted key = %v, want ErrDie (writer lock lost)", err)
		}
		if err := r.Commit(ctx, live); err != nil {
			t.Fatal(err)
		}
		if err := r.Abort(ctx, 8); err != nil {
			t.Fatal(err)
		}
		assertClean(t, r)
	})
	t.Run("reader", func(t *testing.T) {
		r := New("A")
		const live = lock.TxnID(7)
		if _, err := r.Lookup(ctx, live, k("a")); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Lookup(once, live, k("a")); !errors.Is(err, ErrLiveTxn) {
			t.Fatalf("one-shot read under a reader = %v, want ErrLiveTxn", err)
		}
		if held := r.Locks().HeldBy(live); held != 2 {
			t.Fatalf("reader holds %d locks after the refused read, want 2", held)
		}
		if err := r.Abort(ctx, live); err != nil {
			t.Fatal(err)
		}
		assertClean(t, r)
	})
}

// TestOneShotReadTimeoutBehindPreparedWriter: a one-shot read whose
// caller gives up while it waits behind a prepared writer leaves
// nothing at the member once the writer commits — no lock is granted to
// the abandoned read afterwards, and nothing registers it.
func TestOneShotReadTimeoutBehindPreparedWriter(t *testing.T) {
	r := New("A")
	mustInsert(t, r, 1, "x", 1, "old")
	const writer = lock.TxnID(50)
	if err := r.Insert(ctx, writer, k("x"), 2, "new"); err != nil {
		t.Fatal(err)
	}
	if err := r.Prepare(ctx, writer); err != nil {
		t.Fatal(err)
	}
	short, cancel := context.WithTimeout(WithOneShotRead(ctx), 20*time.Millisecond)
	defer cancel()
	if _, err := r.Lookup(short, 40, k("x")); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stuck one-shot read = %v, want DeadlineExceeded", err)
	}
	if err := r.Commit(ctx, writer); err != nil {
		t.Fatal(err)
	}
	assertClean(t, r)
	res, err := r.Lookup(WithOneShotRead(ctx), 41, k("x"))
	if err != nil || res.Version != 2 {
		t.Fatalf("later one-shot read = %+v, %v; want version 2", res, err)
	}
	assertClean(t, r)
}
