package core

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"repdir/internal/obs"
	"repdir/internal/quorum"
	"repdir/internal/rep"
	"repdir/internal/transport"
	"repdir/internal/version"
)

// repTotals sums the lookup and abort counters over reps.
func repTotals(reps []*rep.Rep) (lookups, aborts uint64) {
	for _, r := range reps {
		c := r.Counters()
		lookups += c.Lookups
		aborts += c.Aborts
	}
	return
}

// assertNoHeldState fails if any representative still holds a lock or
// a registered transaction.
func assertNoHeldState(t *testing.T, reps []*rep.Rep) {
	t.Helper()
	for _, r := range reps {
		if n := r.Locks().ActiveTransactions(); n != 0 {
			t.Errorf("%s: %d transactions hold locks", r.Name(), n)
		}
		if s := r.Strays(); len(s) != 0 {
			t.Errorf("%s: strays %v", r.Name(), s)
		}
	}
}

// TestPointReadsAreOneRound: Lookup and LookupV on a suite without
// witnesses are one quorum round — R lookups, no abort round — and
// leave no lock or transaction state at any member.
func TestPointReadsAreOneRound(t *testing.T) {
	ctx := context.Background()
	ts := newRandomSuite(t, []string{"A", "B", "C"}, 2, 2, 5)
	ts.prepopulate(t, "k1")
	for _, key := range []string{"k1", "absent"} {
		l0, a0 := repTotals(ts.reps)
		if _, _, err := ts.suite.Lookup(ctx, key); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := ts.suite.LookupV(ctx, key); err != nil {
			t.Fatal(err)
		}
		l1, a1 := repTotals(ts.reps)
		if l1-l0 != 4 || a1-a0 != 0 {
			t.Errorf("Lookup+LookupV(%s) sent %d lookups and %d aborts; want 4 (2R) and 0", key, l1-l0, a1-a0)
		}
		assertNoHeldState(t, ts.reps)
	}
	// Transactions that read before they write keep the locked read.
	l0, a0 := repTotals(ts.reps)
	if err := ts.suite.RunInTxn(ctx, func(tx *Tx) error {
		_, _, err := tx.Lookup(ctx, "k1")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if l1, a1 := repTotals(ts.reps); l1-l0 != 2 || a1-a0 != 2 {
		t.Errorf("RunInTxn lookup sent %d lookups and %d aborts; want 2 and 2", l1-l0, a1-a0)
	}
}

// TestWitnessSuiteReadsKeepLocks: on a suite with a witness, a point
// read keeps its locks until the abort round, because the witness
// value chase relies on the quorum's locks being held across it.
func TestWitnessSuiteReadsKeepLocks(t *testing.T) {
	ctx := context.Background()
	reps := []*rep.Rep{rep.New("A"), rep.New("B"), rep.New("W", rep.AsWitness())}
	cfg := quorum.Config{
		Members: []quorum.Member{
			{Dir: transport.NewLocal(reps[0]), Votes: 1},
			{Dir: transport.NewLocal(reps[1]), Votes: 1},
			{Dir: transport.NewLocal(reps[2]), Votes: 1, Witness: true},
		},
		R: 2, W: 2,
	}
	suite, err := NewSuite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := suite.Insert(ctx, "k", "v"); err != nil {
		t.Fatal(err)
	}
	l0, a0 := repTotals(reps)
	if v, ok, err := suite.Lookup(ctx, "k"); err != nil || !ok || v != "v" {
		t.Fatalf("Lookup = %q, %v, %v", v, ok, err)
	}
	l1, a1 := repTotals(reps)
	if a1-a0 == 0 || a1-a0 != l1-l0 {
		t.Errorf("witness-suite Lookup sent %d lookups and %d aborts; want one abort per member read", l1-l0, a1-a0)
	}
	assertNoHeldState(t, reps)
}

// TestLocalLookupIsOneMessage: LocalLookup is exactly one message — one
// Lookup at the local member and no Abort anywhere — and leaves no lock
// held.
func TestLocalLookupIsOneMessage(t *testing.T) {
	ctx := context.Background()
	reps := []*rep.Rep{rep.New("rep0"), rep.New("rep1"), rep.New("rep2")}
	dirs := make([]rep.Directory, len(reps))
	for i, r := range reps {
		dirs[i] = transport.NewLocal(r)
	}
	cfg := quorum.NewUniform(dirs, 2, 2)
	o := obs.NewObserver(obs.ObserverConfig{})
	s, err := NewSuite(cfg,
		WithSelector(quorum.NewStickySelector(cfg)),
		WithLocalReads("rep0"),
		WithObserver(o))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.InsertV(ctx, "k", "v"); err != nil {
		t.Fatal(err)
	}
	before := make([]rep.Counters, len(reps))
	for i, r := range reps {
		before[i] = r.Counters()
	}
	if v, ok, _, err := s.LocalLookup(ctx, "k"); err != nil || !ok || v != "v" {
		t.Fatalf("LocalLookup = %q, %v, %v", v, ok, err)
	}
	for i, r := range reps {
		c := r.Counters()
		wantLookups := uint64(0)
		if i == 0 {
			wantLookups = 1
		}
		if c.Lookups-before[i].Lookups != wantLookups || c.Aborts != before[i].Aborts {
			t.Errorf("%s: %d lookups and %d aborts; want %d and 0",
				r.Name(), c.Lookups-before[i].Lookups, c.Aborts-before[i].Aborts, wantLookups)
		}
	}
	if m := o.MessagesPerOp(OpLocalLookup); m != 1 {
		t.Errorf("LocalLookup messages/op = %v, want 1", m)
	}
	assertNoHeldState(t, reps)
}

// histOp is one completed operation of a concurrent history: its
// invoke and completion instants and the version it read or wrote. A
// Lookup records the value it read, resolved to a version afterwards.
type histOp struct {
	key      string
	write    bool
	invoke   time.Time
	complete time.Time
	ver      version.V
	value    string
}

// TestConcurrentReadsRespectRealTime drives Lookup/LookupV readers and
// UpdateV writers concurrently on a few hot keys through a parallel
// quorum suite, and checks the history against real time, using the
// paper's versions to order the writes of each key:
//
//  1. every read returns at least the highest version acknowledged by
//     an UpdateV that completed before the read was invoked;
//  2. no read returns a version older than one returned by a read that
//     completed before it began.
//
// Lookup returns no version, so writers encode a unique tag in each
// value and the tag is mapped back to the version its write returned.
func TestConcurrentReadsRespectRealTime(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"plain", nil},
		{"hedged", []Option{WithHedgedReads(20*time.Microsecond, time.Millisecond)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			runRealTimeCheck(t, tc.opts)
		})
	}
}

func runRealTimeCheck(t *testing.T, extra []Option) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	reps := []*rep.Rep{rep.New("A"), rep.New("B"), rep.New("C")}
	dirs := make([]rep.Directory, len(reps))
	for i, r := range reps {
		dirs[i] = transport.NewLocal(r)
	}
	cfg := quorum.NewUniform(dirs, 2, 2)
	opts := append([]Option{
		WithParallelQuorum(true),
		WithSelector(quorum.NewRandomSelector(cfg, 11)),
		WithMaxRetries(10000),
	}, extra...)
	s, err := NewSuite(cfg, opts...)
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{"h0", "h1", "h2"}
	// valueVer maps each written value to the version its write
	// returned; filled in as writes are acknowledged.
	var mu sync.Mutex
	valueVer := map[string]version.V{}
	for _, k := range keys {
		v, err := s.InsertV(ctx, k, "init-"+k)
		if err != nil {
			t.Fatal(err)
		}
		valueVer["init-"+k] = v
	}

	const (
		writers   = 2
		readers   = 4
		opsPerG   = 150
		readTypes = 2 // Lookup and LookupV alternate
	)
	hist := make([][]histOp, writers+readers)
	var wg sync.WaitGroup
	errs := make(chan error, writers+readers)
	for g := 0; g < writers+readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < opsPerG; i++ {
				key := keys[(g+i)%len(keys)]
				op := histOp{key: key, invoke: time.Now()}
				if g < writers {
					val := fmt.Sprintf("w%d-%d", g, i)
					ver, err := s.UpdateV(ctx, key, val)
					if err != nil {
						errs <- fmt.Errorf("UpdateV(%s): %w", key, err)
						return
					}
					op.complete, op.write, op.ver = time.Now(), true, ver
					mu.Lock()
					valueVer[val] = ver
					mu.Unlock()
				} else if i%readTypes == 0 {
					_, found, ver, err := s.LookupV(ctx, key)
					if err != nil || !found {
						errs <- fmt.Errorf("LookupV(%s) = %v, %v", key, found, err)
						return
					}
					op.complete, op.ver = time.Now(), ver
				} else {
					val, found, err := s.Lookup(ctx, key)
					if err != nil || !found {
						errs <- fmt.Errorf("Lookup(%s) = %v, %v", key, found, err)
						return
					}
					op.complete, op.value = time.Now(), val
				}
				hist[g] = append(hist[g], op)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	var all []histOp
	for _, ops := range hist {
		for _, op := range ops {
			if op.value != "" {
				v, ok := valueVer[op.value]
				if !ok {
					t.Fatalf("Lookup(%s) returned %q, which no acknowledged write wrote", op.key, op.value)
				}
				op.ver = v
			}
			all = append(all, op)
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].invoke.Before(all[j].invoke) })
	reads := 0
	for _, r := range all {
		if r.write {
			continue
		}
		reads++
		for _, p := range all {
			if p.key != r.key || !p.complete.Before(r.invoke) || r.ver >= p.ver {
				continue
			}
			if p.write {
				t.Fatalf("read of %s invoked at %v returned version %v, but UpdateV of version %v was acknowledged before it",
					r.key, r.invoke, r.ver, p.ver)
			}
			t.Fatalf("read of %s invoked at %v returned version %v, older than version %v returned by a read that completed before it began",
				r.key, r.invoke, r.ver, p.ver)
		}
	}
	st := s.Stats()
	t.Logf("%d reads, %d writes checked; retries %d, dies %d, hedged %d", reads, len(all)-reads, st.Retries, st.Dies, st.HedgedReads)
	assertNoHeldState(t, reps)
}
