package core

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repdir/internal/keyspace"
	"repdir/internal/quorum"
	"repdir/internal/rep"
	"repdir/internal/transport"
)

func TestScanEmpty(t *testing.T) {
	ctx := context.Background()
	ts := newRandomSuite(t, []string{"A", "B", "C"}, 2, 2, 61)
	got, err := ts.suite.Scan(ctx, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("scan of empty suite = %v", got)
	}
	n, err := ts.suite.Count(ctx)
	if err != nil || n != 0 {
		t.Errorf("count = %d, %v", n, err)
	}
}

func TestScanReturnsSortedCurrentEntries(t *testing.T) {
	ctx := context.Background()
	ts := newRandomSuite(t, []string{"A", "B", "C"}, 2, 2, 62)
	keys := []string{"delta", "alpha", "echo", "bravo", "charlie"}
	for _, k := range keys {
		if err := ts.suite.Insert(ctx, k, "v-"+k); err != nil {
			t.Fatal(err)
		}
	}
	got, err := ts.suite.Scan(ctx, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(keys)
	if len(got) != len(keys) {
		t.Fatalf("scan returned %d entries, want %d", len(got), len(keys))
	}
	for i, kv := range got {
		if kv.Key != keys[i] || kv.Value != "v-"+keys[i] {
			t.Errorf("scan[%d] = %+v, want %s", i, kv, keys[i])
		}
	}
}

func TestScanPagination(t *testing.T) {
	ctx := context.Background()
	ts := newRandomSuite(t, []string{"A", "B", "C"}, 2, 2, 63)
	for i := 0; i < 10; i++ {
		if err := ts.suite.Insert(ctx, fmt.Sprintf("k%02d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}
	var all []KV
	after := ""
	for {
		page, err := ts.suite.Scan(ctx, after, 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(page) == 0 {
			break
		}
		all = append(all, page...)
		after = page[len(page)-1].Key
	}
	if len(all) != 10 {
		t.Fatalf("pagination returned %d entries", len(all))
	}
	for i, kv := range all {
		if kv.Key != fmt.Sprintf("k%02d", i) {
			t.Errorf("page order broken at %d: %s", i, kv.Key)
		}
	}
	// "after" respects strict inequality.
	page, err := ts.suite.Scan(ctx, "k04", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(page) != 2 || page[0].Key != "k05" || page[1].Key != "k06" {
		t.Errorf("scan after k04 = %v", page)
	}
}

func TestScanSkipsGhosts(t *testing.T) {
	// Build ghosts with scripted quorums, then verify Scan never reports
	// deleted keys even when a stale replica still stores them.
	ctx := context.Background()
	ts := newScriptedSuite(t, []string{"A", "B", "C"}, 2, 2)
	ts.prepopulate(t, "a", "c", "e")
	ts.script.set([]int{0, 1}, []int{0, 1})
	if err := ts.suite.Insert(ctx, "b", "vb"); err != nil {
		t.Fatal(err)
	}
	if err := ts.suite.Insert(ctx, "d", "vd"); err != nil {
		t.Fatal(err)
	}
	// Delete b and d through quorums that leave ghosts on A.
	ts.script.set([]int{1, 2}, []int{1, 2})
	if err := ts.suite.Delete(ctx, "b"); err != nil {
		t.Fatal(err)
	}
	if err := ts.suite.Delete(ctx, "d"); err != nil {
		t.Fatal(err)
	}
	// Leave A stale in the other two ways a member can be: an older
	// version of a current entry (c) and a missing entry (f).
	if err := ts.suite.Update(ctx, "c", "vc2"); err != nil {
		t.Fatal(err)
	}
	if err := ts.suite.Insert(ctx, "f", "vf"); err != nil {
		t.Fatal(err)
	}
	if has, _ := ts.repHas(0, "b"); !has {
		t.Fatal("test setup: A should hold ghost b")
	}
	if has, ver := ts.repHas(0, "c"); !has || ver != 1 {
		t.Fatalf("test setup: A should hold c at version 1, has=%v ver=%v", has, ver)
	}
	if has, _ := ts.repHas(0, "f"); has {
		t.Fatal("test setup: A should be missing f")
	}
	// Scan with read quorums including the stale A, in both directions
	// and with the stale member in either position.
	want := []KV{{"a", "val-a"}, {"c", "vc2"}, {"e", "val-e"}, {"f", "vf"}}
	for _, q := range [][]int{{0, 2}, {2, 0}, {0, 1}} {
		ts.script.set(q, nil)
		got, err := ts.suite.Scan(ctx, "", 0)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("quorum %v: scan = %v, want %v", q, got, want)
		}
		rev, err := ts.suite.ScanReverse(ctx, "", 0)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if len(rev) != len(want) || rev[i] != want[len(want)-1-i] {
				t.Fatalf("quorum %v: reverse scan = %v, want %v reversed", q, rev, want)
			}
		}
		// A limited page stops where the limit says, stale member or not.
		page, err := ts.suite.Scan(ctx, "a", 2)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(page) != fmt.Sprint(want[1:3]) {
			t.Fatalf("quorum %v: Scan(a, 2) = %v, want %v", q, page, want[1:3])
		}
	}
}

// TestScanPageIsOneBatchPerMember pins the section 4 batching claim for
// scans: with no ghosts, Scan(after, 50) is one SuccessorBatch message
// to each member of the read quorum, whose replies also decide every
// entry's currency — no per-entry Lookup round — plus the aborts that
// release the read locks. Unlimited walks double their batches, so a
// Count costs a logarithmic number of messages per member.
func TestScanPageIsOneBatchPerMember(t *testing.T) {
	ctx := context.Background()
	ts := newRandomSuite(t, []string{"A", "B", "C"}, 2, 2, 71)
	keys := make([]string, 120)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%03d", i)
	}
	ts.prepopulate(t, keys...)
	totals := func() (lookups, probes, aborts uint64) {
		for _, r := range ts.reps {
			c := r.Counters()
			lookups += c.Lookups
			probes += c.NeighborProbes
			aborts += c.Aborts
		}
		return
	}
	l0, p0, a0 := totals()
	page, err := ts.suite.Scan(ctx, "k009", 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(page) != 50 || page[0].Key != "k010" || page[49].Key != "k059" {
		t.Fatalf("Scan(k009, 50) = %d entries from %v", len(page), page[0])
	}
	l1, p1, a1 := totals()
	if l1 != l0 || p1-p0 != 2 || a1-a0 != 2 {
		t.Errorf("Scan(k009, 50) sent %d lookups, %d neighbor batches, %d aborts; want 0, 2 (R), 2 (R)",
			l1-l0, p1-p0, a1-a0)
	}
	n, err := ts.suite.Count(ctx)
	if err != nil || n != len(keys) {
		t.Fatalf("Count = %d, %v; want %d", n, err, len(keys))
	}
	// 121 replies per member (the entries and HIGH) in batches of
	// 1, 2, 4, ..., 64: seven messages per member.
	l2, p2, _ := totals()
	if l2 != l1 || p2-p1 != 2*7 {
		t.Errorf("Count sent %d lookups, %d neighbor batches; want 0, 14", l2-l1, p2-p1)
	}
}

// TestScanChasesWitnessValues: a witness holds versions but no values,
// so when the witness's batch reply is the winning one for an entry —
// here because the other quorum member missed the write — the scan
// must chase the value from a store member, as a quorum lookup does.
func TestScanChasesWitnessValues(t *testing.T) {
	ctx := context.Background()
	a, b := transport.NewLocal(rep.New("A")), transport.NewLocal(rep.New("B"))
	w := transport.NewLocal(rep.New("W", rep.AsWitness()))
	cfg := quorum.Config{
		Members: []quorum.Member{{Dir: a, Votes: 1}, {Dir: b, Votes: 1}, {Dir: w, Votes: 1, Witness: true}},
		R:       2, W: 2,
	}
	script := &scriptSelector{cfg: cfg}
	suite, err := NewSuite(cfg, WithSelector(script))
	if err != nil {
		t.Fatal(err)
	}
	script.set([]int{0, 2}, []int{0, 2})
	for _, k := range []string{"k1", "k2", "k3"} {
		if err := suite.Insert(ctx, k, "v-"+k); err != nil {
			t.Fatal(err)
		}
	}
	want := "[{k1 v-k1} {k2 v-k2} {k3 v-k3}]"
	// {B, W}: B misses every entry, so the witness wins and the value is
	// chased from A. {A, W}: a tie, which A's reply wins.
	for _, q := range [][]int{{1, 2}, {2, 1}, {0, 2}} {
		script.set(q, nil)
		got, err := suite.Scan(ctx, "", 0)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got) != want {
			t.Errorf("quorum %v: scan = %v, want %s", q, got, want)
		}
		if kv, found, err := suite.Predecessor(ctx, ""); err != nil || !found || kv != (KV{"k3", "v-k3"}) {
			t.Errorf("quorum %v: Predecessor(\"\") = %v, %v, %v", q, kv, found, err)
		}
	}
}

func TestScanSurvivesReplicaFailure(t *testing.T) {
	ctx := context.Background()
	ts := newRandomSuite(t, []string{"A", "B", "C"}, 2, 2, 64)
	for i := 0; i < 6; i++ {
		if err := ts.suite.Insert(ctx, fmt.Sprintf("k%d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}
	ts.locals[2].Crash()
	got, err := ts.suite.Scan(ctx, "", 0)
	if err != nil {
		t.Fatalf("scan with a replica down: %v", err)
	}
	if len(got) != 6 {
		t.Errorf("scan returned %d entries, want 6", len(got))
	}
}

func TestScanMatchesOracleUnderRandomWorkload(t *testing.T) {
	ctx := context.Background()
	ts := newRandomSuite(t, []string{"A", "B", "C"}, 2, 2, 65)
	rng := rand.New(rand.NewSource(66))
	oracle := map[string]string{}
	for step := 0; step < 150; step++ {
		key := fmt.Sprintf("k%02d", rng.Intn(25))
		_, present := oracle[key]
		switch op := rng.Intn(3); {
		case !present && op < 2:
			if err := ts.suite.Insert(ctx, key, key); err != nil {
				t.Fatal(err)
			}
			oracle[key] = key
		case present && op == 0:
			// Updates leave the member outside the write quorum holding
			// an older version that later scans must outrank.
			val := fmt.Sprintf("%s@%d", key, step)
			if err := ts.suite.Update(ctx, key, val); err != nil {
				t.Fatal(err)
			}
			oracle[key] = val
		case present:
			if err := ts.suite.Delete(ctx, key); err != nil {
				t.Fatal(err)
			}
			delete(oracle, key)
		}
		if step%25 == 24 {
			got, err := ts.suite.Scan(ctx, "", 0)
			if err != nil {
				t.Fatal(err)
			}
			var want []string
			for k := range oracle {
				want = append(want, k)
			}
			sort.Strings(want)
			if len(got) != len(want) {
				t.Fatalf("step %d: scan %d entries, oracle %d", step, len(got), len(want))
			}
			for i := range want {
				if got[i].Key != want[i] || got[i].Value != oracle[want[i]] {
					t.Fatalf("step %d: scan[%d] = %v, want %s=%s", step, i, got[i], want[i], oracle[want[i]])
				}
			}
		}
	}
}

func TestScanRangeAndPrefix(t *testing.T) {
	ctx := context.Background()
	ts := newRandomSuite(t, []string{"A", "B", "C"}, 2, 2, 70)
	// A hierarchical namespace via tuple keys.
	puts := [][]string{
		{"svc", "db", "host1"},
		{"svc", "db", "host2"},
		{"svc", "web", "host3"},
		{"job", "cron", "host4"},
	}
	for _, p := range puts {
		key := keyspace.EncodeTuple(p...)
		if err := ts.suite.Insert(ctx, key.Raw(), p[len(p)-1]); err != nil {
			t.Fatal(err)
		}
	}
	// Prefix scan: exactly the svc/db subtree.
	got, err := ts.suite.ScanPrefix(ctx, 0, "svc", "db")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("prefix scan returned %d entries, want 2", len(got))
	}
	for i, want := range []string{"host1", "host2"} {
		comps, err := keyspace.DecodeTuple(keyspace.New(got[i].Key))
		if err != nil {
			t.Fatal(err)
		}
		if comps[2] != want || got[i].Value != want {
			t.Errorf("prefix[%d] = %v/%s, want %s", i, comps, got[i].Value, want)
		}
	}
	// Bounded range scan with plain keys.
	if err := ts.suite.Insert(ctx, "m1", "v"); err != nil {
		t.Fatal(err)
	}
	if err := ts.suite.Insert(ctx, "m2", "v"); err != nil {
		t.Fatal(err)
	}
	if err := ts.suite.Insert(ctx, "m3", "v"); err != nil {
		t.Fatal(err)
	}
	page, err := ts.suite.ScanRange(ctx, "m1", "m3", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(page) != 1 || page[0].Key != "m2" {
		t.Errorf("ScanRange(m1, m3) = %v, want exactly m2", page)
	}
	// Empty until = unbounded: m3 plus the three "svc" tuple keys that
	// sort after "m2".
	page, err = ts.suite.ScanRange(ctx, "m2", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(page) != 4 || page[0].Key != "m3" {
		t.Errorf("ScanRange(m2, ∞) returned %d entries, first %q", len(page), page[0].Key)
	}
}

func TestScanReverse(t *testing.T) {
	ctx := context.Background()
	ts := newRandomSuite(t, []string{"A", "B", "C"}, 2, 2, 68)
	keys := []string{"a", "b", "c", "d", "e"}
	for _, k := range keys {
		if err := ts.suite.Insert(ctx, k, "v-"+k); err != nil {
			t.Fatal(err)
		}
	}
	// Full reverse scan.
	got, err := ts.suite.ScanReverse(ctx, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(keys) {
		t.Fatalf("reverse scan = %d entries", len(got))
	}
	for i, kv := range got {
		want := keys[len(keys)-1-i]
		if kv.Key != want || kv.Value != "v-"+want {
			t.Errorf("reverse[%d] = %+v, want %s", i, kv, want)
		}
	}
	// Bounded, strictly-before semantics.
	page, err := ts.suite.ScanReverse(ctx, "d", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(page) != 2 || page[0].Key != "c" || page[1].Key != "b" {
		t.Errorf("reverse before d = %v", page)
	}
	// Reverse scan skips ghosts like the forward one (delete via a
	// quorum, then read including the stale replica).
	if err := ts.suite.Delete(ctx, "c"); err != nil {
		t.Fatal(err)
	}
	got, err = ts.suite.ScanReverse(ctx, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, kv := range got {
		if kv.Key == "c" {
			t.Error("deleted key surfaced in reverse scan")
		}
	}
	if len(got) != 4 {
		t.Errorf("reverse scan after delete = %d entries", len(got))
	}
	// Empty suite edge.
	empty := newRandomSuite(t, []string{"X", "Y", "Z"}, 2, 2, 69)
	if out, err := empty.suite.ScanReverse(ctx, "", 0); err != nil || len(out) != 0 {
		t.Errorf("reverse scan of empty suite = %v, %v", out, err)
	}
}

// TestQuickScanSymmetry: for any set of inserted keys, the reverse scan
// is exactly the forward scan reversed, and bounded scans agree with
// slicing the full scan.
func TestQuickScanSymmetry(t *testing.T) {
	ctx := context.Background()
	property := func(raw []uint8, seed int64) bool {
		ts := newRandomSuite(t, []string{"A", "B", "C"}, 2, 2, seed)
		present := map[string]bool{}
		for _, b := range raw {
			key := fmt.Sprintf("k%02d", b%40)
			if !present[key] {
				if err := ts.suite.Insert(ctx, key, "v"); err != nil {
					t.Logf("insert: %v", err)
					return false
				}
				present[key] = true
			}
		}
		fwd, err := ts.suite.Scan(ctx, "", 0)
		if err != nil {
			t.Logf("scan: %v", err)
			return false
		}
		rev, err := ts.suite.ScanReverse(ctx, "", 0)
		if err != nil {
			t.Logf("reverse scan: %v", err)
			return false
		}
		if len(fwd) != len(rev) || len(fwd) != len(present) {
			t.Logf("lengths: fwd=%d rev=%d present=%d", len(fwd), len(rev), len(present))
			return false
		}
		for i := range fwd {
			if fwd[i] != rev[len(rev)-1-i] {
				t.Logf("symmetry broken at %d", i)
				return false
			}
		}
		// A bounded middle window equals the slice of the full scan.
		if len(fwd) >= 3 {
			window, err := ts.suite.ScanRange(ctx, fwd[0].Key, fwd[len(fwd)-1].Key, 0)
			if err != nil {
				return false
			}
			if len(window) != len(fwd)-2 {
				t.Logf("window size %d, want %d", len(window), len(fwd)-2)
				return false
			}
			for i := range window {
				if window[i] != fwd[i+1] {
					return false
				}
			}
		}
		return true
	}
	if err := quickCheckSmall(property, 20); err != nil {
		t.Error(err)
	}
}

func TestScanWithFanout(t *testing.T) {
	ctx := context.Background()
	ts := newRandomSuite(t, []string{"A", "B", "C"}, 2, 2, 67)
	suite, err := NewSuite(ts.suite.cfg, WithNeighborFanout(4))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := suite.Insert(ctx, fmt.Sprintf("k%d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}
	got, err := suite.Scan(ctx, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 8 {
		t.Errorf("fanout scan returned %d entries", len(got))
	}
}
