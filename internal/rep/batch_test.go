package rep

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repdir/internal/keyspace"
	"repdir/internal/lock"
	"repdir/internal/version"
)

func TestPredecessorBatchWalksDown(t *testing.T) {
	r := New("A")
	mustInsert(t, r, 1, "b", 1, "vb")
	mustInsert(t, r, 2, "d", 2, "vd")
	mustInsert(t, r, 3, "f", 3, "vf")

	txn := lock.TxnID(4)
	batch, err := r.PredecessorBatch(ctx, txn, k("g"), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 3 {
		t.Fatalf("batch length = %d, want 3", len(batch))
	}
	wantKeys := []string{"f", "d", "b"}
	wantVers := []version.V{3, 2, 1}
	for i := range wantKeys {
		if !batch[i].Key.Equal(k(wantKeys[i])) || batch[i].Version != wantVers[i] {
			t.Errorf("batch[%d] = %s v%d, want %s v%d",
				i, batch[i].Key, batch[i].Version, wantKeys[i], wantVers[i])
		}
	}
	r.Commit(ctx, txn)
}

func TestSuccessorBatchWalksUp(t *testing.T) {
	r := New("A")
	mustInsert(t, r, 1, "b", 1, "vb")
	mustInsert(t, r, 2, "d", 2, "vd")

	txn := lock.TxnID(3)
	batch, err := r.SuccessorBatch(ctx, txn, k("a"), 5)
	if err != nil {
		t.Fatal(err)
	}
	// b, d, HIGH — then the walk stops.
	if len(batch) != 3 {
		t.Fatalf("batch length = %d, want 3 (b, d, HIGH)", len(batch))
	}
	if !batch[0].Key.Equal(k("b")) || !batch[1].Key.Equal(k("d")) || !batch[2].Key.IsHigh() {
		t.Errorf("batch keys = %v %v %v", batch[0].Key, batch[1].Key, batch[2].Key)
	}
	r.Commit(ctx, txn)
}

// TestBatchHugeMaxOnSmallStore checks that a batch size taken off the
// wire does not size the reply's allocation: a request for a million
// neighbors of a three-entry store returns the entries up to the
// sentinel, in a slice no larger than a bounded preallocation.
func TestBatchHugeMaxOnSmallStore(t *testing.T) {
	r := New("A")
	mustInsert(t, r, 1, "b", 1, "vb")
	mustInsert(t, r, 2, "d", 2, "vd")
	mustInsert(t, r, 3, "f", 3, "vf")
	const huge = 1 << 20
	txn := lock.TxnID(4)
	succ, err := r.SuccessorBatch(ctx, txn, keyspace.Low(), huge)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := r.PredecessorBatch(ctx, txn, keyspace.High(), huge)
	if err != nil {
		t.Fatal(err)
	}
	r.Commit(ctx, txn)
	for name, batch := range map[string][]NeighborResult{"successor": succ, "predecessor": pred} {
		if len(batch) != 4 {
			t.Errorf("%s batch length = %d, want 4 (three entries and a sentinel)", name, len(batch))
		}
		if cap(batch) > maxBatchPrealloc {
			t.Errorf("%s batch capacity = %d for %d entries: preallocation follows the requested max", name, cap(batch), len(batch))
		}
	}
	// A batch longer than the preallocation cap still arrives whole.
	big := New("B")
	for i := 0; i < 2*maxBatchPrealloc; i++ {
		mustInsert(t, big, lock.TxnID(i+1), fmt.Sprintf("k%04d", i), 1, "v")
	}
	txn = lock.TxnID(10000)
	all, err := big.SuccessorBatch(ctx, txn, keyspace.Low(), huge)
	if err != nil {
		t.Fatal(err)
	}
	big.Commit(ctx, txn)
	if len(all) != 2*maxBatchPrealloc+1 {
		t.Errorf("long batch length = %d, want %d", len(all), 2*maxBatchPrealloc+1)
	}
}

func TestBatchStopsAtSentinels(t *testing.T) {
	r := New("A")
	mustInsert(t, r, 1, "m", 1, "v")
	txn := lock.TxnID(2)
	batch, err := r.PredecessorBatch(ctx, txn, k("z"), 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 2 || !batch[1].Key.IsLow() {
		t.Fatalf("batch should stop at LOW: %v", batch)
	}
	r.Commit(ctx, txn)
}

func TestBatchMatchesSingleCalls(t *testing.T) {
	// The batch must return exactly what repeated single calls would:
	// same keys, versions, and gap versions.
	r := New("A")
	rng := rand.New(rand.NewSource(5))
	keys := make([]string, 0, 30)
	for i := 0; i < 30; i++ {
		key := fmt.Sprintf("k%03d", rng.Intn(500))
		keys = append(keys, key)
		id := lock.TxnID(i + 1)
		if err := r.Insert(ctx, id, k(key), version.V(i+1), "v"); err != nil {
			t.Fatal(err)
		}
		r.Commit(ctx, id)
	}
	sort.Strings(keys)
	probe := k("k999")

	txn := lock.TxnID(100)
	batch, err := r.PredecessorBatch(ctx, txn, probe, 8)
	if err != nil {
		t.Fatal(err)
	}
	cur := probe
	for i, nb := range batch {
		single, err := r.Predecessor(ctx, txn, cur)
		if err != nil {
			t.Fatal(err)
		}
		if !single.Key.Equal(nb.Key) || single.Version != nb.Version ||
			single.GapVersion != nb.GapVersion || single.Value != nb.Value {
			t.Fatalf("batch[%d] = %+v, single calls give %+v", i, nb, single)
		}
		cur = nb.Key
	}

	sbatch, err := r.SuccessorBatch(ctx, txn, keyspace.Low(), 8)
	if err != nil {
		t.Fatal(err)
	}
	cur = keyspace.Low()
	for i, nb := range sbatch {
		single, err := r.Successor(ctx, txn, cur)
		if err != nil {
			t.Fatal(err)
		}
		if !single.Key.Equal(nb.Key) || single.GapVersion != nb.GapVersion {
			t.Fatalf("succ batch[%d] = %+v, single calls give %+v", i, nb, single)
		}
		cur = nb.Key
	}
	r.Commit(ctx, txn)
}

func TestBatchValidation(t *testing.T) {
	r := New("A")
	if _, err := r.PredecessorBatch(ctx, 1, keyspace.Low(), 3); !errors.Is(err, ErrNoNeighbor) {
		t.Errorf("PredecessorBatch(LOW) = %v", err)
	}
	if _, err := r.SuccessorBatch(ctx, 1, keyspace.High(), 3); !errors.Is(err, ErrNoNeighbor) {
		t.Errorf("SuccessorBatch(HIGH) = %v", err)
	}
	if _, err := r.PredecessorBatch(ctx, 1, k("x"), 0); err == nil {
		t.Error("zero batch size should be rejected")
	}
	r.Abort(ctx, 1)
}

func TestBatchTakesRangeLock(t *testing.T) {
	r := New("A")
	mustInsert(t, r, 1, "b", 1, "v")
	mustInsert(t, r, 2, "d", 1, "v")
	// Txn 5 batches over [LOW..f]; a younger writer in that range dies.
	if _, err := r.PredecessorBatch(ctx, 5, k("f"), 5); err != nil {
		t.Fatal(err)
	}
	if err := r.Insert(ctx, 6, k("c"), 2, "w"); !errors.Is(err, lock.ErrDie) {
		t.Errorf("insert into batch-locked range = %v, want ErrDie", err)
	}
	r.Abort(ctx, 6)
	r.Abort(ctx, 5)
}
