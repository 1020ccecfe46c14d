package rep

import (
	"context"
	"fmt"

	"repdir/internal/interval"
	"repdir/internal/keyspace"
	"repdir/internal/lock"
)

// maxBatchPrealloc caps the capacity a batch reply preallocates. max
// arrives off the wire, and the decoder admits counts up to 1<<20: one
// request must not make a replica allocate tens of megabytes before it
// has read an entry. Larger batches grow by append.
const maxBatchPrealloc = 256

// PredecessorBatch returns up to max successive predecessors of key,
// walking downward: the first element is the entry immediately below key,
// the second the entry below that, and so on. Element i's GapVersion is
// the version of the gap between element i and the key above it (key for
// i = 0, element i-1 otherwise) — exactly what max successive
// DirRepPredecessor calls would have returned, but in one message.
//
// Section 4 of the paper observes that "if each member of a read quorum
// sends the results of three successive DirRepPredecessor and
// DirRepSuccessor operations in a single message, the real predecessor
// and real successor will often be located using one remote procedure
// call to each member of the quorum."
//
// Locks RepLookup(y, key) where y is the lowest key returned; fewer
// entries than max are returned only when LOW is reached.
func (r *Rep) PredecessorBatch(ctx context.Context, txn lock.TxnID, key keyspace.Key, max int) ([]NeighborResult, error) {
	if key.IsLow() {
		return nil, fmt.Errorf("%w: predecessor of LOW", ErrNoNeighbor)
	}
	if err := r.checkEpoch(ctx); err != nil {
		return nil, err
	}
	if err := r.readable(); err != nil {
		return nil, err
	}
	r.stats.neighborProbes.Add(1)
	if max < 1 {
		return nil, fmt.Errorf("rep: batch size %d must be positive", max)
	}
	var lockedLo keyspace.Key
	locked := false
	for {
		r.mu.Lock()
		if err := r.undecided(txn); err != nil {
			r.mu.Unlock()
			return nil, err
		}
		r.touch(txn)
		out := make([]NeighborResult, 0, min(max, maxBatchPrealloc))
		k := key
		for len(out) < max {
			pred, ok := r.store.Lower(k)
			if !ok {
				r.mu.Unlock()
				return nil, fmt.Errorf("rep: %s: no predecessor entry for %s", r.name, k)
			}
			out = append(out, NeighborResult{
				Key:        pred.Key,
				Version:    pred.Version,
				Value:      pred.Value,
				GapVersion: pred.GapAfter,
			})
			if pred.Key.IsLow() {
				break
			}
			k = pred.Key
		}
		lowest := out[len(out)-1].Key
		if locked && !lowest.Less(lockedLo) {
			r.mu.Unlock()
			return out, nil
		}
		r.mu.Unlock()
		if err := r.locks.Acquire(ctx, txn, lock.ModeLookup, interval.Span(lowest, key)); err != nil {
			return nil, err
		}
		lockedLo, locked = lowest, true
	}
}

// SuccessorBatch is the mirror image of PredecessorBatch: up to max
// successive successors of key walking upward, element i's GapVersion
// being the gap between element i and the key below it.
func (r *Rep) SuccessorBatch(ctx context.Context, txn lock.TxnID, key keyspace.Key, max int) ([]NeighborResult, error) {
	if key.IsHigh() {
		return nil, fmt.Errorf("%w: successor of HIGH", ErrNoNeighbor)
	}
	if err := r.checkEpoch(ctx); err != nil {
		return nil, err
	}
	if err := r.readable(); err != nil {
		return nil, err
	}
	r.stats.neighborProbes.Add(1)
	if max < 1 {
		return nil, fmt.Errorf("rep: batch size %d must be positive", max)
	}
	var lockedHi keyspace.Key
	locked := false
	for {
		r.mu.Lock()
		if err := r.undecided(txn); err != nil {
			r.mu.Unlock()
			return nil, err
		}
		r.touch(txn)
		out := make([]NeighborResult, 0, min(max, maxBatchPrealloc))
		k := key
		for len(out) < max {
			succ, ok := r.store.Higher(k)
			if !ok {
				r.mu.Unlock()
				return nil, fmt.Errorf("rep: %s: no successor entry for %s", r.name, k)
			}
			floor, ok := r.store.Floor(k)
			if !ok {
				r.mu.Unlock()
				return nil, fmt.Errorf("rep: %s: no floor entry for %s", r.name, k)
			}
			out = append(out, NeighborResult{
				Key:        succ.Key,
				Version:    succ.Version,
				Value:      succ.Value,
				GapVersion: floor.GapAfter,
			})
			if succ.Key.IsHigh() {
				break
			}
			k = succ.Key
		}
		highest := out[len(out)-1].Key
		if locked && !lockedHi.Less(highest) {
			r.mu.Unlock()
			return out, nil
		}
		r.mu.Unlock()
		if err := r.locks.Acquire(ctx, txn, lock.ModeLookup, interval.Span(key, highest)); err != nil {
			return nil, err
		}
		lockedHi, locked = highest, true
	}
}
