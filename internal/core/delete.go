package core

import (
	"context"
	"fmt"

	"repdir/internal/keyspace"
	"repdir/internal/quorum"
	"repdir/internal/rep"
	"repdir/internal/version"
)

// maxWalkBatch caps how many neighbors one batch probe asks a member
// for. Scans size their batches from what the caller asked for (see
// walker.batch); the cap bounds one reply and the read-ahead lock span.
const maxWalkBatch = 256

// neighbor is the result of a real-predecessor or real-successor search:
// a key that is current (present in the directory suite), its entry
// version and value, and the largest gap version encountered while
// walking past ghosts.
type neighbor struct {
	key    keyspace.Key
	value  string
	ver    version.V
	maxGap version.V
}

// chain caches one quorum member's batched neighbor replies, in walk
// direction, consumed as the walk advances and refetched when they run
// out. With batches of 1 this is the paper's Figure 12: one
// DirRepPredecessor/DirRepSuccessor message per member per iteration.
type chain struct {
	cached []rep.NeighborResult
	idx    int
	size   int // last batch size, for unlimited walks' doubling
}

// walker runs the Figure 12 search, generalized to batched neighbor
// probes, over one read quorum (chosen at the first probe) whose
// per-member chains persist across steps: a scan advances one walker
// entry by entry, so a page costs one batch message per member.
//
// Currency is decided from the replies in hand. Each member's chain
// head is either the candidate — its DirRepLookup(candidate) would
// answer {Found, Version, Value} of the head — or the next entry beyond
// it, the candidate lying in the gap next to the head: {!Found,
// head.GapVersion}. Both were read under the batch's lookup lock on the
// span from the probe key to the batch's last key, which covers the
// candidate and is held to the end of the transaction, so Tx.winner
// over them is a DirSuiteLookup over a valid read quorum. Chains must
// not outlive a write to their members by the same transaction, so
// single searches (Delete's two, SuccessorKey/PredecessorKey, and
// ReconcileReplica, which writes its target between searches) build a
// walker per search.
type walker struct {
	tx      *Tx
	desc    bool // predecessor walk: descending keys
	members []quorum.Member
	chains  []chain
	replies []rep.LookupResult
	// want sizes batch fetches: 0 asks for the suite fanout (single
	// searches), > 0 is how many entries a limited scan still needs,
	// and < 0 marks an unlimited walk, whose batches double.
	want int
	// Walk iterations and neighbor messages, for section 4's statistics.
	steps, rpcs int
}

// batch returns how many neighbors the next fetch for c asks for. A
// limited scan asks for just what it still needs; an unlimited one
// doubles from the fanout, so its read-ahead past a range's end never
// exceeds what it has already read.
func (w *walker) batch(c *chain) int {
	f := w.tx.suite.fanout
	switch {
	case w.want > 0:
		return max(f, min(w.want, maxWalkBatch))
	case w.want < 0:
		c.size = max(f, min(2*c.size, maxWalkBatch))
		return c.size
	default:
		return f
	}
}

// beyond reports whether a lies strictly beyond b in walk direction.
func (w *walker) beyond(a, b keyspace.Key) bool {
	if w.desc {
		return a.Less(b)
	}
	return b.Less(a)
}

// head returns member i's nearest entry beyond k in walk direction,
// fetching a batch when the cache is exhausted. Cached entries the walk
// has moved past are skipped and never revisited.
func (w *walker) head(ctx context.Context, i int, k keyspace.Key) (rep.NeighborResult, error) {
	c := &w.chains[i]
	for c.idx < len(c.cached) && !w.beyond(c.cached[c.idx].Key, k) {
		c.idx++
	}
	if c.idx >= len(c.cached) {
		d := w.members[i].Dir
		w.tx.msgs++
		verb, fetch := "successor", d.SuccessorBatch
		if w.desc {
			verb, fetch = "predecessor", d.PredecessorBatch
		}
		batch, err := fetch(ctx, w.tx.txn.ID, k, w.batch(c))
		if err != nil {
			w.tx.noteFailure(d.Name(), err)
			return rep.NeighborResult{}, fmt.Errorf("%s of %s at %s: %w", verb, k, d.Name(), err)
		}
		if h := w.tx.suite.health; h != nil {
			h.ReportSuccess(d.Name())
		}
		w.rpcs++
		c.cached, c.idx = batch, 0
	}
	return c.cached[c.idx], nil
}

// next returns the real neighbor of x in walk direction: the nearest
// per-member candidate that is current, walking on past ghosts. Every
// gap version encountered is folded into maxGap, which lets
// DirSuiteDelete give the coalesced gap a version dominating the range.
func (w *walker) next(ctx context.Context, x keyspace.Key) (neighbor, error) {
	// The sentinels have no neighbor beyond them. Answer locally instead
	// of probing: DirRepPredecessor(LOW) draws rep.ErrNoNeighbor from
	// every member, which would make the domain edge indistinguishable
	// from a failed search to callers that fall through to a
	// neighboring shard.
	end, name := keyspace.High(), "succ-walk"
	if w.desc {
		end, name = keyspace.Low(), "pred-walk"
	}
	if x.Equal(end) {
		return neighbor{key: x, ver: version.Lowest, maxGap: version.Lowest}, nil
	}
	if w.members == nil {
		members, err := w.tx.readQuorum()
		if err != nil {
			return neighbor{}, err
		}
		w.members = members
		w.chains = make([]chain, len(members))
		w.replies = make([]rep.LookupResult, len(members))
		for _, m := range members {
			w.tx.txn.Join(m.Dir)
		}
	}
	sp := w.tx.span(name, x.Raw())
	defer sp.End()
	k := x
	maxGap := version.Lowest
	for {
		w.steps++
		cand := end
		for i := range w.chains {
			h, err := w.head(ctx, i, k)
			if err != nil {
				return neighbor{}, err
			}
			if w.beyond(cand, h.Key) {
				cand = h.Key
			}
			maxGap = version.Max(maxGap, h.GapVersion)
		}
		if cand.Equal(end) {
			// Every representative stores the sentinels, so they are
			// always current; no quorum check is needed (or possible —
			// LowestVersion never wins a Figure 8 comparison).
			return neighbor{key: cand, ver: version.Lowest, maxGap: maxGap}, nil
		}
		for i := range w.chains {
			h := w.chains[i].cached[w.chains[i].idx]
			if h.Key.Equal(cand) {
				w.replies[i] = rep.LookupResult{Found: true, Version: h.Version, Value: h.Value}
			} else {
				w.replies[i] = rep.LookupResult{Version: h.GapVersion}
			}
		}
		cur, err := w.tx.winner(ctx, cand, w.members, w.replies)
		if err != nil {
			return neighbor{}, err
		}
		if cur.Found {
			return neighbor{key: cand, value: cur.Value, ver: cur.Version, maxGap: maxGap}, nil
		}
		// cand is a ghost; keep walking from it.
		k = cand
	}
}

// Delete implements DirSuiteDelete (Figure 13) within the transaction.
func (tx *Tx) Delete(ctx context.Context, key string) error {
	x, err := validateKey(key)
	if err != nil {
		return err
	}
	members, err := tx.writeQuorum()
	if err != nil {
		return err
	}

	// Find the real successor and real predecessor of x.
	sw, pw := &walker{tx: tx}, &walker{tx: tx, desc: true}
	succ, err := sw.next(ctx, x)
	if err != nil {
		return err
	}
	pred, err := pw.next(ctx, x)
	if err != nil {
		return err
	}

	// The version number of the coalesced gap must be higher than the
	// maximum of any version numbers in the range coalesced.
	ver := version.Max(succ.maxGap, pred.maxGap)
	cur, err := tx.suiteLookup(ctx, x)
	if err != nil {
		return err
	}
	if !cur.Found {
		return fmt.Errorf("%w: %s", ErrKeyNotFound, x)
	}
	ver = version.Max(ver, cur.Version)

	// Make sure the predecessor and successor exist in every member of
	// the write quorum, copying them (with their current version and
	// value) where missing.
	insertions := 0
	boundSpan := tx.span("bound-copy", key)
	for _, m := range members {
		tx.txn.Join(m.Dir)
		for _, nb := range []neighbor{succ, pred} {
			tx.msgs++
			res, err := m.Dir.Lookup(ctx, tx.txn.ID, nb.key)
			if err != nil {
				tx.noteFailure(m.Dir.Name(), err)
				return fmt.Errorf("lookup bound %s at %s: %w", nb.key, m.Dir.Name(), err)
			}
			if res.Found {
				continue
			}
			tx.msgs++
			if err := m.Dir.Insert(ctx, tx.txn.ID, nb.key, nb.ver, nb.value); err != nil {
				tx.noteFailure(m.Dir.Name(), err)
				return fmt.Errorf("copy bound %s to %s: %w", nb.key, m.Dir.Name(), err)
			}
			tx.mutated = true
			insertions++
		}
	}
	boundSpan.End()

	// Coalesce the range in each member of the quorum.
	obs := DeleteObservation{
		Key:                  key,
		EntriesCoalesced:     make([]int, 0, len(members)),
		Insertions:           insertions,
		PredecessorWalkSteps: pw.steps,
		SuccessorWalkSteps:   sw.steps,
		NeighborRPCs:         pw.rpcs + sw.rpcs,
	}
	coalesceSpan := tx.span("coalesce", key)
	for _, m := range members {
		tx.msgs++
		res, err := m.Dir.Coalesce(ctx, tx.txn.ID, pred.key, succ.key, ver.Next())
		if err != nil {
			tx.noteFailure(m.Dir.Name(), err)
			return fmt.Errorf("coalesce %s..%s at %s: %w", pred.key, succ.key, m.Dir.Name(), err)
		}
		tx.mutated = true
		obs.EntriesCoalesced = append(obs.EntriesCoalesced, len(res.DeletedKeys))
		for _, dk := range res.DeletedKeys {
			if !dk.Equal(x) {
				obs.GhostDeletions++
			}
		}
	}
	coalesceSpan.End()
	tx.observations = append(tx.observations, obs)
	return nil
}
