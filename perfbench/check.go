package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repdir/internal/btree"
	"repdir/internal/core"
	"repdir/internal/rep"
	"repdir/internal/version"
	"repdir/internal/wal"
)

// checkError is a failed correctness check; the run exits non-zero
// with the check's name.
type checkError struct {
	name string
	err  error
}

func (e *checkError) Error() string { return fmt.Sprintf("check %s failed: %v", e.name, e.err) }

func (e *checkError) Unwrap() error { return e.err }

func failed(name string, format string, args ...any) error {
	return &checkError{name: name, err: fmt.Errorf(format, args...)}
}

// versionReader is the quorum read the dominance check needs.
type versionReader interface {
	LookupV(ctx context.Context, key string) (string, bool, version.V, error)
}

// checkDominance is the paper's version dominance: a quorum LookupV of
// every written key returns a version at least the highest version any
// acknowledged InsertV or UpdateV returned for it. For a deleted key
// the version read is the winning gap version, which must dominate
// too. acked(i) is 0 for keys never written.
func checkDominance(ctx context.Context, dir versionReader, keys []string, acked func(i int) uint64) error {
	const readers = 16
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
	)
	next := make(chan int)
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				want := acked(i)
				_, _, got, err := dir.LookupV(ctx, keys[i])
				var bad error
				switch {
				case err != nil:
					bad = failed("version-dominance", "LookupV %s: %v", keys[i], err)
				case uint64(got) < want:
					bad = failed("version-dominance", "LookupV %s returned version %d, below acknowledged version %d", keys[i], got, want)
				}
				if bad != nil {
					mu.Lock()
					if first == nil {
						first = bad
					}
					mu.Unlock()
				}
			}
		}()
	}
	for i := range keys {
		if acked(i) > 0 {
			next <- i
		}
	}
	close(next)
	wg.Wait()
	return first
}

// checkReplay reads a replica's WAL back with wal.ReadFileLog, rebuilds
// the replica with rep.Recover from prefix followed by the records
// read, and requires the result to equal the live replica's state.
func checkReplay(name string, prefix []wal.Record, walPath string, live []btree.Entry) error {
	records, err := wal.ReadFileLog(walPath)
	if err != nil {
		return failed("wal-replay", "%s: read log: %v", name, err)
	}
	r, err := rep.Recover(name, append(prefix[:len(prefix):len(prefix)], records...))
	if err != nil {
		return failed("wal-replay", "%s: recover: %v", name, err)
	}
	got := r.Dump()
	if len(got) != len(live) {
		return failed("wal-replay", "%s: replay holds %d entries, live replica %d", name, len(got), len(live))
	}
	for i := range got {
		if got[i] != live[i] {
			return failed("wal-replay", "%s: entry %d replays as %+v, live %+v", name, i, got[i], live[i])
		}
	}
	return nil
}

// replayReplica saves what a replica logged after preload to a file
// under dir and checks its replay on top of the preload's records.
func replayReplica(rp *replica, dir string) error {
	path := filepath.Join(dir, rp.name+".wal")
	if err := rp.file.save(path); err != nil {
		return fmt.Errorf("save %s wal: %w", rp.name, err)
	}
	defer os.Remove(path)
	return checkReplay(rp.name, rp.logTap.kept, path, rp.rep.Dump())
}

// checkAccounting requires every call a suite started to have ended in
// exactly one of commit, failure or cancellation.
func checkAccounting(name string, st core.SuiteStats) error {
	if st.Calls != st.Commits+st.Failures+st.Cancelled {
		return failed("suite-accounting", "%s: Calls %d != Commits %d + Failures %d + Cancelled %d",
			name, st.Calls, st.Commits, st.Failures, st.Cancelled)
	}
	return nil
}

// checkAll runs every end-of-workload check against a quiescent
// deployment; dir holds the WAL images read back.
func checkAll(r *runner, dir string) error {
	if err := r.wrongRead(); err != nil {
		return &checkError{name: "read-result", err: err}
	}
	acked := func(i int) uint64 { return r.acked[i].Load() }
	if err := checkDominance(context.Background(), r.dir, r.keys, acked); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	reps := r.d.replicas()
	errs := make([]error, len(reps))
	var wg sync.WaitGroup
	for i, rp := range reps {
		wg.Add(1)
		go func(i int, rp *replica) {
			defer wg.Done()
			errs[i] = replayReplica(rp, dir)
		}(i, rp)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	for i, g := range r.d.groups {
		if err := checkAccounting(fmt.Sprintf("suite %d", i), g.suite.Stats()); err != nil {
			return err
		}
	}
	return nil
}
