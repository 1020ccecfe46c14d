package main

import (
	"context"
	"errors"
	"path/filepath"
	"testing"

	"repdir/internal/core"
	"repdir/internal/keyspace"
	"repdir/internal/lock"
	"repdir/internal/rep"
	"repdir/internal/version"
	"repdir/internal/wal"
)

// fakeDir answers LookupV from a map of versions.
type fakeDir map[string]uint64

func (f fakeDir) LookupV(_ context.Context, key string) (string, bool, version.V, error) {
	v, ok := f[key]
	return key + ":x", ok, version.V(v), nil
}

func checkName(err error) string {
	var ce *checkError
	if errors.As(err, &ce) {
		return ce.name
	}
	return ""
}

func TestDominanceFailsOnALostAcknowledgedWrite(t *testing.T) {
	keys := []string{"a", "b", "c", "d"}
	acked := map[int]uint64{0: 5, 1: 7, 3: 2} // "c" was never written
	ack := func(i int) uint64 { return acked[i] }

	// A deleted key reads back its gap version, which dominates.
	ok := fakeDir{"a": 5, "b": 9, "d": 3}
	if err := checkDominance(context.Background(), ok, keys, ack); err != nil {
		t.Fatalf("dominating directory rejected: %v", err)
	}
	lost := fakeDir{"a": 5, "b": 6, "d": 3} // b's write of version 7 is gone
	err := checkDominance(context.Background(), lost, keys, ack)
	if checkName(err) != "version-dominance" {
		t.Fatalf("lost write not caught: %v", err)
	}
}

// logInsert commits one insert on r, which logs it.
func logInsert(t *testing.T, r *rep.Rep, id uint64, key, value string) {
	t.Helper()
	ctx := context.Background()
	if err := r.Insert(ctx, lock.TxnID(id), keyspace.New(key), 1, value); err != nil {
		t.Fatal(err)
	}
	if err := r.Commit(ctx, lock.TxnID(id)); err != nil {
		t.Fatal(err)
	}
}

func TestReplayFailsWhenTheWALDivergesFromTheLiveReplica(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	log, err := wal.OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	live := rep.New("r", rep.WithLog(log))
	logInsert(t, live, 1<<18, "k1", "v1")
	logInsert(t, live, 2<<18, "k2", "v2")
	if err := checkReplay("r", nil, path, live.Dump()); err != nil {
		t.Fatalf("faithful log rejected: %v", err)
	}

	// A preload prefix supplied as records replays ahead of the file.
	prefix := []wal.Record{
		{Kind: wal.KindInsert, Txn: 9 << 18, Key: keyspace.New("k0"), Version: 1, Value: "v0"},
		{Kind: wal.KindCommit, Txn: 9 << 18},
	}
	withPrefix := rep.New("p")
	logInsert(t, withPrefix, 9<<18, "k0", "v0")
	logInsert(t, withPrefix, 1<<18, "k1", "v1")
	logInsert(t, withPrefix, 2<<18, "k2", "v2")
	if err := checkReplay("r", prefix, path, withPrefix.Dump()); err != nil {
		t.Fatalf("log with prefix rejected: %v", err)
	}

	// A committed transaction in the log that the live replica never
	// applied makes the replay diverge.
	for _, rec := range []wal.Record{
		{Kind: wal.KindInsert, Txn: 3 << 18, Key: keyspace.New("k3"), Version: 1, Value: "v3"},
		{Kind: wal.KindCommit, Txn: 3 << 18},
	} {
		if err := log.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := checkReplay("r", nil, path, live.Dump()); checkName(err) != "wal-replay" {
		t.Fatalf("diverging log not caught: %v", err)
	}
}

func TestAccountingFailsWhenACallIsLost(t *testing.T) {
	if err := checkAccounting("s", core.SuiteStats{Calls: 5, Commits: 3, Failures: 1, Cancelled: 1}); err != nil {
		t.Fatalf("balanced stats rejected: %v", err)
	}
	err := checkAccounting("s", core.SuiteStats{Calls: 5, Commits: 3, Failures: 1})
	if checkName(err) != "suite-accounting" {
		t.Fatalf("lost call not caught: %v", err)
	}
}
