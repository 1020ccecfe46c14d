package wal

import (
	"os"
	"path/filepath"
	"testing"

	"repdir/internal/keyspace"
)

// FuzzReadFileLog writes arbitrary bytes as a log file: reading must
// never panic, and whatever records are salvaged must survive a rewrite
// and reread.
func FuzzReadFileLog(f *testing.F) {
	// Seed with a valid one-record log.
	dir := f.TempDir()
	seedPath := filepath.Join(dir, "seed.wal")
	l, err := OpenFileLog(seedPath)
	if err != nil {
		f.Fatal(err)
	}
	l.Append(Record{Kind: KindCommit, Txn: 7})
	l.Close()
	seed, err := os.ReadFile(seedPath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 0xff})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}) // no frame magic
	// Every record kind in one log, so the fuzzer starts from each
	// per-kind field layout.
	var all []byte
	for _, g := range goldenRecords {
		all = append(all, g.want...)
	}
	f.Add(all)
	f.Add(append(frameMagic[:], 0xff, 0xff, 0xff, 0xff)) // absurd frame length

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		records, err := ReadFileLog(path)
		if err != nil {
			return // corrupt interior frames may fail, but not panic
		}
		// Salvaged records must be rewritable and re-readable.
		out, err := OpenFileLog(filepath.Join(t.TempDir(), "rewrite.wal"))
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range records {
			if err := out.Append(r); err != nil {
				t.Fatalf("rewrite append: %v", err)
			}
		}
		out.Close()
	})
}

// FuzzSalvage writes a known workload of frames, then mutates the
// file with a fuzz-chosen truncation and bit flip. Salvage must never
// panic, never return a record that was not written (every CRC-passing
// record is byte-authentic), and always return a prefix of the written
// sequence.
func FuzzSalvage(f *testing.F) {
	dir := f.TempDir()
	path := filepath.Join(dir, "base.wal")
	l, err := OpenFileLog(path)
	if err != nil {
		f.Fatal(err)
	}
	want := []Record{
		{Kind: KindInsert, Txn: 1, Key: keyspace.New("k1"), Version: 1, Value: "v1"},
		{Kind: KindPrepare, Txn: 1},
		{Kind: KindCommit, Txn: 1},
		{Kind: KindInsert, Txn: 2, Key: keyspace.New("k2"), Version: 2, Value: "v2"},
		{Kind: KindCommit, Txn: 2},
	}
	for _, r := range want {
		if err := l.Append(r); err != nil {
			f.Fatal(err)
		}
	}
	l.Close()
	base, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}

	f.Add(uint16(0), uint16(0), uint8(0))            // pristine
	f.Add(uint16(3), uint16(0), uint8(0))            // torn tail
	f.Add(uint16(0), uint16(20), uint8(1))           // early bit flip
	f.Add(uint16(1), uint16(len(base)/2), uint8(64)) // truncate + mid flip

	f.Fuzz(func(t *testing.T, cut uint16, flipAt uint16, flipMask uint8) {
		data := append([]byte(nil), base...)
		if int(cut) < len(data) {
			data = data[:len(data)-int(cut)]
		}
		if len(data) > 0 {
			data[int(flipAt)%len(data)] ^= flipMask
		}
		p := filepath.Join(t.TempDir(), "mut.wal")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		records, report, err := SalvageFileLog(p)
		if err != nil {
			t.Fatalf("salvage error: %v", err)
		}
		if len(records) > len(want) {
			t.Fatalf("salvaged %d records from a %d-record log", len(records), len(want))
		}
		for i, r := range records {
			w := want[i]
			if r.Kind != w.Kind || r.Txn != w.Txn || r.Version != w.Version ||
				r.Value != w.Value || r.Key.Raw() != w.Key.Raw() || r.LSN != uint64(i+1) {
				t.Fatalf("record %d = %+v, not a prefix of what was written (want %+v)", i, r, w)
			}
		}
		if report != nil {
			if report.Records != len(records) {
				t.Fatalf("report.Records = %d, got %d records", report.Records, len(records))
			}
			// After quarantine the log must read back clean.
			again, rep2, err := SalvageFileLog(p)
			if err != nil || rep2 != nil || len(again) != len(records) {
				t.Fatalf("post-quarantine rescan: %d records, report %+v, err %v", len(again), rep2, err)
			}
		}
	})
}

// FuzzAnalyze checks the log analysis never panics and keeps its
// invariants for arbitrary record streams.
func FuzzAnalyze(f *testing.F) {
	f.Add(uint8(1), uint64(1), uint8(4), uint64(1))
	f.Fuzz(func(t *testing.T, k1 uint8, t1 uint64, k2 uint8, t2 uint64) {
		records := []Record{
			{Kind: Kind(k1%6) + 0, Txn: t1},
			{Kind: Kind(k2%6) + 0, Txn: t2},
		}
		a, err := Analyze(records)
		if err != nil {
			return // unknown kinds fail cleanly
		}
		for txn := range a.InDoubt {
			if _, decided := a.Outcomes[txn]; decided {
				t.Fatalf("txn %d both in doubt and decided", txn)
			}
		}
	})
}
