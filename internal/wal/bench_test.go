package wal

import (
	"path/filepath"
	"testing"

	"repdir/internal/keyspace"
)

// BenchmarkMemoryLogAppend measures the in-memory log.
func BenchmarkMemoryLogAppend(b *testing.B) {
	var l MemoryLog
	r := Record{Kind: KindInsert, Txn: 1, Key: keyspace.New("key"), Value: "value"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := l.Append(r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFileLogAppend measures framed, flushed file appends.
func BenchmarkFileLogAppend(b *testing.B) {
	l, err := OpenFileLog(filepath.Join(b.TempDir(), "bench.wal"))
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	r := Record{Kind: KindInsert, Txn: 1, Key: keyspace.New("key"), Value: "value"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := l.Append(r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplay measures recovery over a committed-transaction log.
func BenchmarkReplay(b *testing.B) {
	var records []Record
	for txn := uint64(1); txn <= 1000; txn++ {
		records = append(records,
			Record{Kind: KindInsert, Txn: txn, Key: keyspace.FromUint64(txn)},
			Record{Kind: KindCommit, Txn: txn},
		)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		if err := Replay(records, func(Record) error { n++; return nil }); err != nil {
			b.Fatal(err)
		}
		if n != 1000 {
			b.Fatal("replay miscounted")
		}
	}
}

// BenchmarkReadFileLog measures the recovery decode path: one op reads
// and decodes a 1000-record log (500 insert/commit pairs) from disk.
func BenchmarkReadFileLog(b *testing.B) {
	path := filepath.Join(b.TempDir(), "bench.wal")
	l, err := OpenFileLog(path)
	if err != nil {
		b.Fatal(err)
	}
	l.SetSyncPolicy(SyncNever)
	const txns = 500
	for txn := uint64(1); txn <= txns; txn++ {
		if err := l.Append(Record{Kind: KindInsert, Txn: txn, Key: keyspace.FromUint64(txn), Version: 1, Value: "value"}); err != nil {
			b.Fatal(err)
		}
		if err := l.Append(Record{Kind: KindCommit, Txn: txn}); err != nil {
			b.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		records, err := ReadFileLog(path)
		if err != nil {
			b.Fatal(err)
		}
		if len(records) != 2*txns {
			b.Fatalf("read %d records, want %d", len(records), 2*txns)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*2*txns), "ns/record")
}
