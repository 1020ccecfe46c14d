package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repdir/internal/codec"
	"repdir/internal/keyspace"
)

// goldenRecords is one record of each Kind with the exact frame it
// must encode to.
var goldenRecords = []struct {
	rec  Record
	want []byte
}{
	{
		rec: Record{LSN: 1, Kind: KindInsert, Txn: 2, Key: keyspace.New("k"), Version: 3, Value: "v"},
		want: []byte{0xf7, 'W', 'A', '3', 0x00, 0x00, 0x00, 0x09, 0x92, 0x1e, 0x77, 0xec,
			0x01, 0x01, 0x02, 0x02, 0x01, 'k', 0x03, 0x01, 'v'},
	},
	{
		rec: Record{LSN: 2, Kind: KindCoalesce, Txn: 2, Key: keyspace.Low(), Hi: keyspace.New("z"), Version: 4},
		want: []byte{0xf7, 'W', 'A', '3', 0x00, 0x00, 0x00, 0x08, 0x08, 0x59, 0x73, 0x40,
			0x02, 0x02, 0x02, 0x01, 0x02, 0x01, 'z', 0x04},
	},
	{
		rec: Record{LSN: 3, Kind: KindPrepare, Txn: 2},
		want: []byte{0xf7, 'W', 'A', '3', 0x00, 0x00, 0x00, 0x03, 0xd3, 0x2d, 0xd1, 0x5a,
			0x03, 0x03, 0x02},
	},
	{
		rec: Record{LSN: 4, Kind: KindCommit, Txn: 2},
		want: []byte{0xf7, 'W', 'A', '3', 0x00, 0x00, 0x00, 0x03, 0xdd, 0xb0, 0x7c, 0x76,
			0x04, 0x04, 0x02},
	},
	{
		rec: Record{LSN: 300, Kind: KindAbort, Txn: 5},
		want: []byte{0xf7, 'W', 'A', '3', 0x00, 0x00, 0x00, 0x04, 0x17, 0x69, 0x52, 0xba,
			0x05, 0xac, 0x02, 0x05},
	},
	{
		rec: Record{LSN: 6, Kind: KindEpoch, Epoch: 7},
		want: []byte{0xf7, 'W', 'A', '3', 0x00, 0x00, 0x00, 0x04, 0xae, 0x68, 0x7b, 0x05,
			0x06, 0x06, 0x00, 0x07},
	},
}

// TestFrameGoldenVectors pins the record frame byte-for-byte, one frame
// per Kind. Logs outlive the binary that wrote them, so a failure here
// means "new frame magic", never "update the expected bytes".
func TestFrameGoldenVectors(t *testing.T) {
	for _, g := range goldenRecords {
		t.Run(g.rec.Kind.String(), func(t *testing.T) {
			got, err := appendFrame(nil, &g.rec)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, g.want) {
				t.Fatalf("encoding drifted:\n got  %#v\n want %#v", got, g.want)
			}
			back, err := decodeRecord(g.want[frameHeaderLen:])
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(back, g.rec) {
				t.Fatalf("decode = %+v, want %+v", back, g.rec)
			}
		})
	}
}

// TestRecordTruncatedPayloads feeds every proper prefix of every golden
// record payload, and each payload with a trailing byte, to the
// decoder: each must be an error wrapping codec.ErrCodec, never a
// panic and never a record.
func TestRecordTruncatedPayloads(t *testing.T) {
	for _, g := range goldenRecords {
		payload := g.want[frameHeaderLen:]
		for n := 0; n < len(payload); n++ {
			if rec, err := decodeRecord(payload[:n]); !errors.Is(err, codec.ErrCodec) {
				t.Fatalf("%s payload cut to %d/%d bytes = (%+v, %v), want a codec error",
					g.rec.Kind, n, len(payload), rec, err)
			}
		}
		if _, err := decodeRecord(append(append([]byte(nil), payload...), 0)); !errors.Is(err, codec.ErrCodec) {
			t.Fatalf("%s payload with a trailing byte = %v, want a codec error", g.rec.Kind, err)
		}
	}
}

// TestAppendRejectsUnknownKind: a record the frame layout has no
// encoding for must fail the append, not write a frame recovery cannot
// read back.
func TestAppendRejectsUnknownKind(t *testing.T) {
	path := filepath.Join(t.TempDir(), "kind.wal")
	l, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Record{Kind: Kind(99)}); err == nil {
		t.Fatal("append of an unknown kind succeeded")
	}
	if err := l.Append(Record{Kind: KindCommit, Txn: 1}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	records, err := ReadFileLog(path)
	if err != nil || len(records) != 1 || records[0].LSN != 1 {
		t.Fatalf("log after rejected append = %+v, %v", records, err)
	}
}

// TestBadMagicIsNotTorn: a frame header that does not open with the
// frame magic — damaged bytes, or a log in an older frame format — is
// reported as bad-magic corruption at its offset, not as a torn tail to
// be silently truncated.
func TestBadMagicIsNotTorn(t *testing.T) {
	dir := t.TempDir()
	path, _ := corpus(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	first := frameHeaderLen + int(binary.BigEndian.Uint32(data[4:8]))
	// The second frame's magic is damaged; the intact frames after it
	// must not turn the damage into a torn tail.
	damaged := append([]byte(nil), data...)
	damaged[first+2] ^= 0x01
	p := filepath.Join(dir, "magic.wal")
	if err := os.WriteFile(p, damaged, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFileLog(p); err == nil {
		t.Fatal("strict read accepted a frame without magic")
	}
	records, report, err := ScanFileLog(p)
	if err != nil {
		t.Fatal(err)
	}
	if report == nil || report.Cause != CauseBadMagic || report.Cause.Torn() {
		t.Fatalf("report = %+v, want non-torn bad-magic", report)
	}
	if len(records) != 1 || report.Offset != int64(first) {
		t.Fatalf("%d records, offset %d; want 1 record, offset %d", len(records), report.Offset, first)
	}
}

// corpus writes a small committed workload and returns its bytes.
func corpus(t *testing.T, dir string) (string, []Record) {
	t.Helper()
	path := filepath.Join(dir, "log.wal")
	l, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		{Kind: KindInsert, Txn: 1, Key: keyspace.New("a"), Version: 1, Value: "one"},
		{Kind: KindCommit, Txn: 1},
		{Kind: KindInsert, Txn: 2, Key: keyspace.New("b"), Version: 2, Value: "two"},
		{Kind: KindPrepare, Txn: 2},
		{Kind: KindCommit, Txn: 2},
		{Kind: KindInsert, Txn: 3, Key: keyspace.New("c"), Version: 3, Value: "three"},
	}
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return path, recs
}

// TestReadFileLogBoundsFrameLength: a corrupted length prefix must be
// rejected before allocation, not drive a multi-gigabyte make.
func TestReadFileLogBoundsFrameLength(t *testing.T) {
	path := filepath.Join(t.TempDir(), "huge.wal")
	// A header claiming ~4 GiB, then a few bytes.
	huge := append(frameMagic[:], 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 1, 2, 3)
	if err := os.WriteFile(path, huge, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFileLog(path); err == nil {
		t.Fatal("absurd length prefix should be an error")
	}
	records, report, err := SalvageFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 0 || report == nil || report.Cause != CauseBadLength {
		t.Fatalf("salvage = %d records, report %+v", len(records), report)
	}
}

// TestSalvageBitFlip flips one bit mid-log: ReadFileLog must error,
// SalvageFileLog must recover the prefix, quarantine the tail, and
// truncate the log so future appends land after the valid prefix.
func TestSalvageBitFlip(t *testing.T) {
	dir := t.TempDir()
	path, _ := corpus(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a bit inside the payload of an interior frame (walking the
	// frame headers to find it), so the CRC — not a length check — is what
	// catches it.
	var off, pos int
	for frame := 0; ; frame++ {
		payloadLen := int(binary.BigEndian.Uint32(data[off+4 : off+8]))
		if frame == 3 {
			pos = off + frameHeaderLen + payloadLen/2
			break
		}
		off += frameHeaderLen + payloadLen
	}
	data[pos] ^= 0x10
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := ReadFileLog(path); err == nil {
		t.Fatal("mid-log corruption must fail the strict reader")
	}

	records, report, err := SalvageFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if report == nil {
		t.Fatal("salvage of a corrupt log must produce a report")
	}
	if report.Cause != CauseBadCRC {
		t.Errorf("cause = %v, want bad-crc", report.Cause)
	}
	if report.Records != len(records) {
		t.Errorf("report.Records = %d, salvaged %d", report.Records, len(records))
	}
	if len(records) > 0 && report.LastLSN != records[len(records)-1].LSN {
		t.Errorf("report.LastLSN = %d", report.LastLSN)
	}
	// Quarantine: tail preserved byte-for-byte, log truncated to prefix.
	tail, err := os.ReadFile(report.SidecarPath)
	if err != nil {
		t.Fatalf("sidecar: %v", err)
	}
	if !bytes.Equal(tail, data[report.Offset:]) {
		t.Error("sidecar does not hold the corrupt tail")
	}
	if report.QuarantinedBytes != int64(len(tail)) {
		t.Errorf("QuarantinedBytes = %d, want %d", report.QuarantinedBytes, len(tail))
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() != report.Offset {
		t.Errorf("log size after salvage = %d, want %d", info.Size(), report.Offset)
	}
	// The salvaged log must now be clean, and appendable.
	again, rep2, err := SalvageFileLog(path)
	if err != nil || rep2 != nil {
		t.Fatalf("second salvage: %d records, report %+v, err %v", len(again), rep2, err)
	}
	l, err := OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	l.StartAt(report.LastLSN + 1)
	if err := l.Append(Record{Kind: KindCommit, Txn: 9}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	final, err := ReadFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(final) != len(records)+1 || final[len(final)-1].Txn != 9 {
		t.Fatalf("post-salvage append lost: %+v", final)
	}
}

// TestSalvageEveryTruncationPoint cuts the log at every byte boundary:
// salvage must always return a prefix of the written records, never an
// error, never a record that was not written.
func TestSalvageEveryTruncationPoint(t *testing.T) {
	dir := t.TempDir()
	path, want := corpus(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut <= len(data); cut++ {
		p := filepath.Join(dir, "cut.wal")
		if err := os.WriteFile(p, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		records, report, err := SalvageFileLog(p)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		for i, r := range records {
			if r.Kind != want[i].Kind || r.Txn != want[i].Txn || r.Value != want[i].Value {
				t.Fatalf("cut %d: record %d = %+v, want %+v", cut, i, r, want[i])
			}
		}
		if cut == len(data) {
			if report != nil {
				t.Fatalf("full log salvaged with report %+v", report)
			}
			if len(records) != len(want) {
				t.Fatalf("full log: %d records", len(records))
			}
		} else if report == nil && len(records) != len(want[:len(records)]) {
			t.Fatalf("cut %d: no report but %d records", cut, len(records))
		}
	}
}

// TestSalvageCleanLogUntouched: a healthy log must salvage with no
// report, no sidecar, no truncation.
func TestSalvageCleanLogUntouched(t *testing.T) {
	dir := t.TempDir()
	path, want := corpus(t, dir)
	before, _ := os.Stat(path)
	records, report, err := SalvageFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if report != nil {
		t.Fatalf("clean log produced report %+v", report)
	}
	if len(records) != len(want) {
		t.Fatalf("clean salvage: %d records, want %d", len(records), len(want))
	}
	after, _ := os.Stat(path)
	if before.Size() != after.Size() {
		t.Error("clean salvage changed the file")
	}
	if _, err := os.Stat(path + ".quarantine"); !os.IsNotExist(err) {
		t.Error("clean salvage wrote a sidecar")
	}
}

// TestCorruptionCauseString covers the names used in reports and logs.
func TestCorruptionCauseString(t *testing.T) {
	for c, want := range map[CorruptionCause]string{
		CauseNone:           "none",
		CauseTornHeader:     "torn-header",
		CauseTornPayload:    "torn-payload",
		CauseBadLength:      "bad-length",
		CauseBadCRC:         "bad-crc",
		CauseDecode:         "bad-payload",
		CauseBadMagic:       "bad-magic",
		CorruptionCause(42): "CorruptionCause(42)",
	} {
		if got := c.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(c), got, want)
		}
	}
	if !CauseTornHeader.Torn() || !CauseTornPayload.Torn() || CauseBadCRC.Torn() || CauseBadMagic.Torn() {
		t.Error("Torn misclassifies causes")
	}
}
