package rep

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repdir/internal/btree"
	"repdir/internal/codec"
	"repdir/internal/keyspace"
)

// goldenSnapshotEntries and goldenSnapshotFile are a small snapshot
// and the exact file it must encode to: name "r", last LSN 5, epoch 2, and the entries LOW, "a", HIGH.
var (
	goldenSnapshotEntries = []btree.Entry{
		{Key: keyspace.Low(), GapAfter: 1},
		{Key: keyspace.New("a"), Version: 3, Value: "x", GapAfter: 1},
		{Key: keyspace.High()},
	}
	goldenSnapshotFile = []byte{
		0xf7, 'S', 'N', '3', 0x00, 0x00, 0x00, 0x14, 0x68, 0x43, 0xc4, 0xd3,
		0x01, 'r', // name
		0x05,                   // last LSN
		0x02,                   // epoch
		0x03,                   // entry count
		0x01, 0x00, 0x00, 0x01, // LOW, version 0, "", gap 1
		0x02, 0x01, 'a', 0x03, 0x01, 'x', 0x01, // "a", version 3, "x", gap 1
		0x03, 0x00, 0x00, 0x00, // HIGH, version 0, "", gap 0
	}
)

// TestSnapshotGoldenVector pins the snapshot file byte-for-byte.
// Snapshots outlive the binary that wrote them, so a failure here means
// "new snapshot magic", never "update the expected bytes".
func TestSnapshotGoldenVector(t *testing.T) {
	got := encodeSnapshot("r", 5, goldenSnapshotEntries, 2)
	if !bytes.Equal(got, goldenSnapshotFile) {
		t.Fatalf("encoding drifted:\n got  %#v\n want %#v", got, goldenSnapshotFile)
	}
	path := filepath.Join(t.TempDir(), "golden.snap")
	if err := os.WriteFile(path, goldenSnapshotFile, 0o644); err != nil {
		t.Fatal(err)
	}
	name, lsn, entries, epoch, ok, err := ReadSnapshot(path)
	if err != nil || !ok {
		t.Fatalf("ReadSnapshot = ok %v, err %v", ok, err)
	}
	if name != "r" || lsn != 5 || epoch != 2 || !reflect.DeepEqual(entries, goldenSnapshotEntries) {
		t.Fatalf("decoded (%q, %d, %+v, %d)", name, lsn, entries, epoch)
	}
}

// TestSnapshotTruncatedPayloads feeds every proper prefix of the golden
// payload, and the payload with a trailing byte, to the decoder: each
// must be an error wrapping codec.ErrCodec, never a panic.
func TestSnapshotTruncatedPayloads(t *testing.T) {
	payload := goldenSnapshotFile[snapHeaderLen:]
	for n := 0; n < len(payload); n++ {
		if _, _, _, _, err := decodeSnapshotPayload(payload[:n]); !errors.Is(err, codec.ErrCodec) {
			t.Fatalf("payload cut to %d/%d bytes = %v, want a codec error", n, len(payload), err)
		}
	}
	if _, _, _, _, err := decodeSnapshotPayload(append(append([]byte(nil), payload...), 0)); !errors.Is(err, codec.ErrCodec) {
		t.Fatalf("payload with a trailing byte = %v, want a codec error", err)
	}
}

// TestSnapshotEntryCountBounded: an entry count the payload cannot hold
// is refused before anything is allocated for it.
func TestSnapshotEntryCountBounded(t *testing.T) {
	payload := codec.AppendBytes(nil, "r")
	payload = codec.AppendUvarint(payload, 0)         // last LSN
	payload = codec.AppendUvarint(payload, 0)         // epoch
	payload = codec.AppendUvarint(payload, 1<<40)     // entry count
	payload = append(payload, 0x01, 0x00, 0x00, 0x00) // one LOW entry
	if _, _, _, _, err := decodeSnapshotPayload(payload); !errors.Is(err, codec.ErrCodec) {
		t.Fatalf("absurd entry count = %v, want a codec error", err)
	}
}

// TestSnapshotWithoutMagicIsCorrupt: a snapshot file that does not open
// with the snapshot magic (damage, or an older format) is corrupt, and
// OpenDurable recovers from the WAL alone when the WAL still covers all
// of history.
func TestSnapshotWithoutMagicIsCorrupt(t *testing.T) {
	walPath, snapPath := durablePaths(t)
	r, d, err := OpenDurable("nomagic", walPath, snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Insert(ctx, 1, keyspace.New("k"), 1, "v"); err != nil {
		t.Fatal(err)
	}
	if err := r.Commit(ctx, 1); err != nil {
		t.Fatal(err)
	}
	d.Close()
	bad := append([]byte(nil), goldenSnapshotFile...)
	bad[3] = '2'
	if err := os.WriteFile(snapPath, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, _, _, err := ReadSnapshot(snapPath); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("ReadSnapshot = %v, want ErrSnapshotCorrupt", err)
	}
	r2, d2, err := OpenDurable("nomagic", walPath, snapPath)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if rec := d2.Recovery(); !rec.SnapshotCorrupt || rec.SnapshotLoaded {
		t.Errorf("recovery report = %+v, want a corrupt, unloaded snapshot", rec)
	}
	if res, err := r2.Lookup(ctx, 2, keyspace.New("k")); err != nil || !res.Found {
		t.Errorf("WAL-only recovery lost k: %+v, %v", res, err)
	}
	r2.Abort(ctx, 2)
}
