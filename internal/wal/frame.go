package wal

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"repdir/internal/codec"
	"repdir/internal/version"
)

// Frame format. Every frame carries a magic number, the payload
// length, and a CRC32C over header and payload, so recovery can tell a
// torn or bit-flipped frame from a valid one:
//
//	[0:4]  magic  F7 'W' 'A' '3'
//	[4:8]  payload length, big endian
//	[8:12] CRC32C over bytes [0:8] and the payload
//	[12:]  record payload (below)
//
// The payload is built from the internal/codec primitives:
//
//	kind(1) lsn(uvarint) txn(uvarint) fields...
//
// with per-kind fields
//
//	insert:   key version(uvarint) value(bytes)
//	coalesce: key hi(key) version(uvarint)
//	epoch:    epoch(uvarint)
//
// and none for prepare, commit, and abort. The layout is an on-disk
// contract pinned byte-for-byte by TestFrameGoldenVectors.
var frameMagic = [4]byte{0xF7, 'W', 'A', '3'}

const frameHeaderLen = 12

// MaxFrameLen bounds a single record frame (16 MiB). Directory records
// are tiny; anything near this limit in a length prefix is corruption,
// and validating before allocation keeps a flipped length byte from
// driving a multi-gigabyte make([]byte, n).
const MaxFrameLen = 16 << 20

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// appendFrame appends one record to b as a complete frame.
func appendFrame(b []byte, r *Record) ([]byte, error) {
	start := len(b)
	b = append(b, frameMagic[:]...)
	b = append(b, make([]byte, frameHeaderLen-len(frameMagic))...)
	b = append(b, byte(r.Kind))
	b = codec.AppendUvarint(b, r.LSN)
	b = codec.AppendUvarint(b, r.Txn)
	switch r.Kind {
	case KindInsert:
		b = codec.AppendKey(b, r.Key)
		b = codec.AppendUvarint(b, uint64(r.Version))
		b = codec.AppendBytes(b, r.Value)
	case KindCoalesce:
		b = codec.AppendKey(b, r.Key)
		b = codec.AppendKey(b, r.Hi)
		b = codec.AppendUvarint(b, uint64(r.Version))
	case KindEpoch:
		b = codec.AppendUvarint(b, r.Epoch)
	case KindPrepare, KindCommit, KindAbort:
		// No fields beyond the common header.
	default:
		return b[:start], fmt.Errorf("wal: encode: unknown record kind %d", r.Kind)
	}
	frame := b[start:]
	payload := frame[frameHeaderLen:]
	if len(payload) > MaxFrameLen {
		return b[:start], fmt.Errorf("wal: encode: %d-byte record exceeds MaxFrameLen", len(payload))
	}
	binary.BigEndian.PutUint32(frame[4:8], uint32(len(payload)))
	crc := crc32.Update(0, crcTable, frame[:8])
	crc = crc32.Update(crc, crcTable, payload)
	binary.BigEndian.PutUint32(frame[8:12], crc)
	return b, nil
}

// decodeRecord decodes one frame payload. The whole payload must be
// consumed: trailing bytes are as much a corruption as missing ones.
func decodeRecord(payload []byte) (Record, error) {
	r := codec.NewReader(payload)
	kind, err := r.ReadByte()
	if err != nil {
		return Record{}, err
	}
	rec := Record{Kind: Kind(kind)}
	if rec.LSN, err = r.ReadUvarint(); err != nil {
		return Record{}, err
	}
	if rec.Txn, err = r.ReadUvarint(); err != nil {
		return Record{}, err
	}
	var v uint64
	switch rec.Kind {
	case KindInsert:
		if rec.Key, err = r.ReadKey(); err != nil {
			return Record{}, err
		}
		if v, err = r.ReadUvarint(); err != nil {
			return Record{}, err
		}
		rec.Version = version.V(v)
		if rec.Value, err = r.ReadString(); err != nil {
			return Record{}, err
		}
	case KindCoalesce:
		if rec.Key, err = r.ReadKey(); err != nil {
			return Record{}, err
		}
		if rec.Hi, err = r.ReadKey(); err != nil {
			return Record{}, err
		}
		if v, err = r.ReadUvarint(); err != nil {
			return Record{}, err
		}
		rec.Version = version.V(v)
	case KindEpoch:
		if rec.Epoch, err = r.ReadUvarint(); err != nil {
			return Record{}, err
		}
	case KindPrepare, KindCommit, KindAbort:
		// No fields.
	default:
		return Record{}, fmt.Errorf("%w: unknown record kind %d", codec.ErrCodec, kind)
	}
	if r.Remaining() != 0 {
		return Record{}, fmt.Errorf("%w: %d trailing bytes", codec.ErrCodec, r.Remaining())
	}
	return rec, nil
}

// CorruptionCause classifies why a log scan stopped before a clean EOF.
type CorruptionCause int

const (
	// CauseNone: the scan reached a clean end of file.
	CauseNone CorruptionCause = iota
	// CauseTornHeader: the file ends inside a frame header — the
	// ordinary signature of a crash mid-append.
	CauseTornHeader
	// CauseTornPayload: a plausible header, but the file ends before the
	// payload does — also a torn append.
	CauseTornPayload
	// CauseBadLength: a length prefix over MaxFrameLen; the header bytes
	// themselves are damaged.
	CauseBadLength
	// CauseBadCRC: a frame whose checksum does not cover its bytes.
	CauseBadCRC
	// CauseDecode: the payload passed its length and CRC checks but
	// does not decode as a record.
	CauseDecode
	// CauseBadMagic: a frame header that does not open with the frame
	// magic — damaged bytes, or a log in a format this build does not
	// read.
	CauseBadMagic
)

// String names the cause.
func (c CorruptionCause) String() string {
	switch c {
	case CauseNone:
		return "none"
	case CauseTornHeader:
		return "torn-header"
	case CauseTornPayload:
		return "torn-payload"
	case CauseBadLength:
		return "bad-length"
	case CauseBadCRC:
		return "bad-crc"
	case CauseDecode:
		return "bad-payload"
	case CauseBadMagic:
		return "bad-magic"
	default:
		return fmt.Sprintf("CorruptionCause(%d)", int(c))
	}
}

// Torn reports whether the cause is an ordinary torn tail (a crash
// mid-append) rather than damage to bytes the log had already written.
func (c CorruptionCause) Torn() bool {
	return c == CauseTornHeader || c == CauseTornPayload
}

// CorruptionReport describes where and why a salvage scan stopped, and
// what it did with the unreadable tail.
type CorruptionReport struct {
	// Path is the log file scanned.
	Path string
	// Cause is why the scan stopped.
	Cause CorruptionCause
	// Offset is the byte offset where the valid prefix ends — the start
	// of the first unreadable frame.
	Offset int64
	// Records is the number of valid records recovered before the stop.
	Records int
	// LastLSN is the LSN of the last valid record (zero when none).
	LastLSN uint64
	// QuarantinedBytes is the size of the tail moved to SidecarPath
	// (zero when the scan did not quarantine).
	QuarantinedBytes int64
	// SidecarPath is where the unreadable tail was preserved.
	SidecarPath string
}

// Error renders the report as a recovery error for strict readers.
func (r *CorruptionReport) Error() string {
	return fmt.Sprintf("wal: %s at offset %d of %q (%d valid records before it)",
		r.Cause, r.Offset, r.Path, r.Records)
}

// scanFrames reads every decodable record from r, which holds size
// bytes. It never fails: the report says whether the scan ended at a
// clean EOF (CauseNone) or why it stopped early.
func scanFrames(path string, r io.Reader, size int64) ([]Record, CorruptionReport) {
	br := bufio.NewReader(r)
	var (
		out     []Record
		off     int64
		payload []byte // reused: decodeRecord copies what it keeps
	)
	report := func(cause CorruptionCause) CorruptionReport {
		rep := CorruptionReport{Path: path, Cause: cause, Offset: off, Records: len(out)}
		if len(out) > 0 {
			rep.LastLSN = out[len(out)-1].LSN
		}
		return rep
	}
	for {
		remaining := size - off
		if remaining == 0 {
			return out, report(CauseNone)
		}
		var head [frameHeaderLen]byte
		if remaining < frameHeaderLen {
			return out, report(CauseTornHeader)
		}
		if _, err := io.ReadFull(br, head[:]); err != nil {
			return out, report(CauseTornHeader)
		}
		if !bytes.Equal(head[:4], frameMagic[:]) {
			return out, report(CauseBadMagic)
		}
		payloadLen := binary.BigEndian.Uint32(head[4:8])
		if payloadLen > MaxFrameLen {
			return out, report(CauseBadLength)
		}
		if int64(payloadLen) > remaining-frameHeaderLen {
			return out, report(CauseTornPayload)
		}
		if cap(payload) < int(payloadLen) {
			payload = make([]byte, payloadLen)
		}
		payload = payload[:payloadLen]
		if _, err := io.ReadFull(br, payload); err != nil {
			return out, report(CauseTornPayload)
		}
		crc := crc32.Update(0, crcTable, head[:8])
		crc = crc32.Update(crc, crcTable, payload)
		if crc != binary.BigEndian.Uint32(head[8:12]) {
			return out, report(CauseBadCRC)
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			return out, report(CauseDecode)
		}
		out = append(out, rec)
		off += frameHeaderLen + int64(payloadLen)
	}
}

// scanFile opens and scans one log file.
func scanFile(path string) ([]Record, CorruptionReport, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, CorruptionReport{}, fmt.Errorf("wal: open %q: %w", path, err)
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, CorruptionReport{}, fmt.Errorf("wal: stat %q: %w", path, err)
	}
	records, report := scanFrames(path, f, info.Size())
	return records, report, nil
}

// SalvageFileLog recovers the longest valid prefix of a log file. When
// the scan stops before a clean EOF — a torn append or mid-log
// corruption — the unreadable tail is moved to a sidecar file
// (path + ".quarantine"), the log is truncated to the valid prefix, and
// the returned report says what happened; a nil report means the log
// was clean. Unlike ReadFileLog, mid-log corruption is not an error:
// the caller gets everything before it plus the evidence.
//
// Truncating matters beyond hygiene: the log is appended to in place,
// so leaving damaged bytes in the middle would strand every later
// append behind them on the next recovery.
func SalvageFileLog(path string) ([]Record, *CorruptionReport, error) {
	records, report, err := ScanFileLog(path)
	if err != nil || report == nil {
		return records, report, err
	}
	if err := Quarantine(path, report); err != nil {
		return records, report, err
	}
	return records, report, nil
}

// ScanFileLog recovers the longest valid prefix of a log file without
// modifying the file. A nil report means the log was clean; otherwise
// the report says why the scan stopped, and the caller decides whether
// to repair (Quarantine), refuse, or discard — the split exists so a
// strict recovery policy can refuse to open a damaged log without
// having already truncated it.
func ScanFileLog(path string) ([]Record, *CorruptionReport, error) {
	records, report, err := scanFile(path)
	if err != nil {
		return nil, nil, err
	}
	if report.Cause == CauseNone {
		return records, nil, nil
	}
	return records, &report, nil
}

// Quarantine performs the repair half of SalvageFileLog on a report
// returned by ScanFileLog: the unreadable tail moves to the
// ".quarantine" sidecar and the log is truncated to its valid prefix,
// with the report's QuarantinedBytes and SidecarPath filled in.
func Quarantine(path string, report *CorruptionReport) error {
	return quarantineTail(path, report)
}

// quarantineTail preserves everything from report.Offset on in a
// sidecar file and truncates the log to the valid prefix, fsyncing both
// files and the directory so the surgery itself survives a crash.
func quarantineTail(path string, report *CorruptionReport) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return fmt.Errorf("wal: quarantine open %q: %w", path, err)
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return fmt.Errorf("wal: quarantine stat %q: %w", path, err)
	}
	tailLen := info.Size() - report.Offset
	if tailLen <= 0 {
		return nil
	}
	tail := make([]byte, tailLen)
	if _, err := f.ReadAt(tail, report.Offset); err != nil {
		return fmt.Errorf("wal: quarantine read %q: %w", path, err)
	}
	sidecar := path + ".quarantine"
	if err := writeFileSync(sidecar, tail); err != nil {
		return err
	}
	if err := f.Truncate(report.Offset); err != nil {
		return fmt.Errorf("wal: quarantine truncate %q: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("wal: quarantine sync %q: %w", path, err)
	}
	if err := SyncDir(filepath.Dir(path)); err != nil {
		return err
	}
	report.QuarantinedBytes = tailLen
	report.SidecarPath = sidecar
	return nil
}

// writeFileSync writes data to path and fsyncs it.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create %q: %w", path, err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("wal: write %q: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: sync %q: %w", path, err)
	}
	return f.Close()
}

// SyncDir fsyncs a directory, making renames and truncations in it
// durable on journaled filesystems.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: open dir %q: %w", dir, err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("wal: sync dir %q: %w", dir, err)
	}
	return nil
}
