package rep

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"repdir/internal/btree"
	"repdir/internal/codec"
	"repdir/internal/obs"
	"repdir/internal/version"
	"repdir/internal/wal"
)

// ErrBusy is returned by Checkpoint when transactions are in flight; the
// caller should retry once the representative quiesces.
var ErrBusy = errors.New("rep: transactions in flight")

// ErrSnapshotCorrupt is wrapped by ReadSnapshot when a snapshot file
// exists but is truncated or fails its checksum. OpenDurable treats it
// as recoverable whenever the write-ahead log alone can rebuild state.
var ErrSnapshotCorrupt = errors.New("rep: snapshot corrupt")

// Snapshot file format: a 12-byte header — magic, payload length,
// CRC32C over header and payload — then the payload, built from the
// internal/codec primitives:
//
//	[0:4]  magic  F7 'S' 'N' '3'
//	[4:8]  payload length, big endian
//	[8:12] CRC32C over bytes [0:8] and the payload
//	[12:]  name(bytes) lastLSN(uvarint) epoch(uvarint) count(uvarint)
//	       count × (key version(uvarint) value(bytes) gapAfter(uvarint))
//
// The entries are the full dump, sentinels and gap versions included;
// lastLSN is the last write-ahead-log record the snapshot covers, and
// epoch is the configuration-epoch fence at checkpoint time (log
// truncation would otherwise discard the KindEpoch records that made
// the fence durable). TestSnapshotGoldenVector pins the layout.
var snapMagic = [4]byte{0xF7, 'S', 'N', '3'}

const snapHeaderLen = 12

// snapEntryMinLen is the smallest encoded entry (LOW key, one-byte
// version, empty value, one-byte gap version); it bounds the entry
// count a payload of a given size can claim.
const snapEntryMinLen = 4

var snapCRC = crc32.MakeTable(crc32.Castagnoli)

// encodeSnapshot renders a complete snapshot file.
func encodeSnapshot(name string, lastLSN uint64, entries []btree.Entry, epoch uint64) []byte {
	b := make([]byte, snapHeaderLen, snapHeaderLen+64+32*len(entries))
	copy(b, snapMagic[:])
	b = codec.AppendBytes(b, name)
	b = codec.AppendUvarint(b, lastLSN)
	b = codec.AppendUvarint(b, epoch)
	b = codec.AppendUvarint(b, uint64(len(entries)))
	for i := range entries {
		e := &entries[i]
		b = codec.AppendKey(b, e.Key)
		b = codec.AppendUvarint(b, uint64(e.Version))
		b = codec.AppendBytes(b, e.Value)
		b = codec.AppendUvarint(b, uint64(e.GapAfter))
	}
	binary.BigEndian.PutUint32(b[4:8], uint32(len(b)-snapHeaderLen))
	crc := crc32.Update(0, snapCRC, b[:8])
	crc = crc32.Update(crc, snapCRC, b[snapHeaderLen:])
	binary.BigEndian.PutUint32(b[8:12], crc)
	return b
}

// decodeSnapshotPayload decodes the bytes after the header. The whole
// payload must be consumed.
func decodeSnapshotPayload(payload []byte) (name string, lastLSN uint64, entries []btree.Entry, epoch uint64, err error) {
	r := codec.NewReader(payload)
	if name, err = r.ReadString(); err != nil {
		return "", 0, nil, 0, err
	}
	if lastLSN, err = r.ReadUvarint(); err != nil {
		return "", 0, nil, 0, err
	}
	if epoch, err = r.ReadUvarint(); err != nil {
		return "", 0, nil, 0, err
	}
	n, err := r.ReadCount(snapEntryMinLen)
	if err != nil {
		return "", 0, nil, 0, err
	}
	if n > 0 {
		entries = make([]btree.Entry, n)
	}
	for i := range entries {
		e := &entries[i]
		if e.Key, err = r.ReadKey(); err != nil {
			return "", 0, nil, 0, err
		}
		var v uint64
		if v, err = r.ReadUvarint(); err != nil {
			return "", 0, nil, 0, err
		}
		e.Version = version.V(v)
		if e.Value, err = r.ReadString(); err != nil {
			return "", 0, nil, 0, err
		}
		if v, err = r.ReadUvarint(); err != nil {
			return "", 0, nil, 0, err
		}
		e.GapAfter = version.V(v)
	}
	if r.Remaining() != 0 {
		return "", 0, nil, 0, fmt.Errorf("%w: %d trailing bytes", codec.ErrCodec, r.Remaining())
	}
	return name, lastLSN, entries, epoch, nil
}

// WriteSnapshot atomically writes a checksummed snapshot file: temp
// file, fsync, rename, then fsync of the parent directory so the
// rename itself survives power loss on journaled filesystems.
func WriteSnapshot(path, name string, lastLSN uint64, entries []btree.Entry, epoch uint64) error {
	data := encodeSnapshot(name, lastLSN, entries, epoch)
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".snap-*")
	if err != nil {
		return fmt.Errorf("rep: snapshot temp: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("rep: snapshot write: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("rep: snapshot sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("rep: snapshot close: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("rep: snapshot rename: %w", err)
	}
	return wal.SyncDir(dir)
}

// ReadSnapshot loads a snapshot file, verifying its magic and checksum.
// A missing file is not an error; it returns ok = false. A file that
// exists but is truncated or damaged returns an error wrapping
// ErrSnapshotCorrupt, which OpenDurable downgrades to a WAL-only
// recovery when possible.
func ReadSnapshot(path string) (name string, lastLSN uint64, entries []btree.Entry, epoch uint64, ok bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return "", 0, nil, 0, false, nil
		}
		return "", 0, nil, 0, false, fmt.Errorf("rep: open snapshot %q: %w", path, err)
	}
	if len(data) < snapHeaderLen {
		return "", 0, nil, 0, false, fmt.Errorf("%w: %q: truncated header (%d bytes)", ErrSnapshotCorrupt, path, len(data))
	}
	if !bytes.Equal(data[:4], snapMagic[:]) {
		return "", 0, nil, 0, false, fmt.Errorf("%w: %q: bad magic % x", ErrSnapshotCorrupt, path, data[:4])
	}
	n := binary.BigEndian.Uint32(data[4:8])
	if int64(n) != int64(len(data)-snapHeaderLen) {
		return "", 0, nil, 0, false, fmt.Errorf("%w: %q: header claims %d payload bytes, file holds %d",
			ErrSnapshotCorrupt, path, n, len(data)-snapHeaderLen)
	}
	crc := crc32.Update(0, snapCRC, data[:8])
	crc = crc32.Update(crc, snapCRC, data[snapHeaderLen:])
	if crc != binary.BigEndian.Uint32(data[8:12]) {
		return "", 0, nil, 0, false, fmt.Errorf("%w: %q: checksum mismatch", ErrSnapshotCorrupt, path)
	}
	name, lastLSN, entries, epoch, err = decodeSnapshotPayload(data[snapHeaderLen:])
	if err != nil {
		return "", 0, nil, 0, false, fmt.Errorf("%w: %q: %v", ErrSnapshotCorrupt, path, err)
	}
	return name, lastLSN, entries, epoch, true, nil
}

// seedStore replaces the representative's store with snapshot entries.
// Used only during recovery, before the representative is shared.
func (r *Rep) seedStore(entries []btree.Entry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	store := btree.New()
	for _, e := range entries {
		store.Put(e)
	}
	r.store = store
}

// checkpointState atomically captures the entry dump and the last
// log LSN while no transactions are in flight. Holding r.mu for both
// excludes concurrent commits, so the pair is consistent: every record
// at or below the returned LSN is reflected in the entries.
func (r *Rep) checkpointState() ([]btree.Entry, uint64, uint64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.txns) != 0 {
		return nil, 0, 0, fmt.Errorf("%w: %d active", ErrBusy, len(r.txns))
	}
	var lastLSN uint64
	if r.log != nil {
		lastLSN = r.log.NextLSN() - 1
	}
	return r.store.Entries(), lastLSN, r.fence, nil
}

// RecoveryPolicy selects how OpenDurable responds to storage damage
// beyond an ordinary torn tail (which every policy quarantines and
// rides through, since a crash mid-append is normal operation).
type RecoveryPolicy int

const (
	// RecoverStrict (the default) refuses to open over mid-log
	// corruption or an unrecoverable snapshot: acknowledged writes may
	// be missing, and an operator must choose to degrade.
	RecoverStrict RecoveryPolicy = iota
	// RecoverSalvage opens with the longest valid log prefix,
	// quarantining the damaged tail and flagging NeedsRepair so an
	// anti-entropy pass can re-fetch what was lost.
	RecoverSalvage
	// RecoverRebuild goes further: when salvage cannot produce usable
	// state, the damaged files are archived and the replica opens
	// empty, in recovering mode (reads bounce with ErrRecovering),
	// expecting a rebuild from a quorum of peers.
	RecoverRebuild
)

// String names the policy as accepted by ParseRecoveryPolicy.
func (p RecoveryPolicy) String() string {
	switch p {
	case RecoverStrict:
		return "strict"
	case RecoverSalvage:
		return "salvage"
	case RecoverRebuild:
		return "rebuild"
	default:
		return fmt.Sprintf("RecoveryPolicy(%d)", int(p))
	}
}

// ParseRecoveryPolicy parses a policy name (for command-line flags).
func ParseRecoveryPolicy(s string) (RecoveryPolicy, error) {
	switch strings.ToLower(s) {
	case "strict":
		return RecoverStrict, nil
	case "salvage":
		return RecoverSalvage, nil
	case "rebuild":
		return RecoverRebuild, nil
	default:
		return RecoverStrict, fmt.Errorf("rep: unknown recovery policy %q (want strict, salvage, or rebuild)", s)
	}
}

// RecoveryReport describes what OpenDurable found and did.
type RecoveryReport struct {
	// Policy is the recovery policy that governed the open.
	Policy RecoveryPolicy
	// SnapshotLoaded is true when a snapshot seeded the store.
	SnapshotLoaded bool
	// SnapshotCorrupt is true when a snapshot existed but failed its
	// checksum or decode and was abandoned.
	SnapshotCorrupt bool
	// Salvage carries the WAL corruption report when the log scan
	// stopped before a clean EOF (torn tail or worse); nil otherwise.
	Salvage *wal.CorruptionReport
	// WALRecords is the number of log records recovered.
	WALRecords int
	// Rebuilt is true when the replica opened empty, its damaged files
	// archived, awaiting a rebuild from peers.
	Rebuilt bool
	// NeedsRepair is true when acknowledged writes may be missing: the
	// replica should be reconciled against its peers before it is
	// trusted. Always true when Rebuilt.
	NeedsRepair bool
	// Warnings are human-readable notes about degraded recovery steps.
	Warnings []string
}

// DurableOption configures OpenDurable.
type DurableOption func(*durableConfig)

type durableConfig struct {
	policy   wal.SyncPolicy
	recovery RecoveryPolicy
	obs      *obs.Observer
	repOpts  []Option
}

// WithSyncPolicy selects when the write-ahead log fsyncs (default
// wal.SyncOnCommit: prepare and commit records are forced to disk, so
// committed transactions survive machine crashes). Simulations and
// benchmarks can pass wal.SyncNever to trade durability for speed.
func WithSyncPolicy(p wal.SyncPolicy) DurableOption {
	return func(c *durableConfig) { c.policy = p }
}

// WithRecovery selects the recovery policy (default RecoverStrict).
func WithRecovery(p RecoveryPolicy) DurableOption {
	return func(c *durableConfig) { c.recovery = p }
}

// WithDurableObserver wires recovery events (salvages, quarantined
// bytes, snapshot fallbacks, rebuilds) into an observer's storage
// counters. A nil observer is fine.
func WithDurableObserver(o *obs.Observer) DurableOption {
	return func(c *durableConfig) { c.obs = o }
}

// WithRepOptions forwards representative options (e.g. AsWitness) to
// the Rep that OpenDurable constructs after recovery. A durable witness
// logs blanked values, so its WAL carries versions alone.
func WithRepOptions(opts ...Option) DurableOption {
	return func(c *durableConfig) { c.repOpts = append(c.repOpts, opts...) }
}

// OpenDurable opens (or creates) a durable representative: snapshot
// loaded if present, write-ahead log replayed on top, log reopened for
// appending with monotone LSNs.
//
// Storage damage is handled per the recovery policy. A torn log tail —
// the ordinary signature of a crash mid-append — is quarantined and
// truncated under every policy. Mid-log corruption, a corrupt
// snapshot the WAL cannot cover for, or a damaged length prefix are
// errors under RecoverStrict, a degraded-but-open state under
// RecoverSalvage, and under RecoverRebuild cause the replica to
// archive the damaged files and open empty in recovering mode (reads
// return ErrRecovering) so a rebuild from peers can repopulate it.
// The Recovery method of the returned Durability reports what
// happened.
func OpenDurable(name, walPath, snapPath string, opts ...DurableOption) (*Rep, *Durability, error) {
	var cfg durableConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	report := RecoveryReport{Policy: cfg.recovery}

	var (
		seed      []btree.Entry
		lastLSN   uint64
		snapEpoch uint64
	)
	if snapPath != "" {
		snapName, lsn, entries, epoch, ok, err := ReadSnapshot(snapPath)
		switch {
		case err == nil && ok:
			if snapName != name {
				return nil, nil, fmt.Errorf("rep: snapshot %q belongs to %q, not %q", snapPath, snapName, name)
			}
			seed, lastLSN, snapEpoch = entries, lsn, epoch
			report.SnapshotLoaded = true
		case err == nil:
			// No snapshot; WAL-only recovery is the normal fresh path.
		case errors.Is(err, ErrSnapshotCorrupt):
			report.SnapshotCorrupt = true
			report.Warnings = append(report.Warnings,
				fmt.Sprintf("snapshot abandoned: %v", err))
			cfg.obs.SnapshotFallback()
		default:
			return nil, nil, err
		}
	}

	records, salvage, err := wal.ScanFileLog(walPath)
	if err != nil {
		if !errors.Is(err, os.ErrNotExist) {
			return nil, nil, err
		}
		records, salvage = nil, nil
	}
	rebuild := false
	if salvage != nil {
		report.Salvage = salvage
		quarantine := salvage.Cause.Torn()
		if !salvage.Cause.Torn() {
			// Bytes the log had acknowledged are unreadable; what
			// follows them is lost even if intact.
			switch cfg.recovery {
			case RecoverSalvage:
				quarantine = true
				report.NeedsRepair = true
			case RecoverRebuild:
				rebuild = true // archiveCorrupt moves the log whole
			default:
				// Refuse with the file untouched: strict means only an
				// operator's explicit policy choice may discard
				// acknowledged bytes, so the refusal must leave the
				// damage in place for the salvage open to act on.
				return nil, nil, fmt.Errorf("rep: open %s: %w", name, salvage)
			}
		}
		if quarantine {
			if err := wal.Quarantine(walPath, salvage); err != nil {
				return nil, nil, err
			}
			cfg.obs.SalvageObserved(salvage.Records, salvage.QuarantinedBytes)
			if report.NeedsRepair {
				report.Warnings = append(report.Warnings,
					fmt.Sprintf("log salvaged: %v; acknowledged writes may be missing", salvage))
			}
		}
	}

	if report.SnapshotCorrupt {
		// WAL-only recovery covers for the snapshot only if the log
		// still reaches back to the beginning of history — a checkpoint
		// truncation would have moved records only the snapshot held.
		if len(records) > 0 && records[0].LSN == 1 {
			report.Warnings = append(report.Warnings, "recovering from WAL alone")
		} else if cfg.recovery == RecoverRebuild {
			rebuild = true
		} else {
			return nil, nil, fmt.Errorf("rep: open %s: snapshot corrupt and WAL does not cover it (policy %s)",
				name, cfg.recovery)
		}
	}

	if rebuild {
		if err := archiveCorrupt(walPath, snapPath); err != nil {
			return nil, nil, err
		}
		seed, lastLSN, snapEpoch, records = nil, 0, 0, nil
		report.SnapshotLoaded = false
		report.Rebuilt = true
		report.NeedsRepair = true
		report.Warnings = append(report.Warnings, "local state unusable; opening empty for rebuild from peers")
		cfg.obs.RebuildStarted()
	}
	report.WALRecords = len(records)

	maxLSN := lastLSN
	for _, rec := range records {
		if rec.LSN > maxLSN {
			maxLSN = rec.LSN
		}
	}
	log, err := wal.OpenFileLog(walPath)
	if err != nil {
		return nil, nil, err
	}
	log.SetSyncPolicy(cfg.policy)
	log.StartAt(maxLSN + 1)

	r := New(name, append(cfg.repOpts, WithLog(log))...)
	if seed != nil {
		r.seedStore(seed)
	}
	a, err := wal.Analyze(wal.FilterAfter(records, lastLSN))
	if err != nil {
		log.Close()
		return nil, nil, fmt.Errorf("rep: recover %s: %w", name, err)
	}
	if err := r.installAnalysis(a); err != nil {
		log.Close()
		return nil, nil, fmt.Errorf("rep: recover %s: %w", name, err)
	}
	if snapEpoch > r.fence {
		// A checkpoint truncated the log past the KindEpoch record that
		// made this fence durable; the snapshot is its only witness.
		r.fence = snapEpoch
	}
	if report.Rebuilt {
		// Everything this replica once knew is gone: gap versions are
		// version.Lowest again, so its answers would lose every quorum
		// version comparison they should win. Reads bounce until a
		// rebuild (heal.Healer.Rebuild) reconciles it and clears this.
		r.SetRecovering(true)
	}
	return r, &Durability{rep: r, log: log, walPath: walPath, snapPath: snapPath, recovery: report}, nil
}

// archiveCorrupt moves unusable storage aside (".corrupt" suffixes)
// rather than deleting it, preserving the evidence for forensics while
// freeing the live paths for a fresh log.
func archiveCorrupt(walPath, snapPath string) error {
	if err := os.Rename(walPath, walPath+".corrupt"); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("rep: archive %q: %w", walPath, err)
	}
	if snapPath != "" {
		if err := os.Rename(snapPath, snapPath+".corrupt"); err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("rep: archive %q: %w", snapPath, err)
		}
	}
	return wal.SyncDir(filepath.Dir(walPath))
}

// Durability manages a representative's on-disk state: a write-ahead log
// plus periodic snapshots that bound recovery time and log growth.
//
// Crash safety relies on LSNs: the snapshot records the last log sequence
// number it covers, and recovery replays only newer committed records. A
// crash between snapshot and log truncation is therefore harmless — the
// stale prefix is skipped by LSN, not by file position.
type Durability struct {
	mu       sync.Mutex
	rep      *Rep
	log      *wal.FileLog
	walPath  string
	snapPath string
	recovery RecoveryReport
	closed   bool
}

// Recovery reports what OpenDurable found and did.
func (d *Durability) Recovery() RecoveryReport { return d.recovery }

// Checkpoint writes a snapshot of the current committed state and then
// truncates the write-ahead log. It fails with ErrBusy while transactions
// are in flight.
func (d *Durability) Checkpoint() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return errors.New("rep: durability closed")
	}
	if d.snapPath == "" {
		return errors.New("rep: no snapshot path configured")
	}
	entries, lastLSN, epoch, err := d.rep.checkpointState()
	if err != nil {
		return err
	}
	if err := WriteSnapshot(d.snapPath, d.rep.Name(), lastLSN, entries, epoch); err != nil {
		return err
	}
	// A crash here leaves the full log alongside the snapshot; recovery
	// skips the covered prefix by LSN. Truncation is pure compaction.
	return d.log.Truncate()
}

// Close flushes and closes the log.
func (d *Durability) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	return d.log.Close()
}
