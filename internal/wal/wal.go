// Package wal provides the write-ahead log that gives directory
// representatives recoverable storage.
//
// The paper assumes each representative is held by a transactional storage
// system that "stores critical information in a fashion that recovers from
// failures" (section 3.1). This package supplies that substrate: mutating
// operations are logged as redo records grouped by transaction; a commit
// record makes the transaction's effects durable, and recovery replays the
// redo records of committed transactions in log order. Because strict
// two-phase locking orders all conflicting operations, replaying commit
// batches in log order reproduces the committed state.
package wal

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"

	"repdir/internal/keyspace"
	"repdir/internal/version"
)

// Kind discriminates record types.
type Kind int

const (
	// KindInsert records DirRepInsert(Key, Version, Value).
	KindInsert Kind = iota + 1
	// KindCoalesce records DirRepCoalesce(Key, Hi, Version).
	KindCoalesce
	// KindPrepare marks a transaction as prepared (two-phase commit
	// phase one); its redo records precede it in the log.
	KindPrepare
	// KindCommit makes a transaction's redo records effective.
	KindCommit
	// KindAbort discards a transaction's redo records.
	KindAbort
	// KindEpoch records an epoch-fence advance (Record.Epoch): after
	// recovery the representative rejects operations carrying an older
	// configuration epoch. Epoch records belong to no transaction.
	KindEpoch
)

// String names the record kind.
func (k Kind) String() string {
	switch k {
	case KindInsert:
		return "insert"
	case KindCoalesce:
		return "coalesce"
	case KindPrepare:
		return "prepare"
	case KindCommit:
		return "commit"
	case KindAbort:
		return "abort"
	case KindEpoch:
		return "epoch"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Record is one log entry. Key/Hi/Version/Value are meaningful only for
// the redo kinds. LSN is the record's log sequence number, assigned by
// the Log on Append; snapshots remember the last LSN they cover so that
// recovery replays only newer records (see rep.Durability).
type Record struct {
	LSN     uint64
	Kind    Kind
	Txn     uint64
	Key     keyspace.Key
	Hi      keyspace.Key
	Version version.V
	Value   string
	// Epoch is the configuration epoch a KindEpoch record fences at;
	// zero on every other kind.
	Epoch uint64
}

// Log is an append-only record sink.
type Log interface {
	// Append durably adds a record, assigning it the next LSN.
	Append(Record) error
	// NextLSN returns the LSN the next appended record will receive.
	NextLSN() uint64
	// Close releases resources. Append after Close fails.
	Close() error
}

// ErrClosed is returned by Append after Close.
var ErrClosed = errors.New("wal: log is closed")

// MemoryLog keeps records in memory; it is the default for simulations
// and tests. The zero value is ready to use.
type MemoryLog struct {
	mu      sync.Mutex
	records []Record
	next    uint64
	closed  bool
}

var _ Log = (*MemoryLog)(nil)

// Append adds a record, stamping its LSN.
func (l *MemoryLog) Append(r Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	l.next++
	r.LSN = l.next
	l.records = append(l.records, r)
	return nil
}

// NextLSN implements Log.
func (l *MemoryLog) NextLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next + 1
}

// Close marks the log closed.
func (l *MemoryLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true
	return nil
}

// Records returns a copy of everything appended so far.
func (l *MemoryLog) Records() []Record {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Record, len(l.records))
	copy(out, l.records)
	return out
}

// DropTail discards the last n records, simulating storage that lost
// its most recent writes (the in-memory analogue of a truncated or
// salvaged file log — recovery sees a strict prefix of history). LSNs
// keep counting from where they were, exactly as a salvaged FileLog
// reopened with StartAt does. It returns how many records were dropped.
func (l *MemoryLog) DropTail(n int) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n > len(l.records) {
		n = len(l.records)
	}
	if n <= 0 {
		return 0
	}
	l.records = l.records[:len(l.records)-n]
	return n
}

// SyncPolicy controls when FileLog forces appended records to stable
// storage (fsync). Flushing the bufio writer alone only hands bytes to
// the OS; without an fsync a machine crash can lose records the log
// already acknowledged.
type SyncPolicy int

const (
	// SyncOnCommit (the default) fsyncs after KindPrepare and KindCommit
	// records — the two points where two-phase commit promises
	// durability (a prepared participant must survive a crash in doubt;
	// a committed transaction must survive, period). Redo records need
	// no individual sync: they precede their prepare/commit in the log,
	// so the decision record's sync carries them to disk too.
	SyncOnCommit SyncPolicy = iota
	// SyncNever leaves persistence timing to the OS. A crash can lose
	// committed transactions; meant for simulations and benchmarks that
	// opt out of durability.
	SyncNever
	// SyncAlways fsyncs after every record.
	SyncAlways
)

// String names the policy.
func (p SyncPolicy) String() string {
	switch p {
	case SyncOnCommit:
		return "commit"
	case SyncNever:
		return "never"
	case SyncAlways:
		return "always"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", int(p))
	}
}

// File is the storage handle a FileLog writes through. *os.File
// satisfies it; the fault-injection harness wraps one to impose fsync
// failures, short (torn) writes, ENOSPC, and bit flips underneath an
// otherwise-real log.
type File interface {
	io.Writer
	Sync() error
	Truncate(size int64) error
	Close() error
}

// FileLog appends records to a file as checksummed frames (see
// frame.go), so a log can be reopened for appending and recovery can
// distinguish every record that was fully written from torn or
// corrupted bytes.
type FileLog struct {
	mu     sync.Mutex
	f      File
	w      *bufio.Writer
	buf    []byte // frame encoding scratch, reused across appends
	next   uint64
	policy SyncPolicy
	syncs  uint64
	closed bool
}

var _ Log = (*FileLog)(nil)

// OpenFileLog opens (creating or appending to) a log file. When
// appending to an existing log, call StartAt with one past the last LSN
// already in the file (ReadFileLog reveals it) so sequence numbers stay
// monotone; rep.OpenDurable does this automatically. The sync policy
// defaults to SyncOnCommit.
func OpenFileLog(path string) (*FileLog, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open %q: %w", path, err)
	}
	return NewFileLog(f), nil
}

// NewFileLog builds a log over an already-open append-positioned file
// handle. Most callers want OpenFileLog; this entry point exists so a
// fault-injecting File wrapper can sit between the log and the disk.
func NewFileLog(f File) *FileLog {
	return &FileLog{f: f, w: bufio.NewWriter(f)}
}

// SetSyncPolicy selects when appends fsync.
func (l *FileLog) SetSyncPolicy(p SyncPolicy) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.policy = p
}

// SyncCount reports how many fsyncs Append has issued (explicit Sync
// calls not included); tests use it to assert commits hit the disk.
func (l *FileLog) SyncCount() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncs
}

// needsSync reports whether the policy demands an fsync after a record
// of kind k; callers hold l.mu.
func (l *FileLog) needsSync(k Kind) bool {
	switch l.policy {
	case SyncAlways:
		return true
	case SyncOnCommit:
		return k == KindPrepare || k == KindCommit
	default:
		return false
	}
}

// StartAt sets the next LSN to assign. It must be called before the
// first Append after reopening an existing log.
func (l *FileLog) StartAt(nextLSN uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if nextLSN > 0 {
		l.next = nextLSN - 1
	}
}

// NextLSN implements Log.
func (l *FileLog) NextLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next + 1
}

// Truncate discards the log file's contents. LSNs keep counting from
// where they were, so snapshots that recorded a last-covered LSN remain
// valid whether or not the truncation completed before a crash.
func (l *FileLog) Truncate() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if err := l.w.Flush(); err != nil {
		return fmt.Errorf("wal: flush before truncate: %w", err)
	}
	if err := l.f.Truncate(0); err != nil {
		return fmt.Errorf("wal: truncate: %w", err)
	}
	// The file is opened O_APPEND, so subsequent writes land at the new
	// end-of-file; no seek needed.
	return nil
}

// Append encodes and flushes one record, stamping its LSN.
func (l *FileLog) Append(r Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	r.LSN = l.next + 1
	frame, err := appendFrame(l.buf[:0], &r)
	if err != nil {
		return err
	}
	l.buf = frame
	l.next++
	if _, err := l.w.Write(frame); err != nil {
		return fmt.Errorf("wal: write frame: %w", err)
	}
	if err := l.w.Flush(); err != nil {
		return fmt.Errorf("wal: flush: %w", err)
	}
	if l.needsSync(r.Kind) {
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("wal: sync: %w", err)
		}
		l.syncs++
	}
	return nil
}

// Sync forces the file to stable storage.
func (l *FileLog) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	return l.f.Sync()
}

// Close flushes and closes the file.
func (l *FileLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if err := l.w.Flush(); err != nil {
		l.f.Close()
		return fmt.Errorf("wal: flush on close: %w", err)
	}
	return l.f.Close()
}

// ReadFileLog decodes every record in a log file. A trailing partial
// frame (torn write during a crash) is tolerated; a corrupt frame in
// the middle of the log — bad magic, bad length, failed checksum,
// undecodable payload — is an error. Use SalvageFileLog to recover the
// valid prefix of a damaged log instead.
func ReadFileLog(path string) ([]Record, error) {
	records, report, err := scanFile(path)
	if err != nil {
		return nil, err
	}
	if report.Cause == CauseNone || report.Cause.Torn() {
		return records, nil
	}
	return records, &report
}

// FilterAfter returns the records with LSN strictly greater than lsn —
// the ones a snapshot covering up to lsn has not yet captured.
func FilterAfter(records []Record, lsn uint64) []Record {
	var out []Record
	for _, r := range records {
		if r.LSN > lsn {
			out = append(out, r)
		}
	}
	return out
}

// Analysis is the outcome of scanning a log: the redo records of
// committed transactions in commit order, the redo records of in-doubt
// transactions (prepared but neither committed nor aborted — two-phase
// commit participants that must await resolution), and the final outcome
// of every transaction the log decided.
type Analysis struct {
	// Committed holds redo records of committed transactions, ordered
	// by commit; within one transaction, in execution order.
	Committed []Record
	// InDoubt maps each prepared-but-undecided transaction to its redo
	// records in execution order.
	InDoubt map[uint64][]Record
	// Outcomes records the decided transactions: true = committed,
	// false = aborted.
	Outcomes map[uint64]bool
	// Epoch is the highest configuration epoch fence the log recorded
	// (KindEpoch records); zero when the log holds none.
	Epoch uint64
}

// Analyze scans log records. Transactions with redo records but no
// prepare, commit, or abort marker were alive at a crash before phase
// one completed; they are presumed aborted (their coordinator cannot
// have committed).
func Analyze(records []Record) (Analysis, error) {
	a := Analysis{
		InDoubt:  make(map[uint64][]Record),
		Outcomes: make(map[uint64]bool),
	}
	pending := make(map[uint64][]Record)
	prepared := make(map[uint64]bool)
	for _, r := range records {
		switch r.Kind {
		case KindInsert, KindCoalesce:
			pending[r.Txn] = append(pending[r.Txn], r)
		case KindPrepare:
			prepared[r.Txn] = true
		case KindAbort:
			delete(pending, r.Txn)
			delete(prepared, r.Txn)
			a.Outcomes[r.Txn] = false
		case KindCommit:
			a.Committed = append(a.Committed, pending[r.Txn]...)
			delete(pending, r.Txn)
			delete(prepared, r.Txn)
			a.Outcomes[r.Txn] = true
		case KindEpoch:
			if r.Epoch > a.Epoch {
				a.Epoch = r.Epoch
			}
		default:
			return Analysis{}, fmt.Errorf("wal: unknown record kind %d", r.Kind)
		}
	}
	for txn := range prepared {
		a.InDoubt[txn] = pending[txn]
	}
	return a, nil
}

// Replay feeds the redo records of committed transactions, in commit
// order, to apply. Unprepared transactions are dropped (presumed abort);
// prepared-but-undecided transactions are also skipped here — use
// Analyze to surface them for resolution.
func Replay(records []Record, apply func(Record) error) error {
	a, err := Analyze(records)
	if err != nil {
		return err
	}
	for _, op := range a.Committed {
		if err := apply(op); err != nil {
			return fmt.Errorf("wal: replay txn %d %s: %w", op.Txn, op.Kind, err)
		}
	}
	return nil
}
