package main

import (
	"context"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repdir/internal/keyspace"
	"repdir/internal/lock"
	"repdir/internal/rep"
	"repdir/internal/version"
	"repdir/internal/wal"
)

// Every layer is timed from outside, by decorating an interface it
// already exports: rep.Directory on both sides of the TCP transport,
// wal.Log between a replica and its log, and wal.File under the log.
// The decorators always count; they record spans only while the tracer
// is on.

// method names a rep.Directory call.
type method uint8

const (
	mLookup method = iota
	mPredecessor
	mSuccessor
	mPredecessorBatch
	mSuccessorBatch
	mInsert
	mCoalesce
	mPrepare
	mCommit
	mAbort
	mStatus
	nMethods
)

var methodNames = [nMethods]string{
	"lookup", "predecessor", "successor", "predecessor_batch", "successor_batch",
	"insert", "coalesce", "prepare", "commit", "abort", "status",
}

// spanKind says which decorator recorded a span.
type spanKind uint8

const (
	spanClient spanKind = iota // a member call as the suite client sees it
	spanServer                 // the same call between the TCP server and the replica
	spanAppend                 // one wal.Log.Append, fsync included
	spanSync                   // one wal.File.Sync
)

// span is one timed call at a layer boundary. Client spans carry the
// op ID the benchmark put in the context; every span but Sync carries
// the transaction ID, which joins client, server and WAL spans.
type span struct {
	start, end int64 // ns since the tracer's epoch
	txn        uint64
	op         uint32
	member     uint16
	kind       spanKind
	method     method
}

func (s span) dur() int64 { return s.end - s.start }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin returns the span start, or -1 when tracing is off.
func (t *tracer) begin() int64 {
	if !t.on.Load() {
		return -1
	}
	return t.now()
}

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// take returns the recorded spans and forgets them.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.spans
	t.spans = nil
	return s
}

type opIDKey struct{}

// withOpID tags ctx with the benchmark's op ID so client spans can be
// grouped by the directory operation that caused them.
func withOpID(ctx context.Context, id uint32) context.Context {
	return context.WithValue(ctx, opIDKey{}, id)
}

func opID(ctx context.Context) uint32 {
	id, _ := ctx.Value(opIDKey{}).(uint32)
	return id
}

// dirTap decorates a rep.Directory: on the client side it wraps a
// transport.Client, on the server side it sits between transport.Serve
// and the replica.
type dirTap struct {
	inner  rep.Directory
	tr     *tracer
	member uint16
	kind   spanKind
	calls  [nMethods]atomic.Uint64
}

var _ rep.Directory = (*dirTap)(nil)

func (d *dirTap) begin(m method) int64 {
	d.calls[m].Add(1)
	return d.tr.begin()
}

func (d *dirTap) end(ctx context.Context, m method, txn lock.TxnID, start int64) {
	if start < 0 {
		return
	}
	s := span{start: start, end: d.tr.now(), txn: uint64(txn), member: d.member, kind: d.kind, method: m}
	if d.kind == spanClient {
		s.op = opID(ctx)
	}
	d.tr.record(s)
}

// counts returns the per-method call counts so far.
func (d *dirTap) counts() [nMethods]uint64 {
	var c [nMethods]uint64
	for i := range c {
		c[i] = d.calls[i].Load()
	}
	return c
}

func (d *dirTap) Name() string { return d.inner.Name() }

func (d *dirTap) Lookup(ctx context.Context, txn lock.TxnID, key keyspace.Key) (rep.LookupResult, error) {
	t := d.begin(mLookup)
	r, err := d.inner.Lookup(ctx, txn, key)
	d.end(ctx, mLookup, txn, t)
	return r, err
}

func (d *dirTap) Predecessor(ctx context.Context, txn lock.TxnID, key keyspace.Key) (rep.NeighborResult, error) {
	t := d.begin(mPredecessor)
	r, err := d.inner.Predecessor(ctx, txn, key)
	d.end(ctx, mPredecessor, txn, t)
	return r, err
}

func (d *dirTap) Successor(ctx context.Context, txn lock.TxnID, key keyspace.Key) (rep.NeighborResult, error) {
	t := d.begin(mSuccessor)
	r, err := d.inner.Successor(ctx, txn, key)
	d.end(ctx, mSuccessor, txn, t)
	return r, err
}

func (d *dirTap) PredecessorBatch(ctx context.Context, txn lock.TxnID, key keyspace.Key, max int) ([]rep.NeighborResult, error) {
	t := d.begin(mPredecessorBatch)
	r, err := d.inner.PredecessorBatch(ctx, txn, key, max)
	d.end(ctx, mPredecessorBatch, txn, t)
	return r, err
}

func (d *dirTap) SuccessorBatch(ctx context.Context, txn lock.TxnID, key keyspace.Key, max int) ([]rep.NeighborResult, error) {
	t := d.begin(mSuccessorBatch)
	r, err := d.inner.SuccessorBatch(ctx, txn, key, max)
	d.end(ctx, mSuccessorBatch, txn, t)
	return r, err
}

func (d *dirTap) Insert(ctx context.Context, txn lock.TxnID, key keyspace.Key, ver version.V, value string) error {
	t := d.begin(mInsert)
	err := d.inner.Insert(ctx, txn, key, ver, value)
	d.end(ctx, mInsert, txn, t)
	return err
}

func (d *dirTap) Coalesce(ctx context.Context, txn lock.TxnID, lo, hi keyspace.Key, ver version.V) (rep.CoalesceResult, error) {
	t := d.begin(mCoalesce)
	r, err := d.inner.Coalesce(ctx, txn, lo, hi, ver)
	d.end(ctx, mCoalesce, txn, t)
	return r, err
}

func (d *dirTap) Prepare(ctx context.Context, txn lock.TxnID) error {
	t := d.begin(mPrepare)
	err := d.inner.Prepare(ctx, txn)
	d.end(ctx, mPrepare, txn, t)
	return err
}

func (d *dirTap) Commit(ctx context.Context, txn lock.TxnID) error {
	t := d.begin(mCommit)
	err := d.inner.Commit(ctx, txn)
	d.end(ctx, mCommit, txn, t)
	return err
}

func (d *dirTap) Abort(ctx context.Context, txn lock.TxnID) error {
	t := d.begin(mAbort)
	err := d.inner.Abort(ctx, txn)
	d.end(ctx, mAbort, txn, t)
	return err
}

func (d *dirTap) Status(ctx context.Context, txn lock.TxnID) (rep.TxnStatus, error) {
	t := d.begin(mStatus)
	r, err := d.inner.Status(ctx, txn)
	d.end(ctx, mStatus, txn, t)
	return r, err
}

// logTap decorates the wal.Log a replica appends to. While keeping is
// set it also keeps a copy of each record; the deployment sets it only
// during preload, when one goroutine appends per replica.
type logTap struct {
	inner   wal.Log
	tr      *tracer
	member  uint16
	appends atomic.Uint64
	keeping bool
	kept    []wal.Record
}

var _ wal.Log = (*logTap)(nil)

func (l *logTap) Append(r wal.Record) error {
	l.appends.Add(1)
	if l.keeping {
		l.kept = append(l.kept, r)
	}
	t := l.tr.begin()
	err := l.inner.Append(r)
	if t >= 0 {
		l.tr.record(span{start: t, end: l.tr.now(), txn: r.Txn, member: l.member, kind: spanAppend})
	}
	return err
}

func (l *logTap) NextLSN() uint64 { return l.inner.NextLSN() }

func (l *logTap) Close() error { return l.inner.Close() }

// fileTap is the modelled WAL device under wal.NewFileLog: an
// in-memory file, as on tmpfs, whose Sync waits a fixed modelled flush
// with time.Sleep, so the flushing goroutine parks and frees its
// processor as a wait on a device would. The flush costs the same on
// every host, so the number of flushes and what the program holds
// while flushing (the replica mutex) decide the result, not the host
// disk; and no page-cache writeback runs under the measurement. The
// sleep overshoots on a busy host; the wait actually measured is
// reported (wal.fsync_us_p50). checkReplay reads the contents back
// through a real file.
type fileTap struct {
	tr     *tracer
	member uint16
	flush  time.Duration
	bytes  atomic.Uint64
	syncs  atomic.Uint64
	busyNs atomic.Int64

	mu sync.Mutex
	// The contents live in fixed-size chunks, so a write never copies
	// what is already stored: a growing slice would stall the replica,
	// whose mutex is held across appends, for every doubling.
	chunks [][]byte
	mark   int // bytes written before the mark are not saved
}

const deviceChunk = 1 << 20

var _ wal.File = (*fileTap)(nil)

func (f *fileTap) Write(p []byte) (int, error) {
	f.mu.Lock()
	for rest := p; len(rest) > 0; {
		if len(f.chunks) == 0 || len(f.chunks[len(f.chunks)-1]) == deviceChunk {
			f.chunks = append(f.chunks, make([]byte, 0, deviceChunk))
		}
		last := &f.chunks[len(f.chunks)-1]
		n := min(len(rest), deviceChunk-len(*last))
		*last = append(*last, rest[:n]...)
		rest = rest[n:]
	}
	f.mu.Unlock()
	f.bytes.Add(uint64(len(p)))
	return len(p), nil
}

func (f *fileTap) Sync() error {
	t0 := time.Now()
	t := f.tr.begin()
	time.Sleep(f.flush)
	f.syncs.Add(1)
	f.busyNs.Add(int64(time.Since(t0)))
	if t >= 0 {
		f.tr.record(span{start: t, end: f.tr.now(), member: f.member, kind: spanSync})
	}
	return nil
}

// Truncate supports what wal.FileLog asks of it: emptying the file.
func (f *fileTap) Truncate(size int64) error {
	if size != 0 {
		return fmt.Errorf("modelled device truncates only to 0, not %d", size)
	}
	f.mu.Lock()
	f.chunks, f.mark = nil, 0
	f.mu.Unlock()
	return nil
}

func (f *fileTap) Close() error { return nil }

// size is the memory the device's contents take.
func (f *fileTap) size() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.chunks) * deviceChunk
}

// setMark makes save skip everything written so far.
func (f *fileTap) setMark() {
	f.mu.Lock()
	f.mark = 0
	for _, c := range f.chunks {
		f.mark += len(c)
	}
	f.mu.Unlock()
}

// save writes the device's contents after the mark to path. WAL frames
// are self-contained, so the saved suffix is a readable log.
func (f *fileTap) save(path string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	var buf []byte
	skip := f.mark
	for _, c := range f.chunks {
		n := min(skip, len(c))
		buf = append(buf, c[n:]...)
		skip -= n
	}
	return os.WriteFile(path, buf, 0o644)
}
