package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repdir/internal/codec"
	"repdir/internal/obs"
)

// Frame buffer tuning. Coalesced frames are flushed once they pass
// batchFlushBytes; a single message may exceed it (up to maxFrameLen)
// and then travels in a frame of its own. Buffers above poolMaxCap are
// left to the garbage collector instead of being pooled, so one huge
// value cannot pin a huge buffer forever.
const (
	batchFlushBytes = 256 << 10
	poolMaxCap      = 1 << 20
)

// framePool recycles frame buffers across connections: writers build
// outgoing frames in them, readers land incoming frames in them.
var framePool = sync.Pool{
	New: func() any { b := make([]byte, 0, 4096); return &b },
}

func getFrameBuf() []byte { return (*framePool.Get().(*[]byte))[:0] }

func putFrameBuf(b []byte) {
	if cap(b) > poolMaxCap {
		return
	}
	b = b[:0]
	framePool.Put(&b)
}

// WireStats counts the transport's frame traffic in both directions:
// frames, bytes, and messages, plus histograms of bytes per frame and
// messages per frame (the batch size). One WireStats is shared by all
// connections of a Client or Server, so the numbers describe the
// endpoint, not one socket. All methods are safe for concurrent use and
// nil-receiver safe.
type WireStats struct {
	framesSent atomic64
	framesRecv atomic64
	bytesSent  atomic64
	bytesRecv  atomic64
	msgsSent   atomic64
	msgsRecv   atomic64

	frameBytesTx obs.SizeHistogram
	frameBytesRx obs.SizeHistogram
	batchTx      obs.SizeHistogram
	batchRx      obs.SizeHistogram
}

// atomic64 is a tiny alias to keep the struct declaration readable.
type atomic64 = atomic.Uint64

// WireSnapshot is a point-in-time copy of one direction's counters.
type WireSnapshot struct {
	Frames, Bytes, Msgs uint64
	// FrameBytes is the distribution of frame payload sizes in bytes;
	// Batch the distribution of messages per frame.
	FrameBytes obs.SizeSnapshot
	Batch      obs.SizeSnapshot
}

// Sent returns the send-direction snapshot.
func (s *WireStats) Sent() WireSnapshot {
	if s == nil {
		return WireSnapshot{}
	}
	return WireSnapshot{
		Frames:     s.framesSent.Load(),
		Bytes:      s.bytesSent.Load(),
		Msgs:       s.msgsSent.Load(),
		FrameBytes: s.frameBytesTx.Snapshot(),
		Batch:      s.batchTx.Snapshot(),
	}
}

// Recv returns the receive-direction snapshot.
func (s *WireStats) Recv() WireSnapshot {
	if s == nil {
		return WireSnapshot{}
	}
	return WireSnapshot{
		Frames:     s.framesRecv.Load(),
		Bytes:      s.bytesRecv.Load(),
		Msgs:       s.msgsRecv.Load(),
		FrameBytes: s.frameBytesRx.Snapshot(),
		Batch:      s.batchRx.Snapshot(),
	}
}

func (s *WireStats) noteSent(frameBytes, msgs int) {
	if s == nil {
		return
	}
	s.framesSent.Add(1)
	s.bytesSent.Add(uint64(frameBytes))
	s.msgsSent.Add(uint64(msgs))
	s.frameBytesTx.Observe(uint64(frameBytes))
	s.batchTx.Observe(uint64(msgs))
}

func (s *WireStats) noteRecv(frameBytes, msgs int) {
	if s == nil {
		return
	}
	s.framesRecv.Add(1)
	s.bytesRecv.Add(uint64(frameBytes))
	s.msgsRecv.Add(uint64(msgs))
	s.frameBytesRx.Observe(uint64(frameBytes))
	s.batchRx.Observe(uint64(msgs))
}

// Register exposes the wire counters and histograms on reg under
// repdir_wire_* names, labeled by endpoint (e.g. "server", "client")
// and direction.
func (s *WireStats) Register(reg *obs.Registry, endpoint string) {
	if s == nil {
		return
	}
	RegisterWireStats(reg, map[string]*WireStats{endpoint: s})
}

// RegisterWireStats exposes several endpoints' wire counters and
// histograms under one set of repdir_wire_* families, one endpoint
// label value each. A registry panics on duplicate family names, so a
// process with multiple transports (say, one server per shard member it
// hosts) must register them together rather than calling Register once
// per transport.
func RegisterWireStats(reg *obs.Registry, stats map[string]*WireStats) {
	endpoints := make([]string, 0, len(stats))
	for ep, s := range stats {
		if s != nil {
			endpoints = append(endpoints, ep)
		}
	}
	sort.Strings(endpoints)
	reg.CounterVec("repdir_wire_frames_total",
		"Wire frames carried by the binary transport codec.",
		[]string{"endpoint", "dir"}, func() []obs.Sample {
			var out []obs.Sample
			for _, ep := range endpoints {
				s := stats[ep]
				out = append(out,
					obs.Sample{Labels: []string{ep, "tx"}, Value: float64(s.framesSent.Load())},
					obs.Sample{Labels: []string{ep, "rx"}, Value: float64(s.framesRecv.Load())})
			}
			return out
		})
	reg.CounterVec("repdir_wire_bytes_total",
		"Wire frame payload bytes carried by the binary transport codec.",
		[]string{"endpoint", "dir"}, func() []obs.Sample {
			var out []obs.Sample
			for _, ep := range endpoints {
				s := stats[ep]
				out = append(out,
					obs.Sample{Labels: []string{ep, "tx"}, Value: float64(s.bytesSent.Load())},
					obs.Sample{Labels: []string{ep, "rx"}, Value: float64(s.bytesRecv.Load())})
			}
			return out
		})
	reg.CounterVec("repdir_wire_messages_total",
		"Request/response messages carried by the binary transport codec.",
		[]string{"endpoint", "dir"}, func() []obs.Sample {
			var out []obs.Sample
			for _, ep := range endpoints {
				s := stats[ep]
				out = append(out,
					obs.Sample{Labels: []string{ep, "tx"}, Value: float64(s.msgsSent.Load())},
					obs.Sample{Labels: []string{ep, "rx"}, Value: float64(s.msgsRecv.Load())})
			}
			return out
		})
	reg.SizeHistogramVec("repdir_wire_frame_bytes",
		"Distribution of frame payload sizes in bytes.",
		[]string{"endpoint", "dir"}, func() []obs.SizeSample {
			var out []obs.SizeSample
			for _, ep := range endpoints {
				s := stats[ep]
				out = append(out,
					obs.SizeSample{Labels: []string{ep, "tx"}, Snap: s.frameBytesTx.Snapshot()},
					obs.SizeSample{Labels: []string{ep, "rx"}, Snap: s.frameBytesRx.Snapshot()})
			}
			return out
		})
	reg.SizeHistogramVec("repdir_wire_batch_size",
		"Distribution of messages coalesced per frame.",
		[]string{"endpoint", "dir"}, func() []obs.SizeSample {
			var out []obs.SizeSample
			for _, ep := range endpoints {
				s := stats[ep]
				out = append(out,
					obs.SizeSample{Labels: []string{ep, "tx"}, Snap: s.batchTx.Snapshot()},
					obs.SizeSample{Labels: []string{ep, "rx"}, Snap: s.batchRx.Snapshot()})
			}
			return out
		})
}

// frameWriter coalesces encoded messages into length-prefixed frames
// with group commit: the goroutine that finds the writer idle becomes
// the flusher and keeps writing until the pending buffer is empty, and
// messages enqueued while a write syscall is in flight ride out
// together in the next frame. Under a single caller every message
// flushes immediately (no added latency); under concurrent quorum
// rounds, frames batch up automatically.
//
// A failed write permanently breaks the writer: the error is recorded,
// onErr runs once (tearing down the connection and failing in-flight
// calls), and every later enqueue fails fast. Nothing is ever written
// after a failure, so a partial frame cannot be followed by bytes the
// peer would misparse.
type frameWriter struct {
	w io.Writer
	// maxBatch caps messages per frame (0 = unbounded); used to pin
	// down the unbatched baseline in benchmarks.
	maxBatch int
	stats    *WireStats
	onErr    func(error)

	mu       sync.Mutex
	pending  []byte // encoded messages awaiting flush
	ends     []int  // message end offsets within pending
	flushing bool
	err      error
}

func newFrameWriter(w io.Writer, maxBatch int, stats *WireStats, onErr func(error)) *frameWriter {
	return &frameWriter{w: w, maxBatch: maxBatch, stats: stats, onErr: onErr}
}

// enqueue appends one message (encoded by fn, which must append
// exactly one complete message) and flushes per the group-commit
// policy. It returns once the message is durably handed to the kernel
// or queued behind an active flusher that will carry it.
func (fw *frameWriter) enqueue(fn func([]byte) []byte) error {
	fw.mu.Lock()
	if fw.err != nil {
		err := fw.err
		fw.mu.Unlock()
		return err
	}
	if fw.pending == nil {
		fw.pending = getFrameBuf()
	}
	fw.pending = fn(fw.pending)
	fw.ends = append(fw.ends, len(fw.pending))
	if len(fw.ends) == 1 && len(fw.pending) > maxFrameLen {
		// A single message over the frame bound would poison the stream
		// at the receiver; fail just this call.
		fw.pending = fw.pending[:0]
		fw.ends = fw.ends[:0]
		fw.mu.Unlock()
		return fmt.Errorf("%w: message exceeds %d-byte frame bound", codec.ErrCodec, maxFrameLen)
	}
	if fw.flushing {
		// The active flusher will pick this message up; its write
		// outcome reaches this caller through the connection teardown
		// path if it fails.
		fw.mu.Unlock()
		return nil
	}
	fw.flushing = true
	fw.mu.Unlock()
	if fw.maxBatch != 1 {
		// Group-commit heuristic: yield once before writing, so
		// runnable peers (quorum-round goroutines mid-send, handlers
		// finishing together) get to enqueue into this frame. With an
		// empty run queue this costs ~100ns; under load it turns N
		// write syscalls into one.
		runtime.Gosched()
	}
	return fw.flushLoop()
}

// flushLoop drains pending as the current flush leader. It returns the
// first write error (also recorded for later enqueuers).
func (fw *frameWriter) flushLoop() error {
	var hdr [binary.MaxVarintLen64]byte
	for {
		fw.mu.Lock()
		if fw.err != nil {
			err := fw.err
			fw.flushing = false
			fw.mu.Unlock()
			return err
		}
		if len(fw.ends) == 0 {
			fw.flushing = false
			if fw.pending != nil {
				putFrameBuf(fw.pending)
				fw.pending = nil
			}
			fw.mu.Unlock()
			return nil
		}
		// Take a prefix of whole messages bounded by batchFlushBytes
		// and maxBatch; an oversized first message goes alone.
		take := len(fw.ends)
		if fw.maxBatch > 0 && take > fw.maxBatch {
			take = fw.maxBatch
		}
		for take > 1 && fw.ends[take-1] > batchFlushBytes {
			take--
		}
		cut := fw.ends[take-1]
		body := fw.pending[:cut]
		rest := fw.pending[cut:]
		var carry []byte
		if len(rest) > 0 {
			carry = getFrameBuf()
			carry = append(carry, rest...)
		}
		restEnds := fw.ends[take:]
		for i := range restEnds {
			restEnds[i] -= cut
		}
		ends := append([]int(nil), restEnds...)
		fw.pending, fw.ends = carry, ends
		fw.mu.Unlock()

		n := binary.PutUvarint(hdr[:], uint64(len(body)))
		bufs := net.Buffers{hdr[:n], body}
		_, err := bufs.WriteTo(fw.w)
		if err == nil {
			fw.stats.noteSent(cut, take)
		}
		putFrameBuf(body[:0])
		if err != nil {
			fw.fail(fmt.Errorf("transport: frame write: %w", err))
			return err
		}
	}
}

// fail records the first write error and runs the teardown hook once.
func (fw *frameWriter) fail(err error) {
	fw.mu.Lock()
	if fw.err != nil {
		fw.mu.Unlock()
		return
	}
	fw.err = err
	fw.flushing = false
	fw.pending = nil
	fw.ends = nil
	onErr := fw.onErr
	fw.mu.Unlock()
	if onErr != nil {
		onErr(err)
	}
}

// readFrame reads one length-prefixed frame into a pooled buffer. The
// caller owns the returned buffer and must putFrameBuf it when every
// message decoded from it has been copied out; it also records receive
// stats once it knows the message count.
func readFrame(br *bufio.Reader) ([]byte, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if n == 0 || n > maxFrameLen {
		return nil, fmt.Errorf("%w: frame length %d out of range", codec.ErrCodec, n)
	}
	buf := getFrameBuf()
	if cap(buf) < int(n) {
		putFrameBuf(buf)
		buf = make([]byte, n)
	} else {
		buf = buf[:n]
	}
	if _, err := io.ReadFull(br, buf); err != nil {
		putFrameBuf(buf)
		return nil, err
	}
	return buf, nil
}
