package transport

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repdir/internal/codec"
	"repdir/internal/keyspace"
	"repdir/internal/lock"
	"repdir/internal/rep"
	"repdir/internal/version"
)

// op is the wire operation code. The numeric values are the binary
// codec's one-byte message tags (see wire.go) — part of the on-wire
// contract; do not renumber.
type op int

const (
	opLookup op = iota + 1
	opPredecessor
	opSuccessor
	opPredecessorBatch
	opSuccessorBatch
	opInsert
	opCoalesce
	opPrepare
	opCommit
	opAbort
	opStatus
	opName
)

// request is the single wire request shape. ID matches the request to
// its response: the connection is multiplexed, so responses may return
// in any order.
type request struct {
	ID    uint64
	Op    op
	Txn   uint64
	Epoch uint64
	// Deadline is the client's remaining context budget in microseconds
	// at send time (0 = no deadline). The server turns it into a
	// per-request context and fast-rejects work it cannot finish in
	// time.
	Deadline uint64
	Key      keyspace.Key
	Hi       keyspace.Key
	Version  version.V
	Value    string
	Count    int

	// Server-side bookkeeping, never on the wire: when the request was
	// decoded, and the absolute deadline its budget implies.
	arrived time.Time
	expires time.Time
}

// response is the single wire response shape. ID echoes the request it
// answers; Op echoes the request op so the decoder knows which result
// fields follow.
type response struct {
	ID          uint64
	Op          op
	Code        code
	Msg         string
	Found       bool
	Version     version.V
	Value       string
	Key         keyspace.Key
	GapVersion  version.V
	DeletedKeys []keyspace.Key
	Neighbors   []rep.NeighborResult
	TxnStatus   rep.TxnStatus
	Name        string
}

// DefaultPerConnConcurrency bounds how many requests from one connection
// a server runs at once when WithPerConnConcurrency is not given.
const DefaultPerConnConcurrency = 32

// negotiateTimeout bounds the preamble exchange after a dial, so a
// server that accepts but never answers cannot hang the caller beyond
// its context.
const negotiateTimeout = 10 * time.Second

// ServerOption configures Serve.
type ServerOption func(*Server)

// WithCallTimeout caps how long one request (including its lock waits)
// may run on the server. The default is 30 seconds.
func WithCallTimeout(d time.Duration) ServerOption {
	return func(s *Server) {
		if d > 0 {
			s.callTimeout = d
		}
	}
}

// WithPerConnConcurrency bounds how many requests from one connection
// may be in flight at once on the server. When the bound is reached the
// connection's decode loop stops pulling new frames, applying
// backpressure to the client. n < 1 selects the default.
func WithPerConnConcurrency(n int) ServerOption {
	return func(s *Server) {
		if n >= 1 {
			s.perConn = n
		}
	}
}

// WithAdmission enables CoDel-style overload shedding on the server's
// dispatch path (see admit.go): when the measured queue delay stays
// above target for a full interval, newly arriving requests are
// rejected with ErrOverloaded until the delay recovers — except
// two-phase-commit resolution, which is always served so shedding can
// never wedge an in-flight transaction. Zero durations select
// DefaultAdmitTarget / DefaultAdmitInterval. Enabling admission also
// buffers the per-connection dispatch queue (WithDispatchQueue) so
// queue delay is measurable.
func WithAdmission(target, interval time.Duration) ServerOption {
	return func(s *Server) {
		s.admit.enabled = true
		s.admit.target = DefaultAdmitTarget
		s.admit.interval = DefaultAdmitInterval
		if target > 0 {
			s.admit.target = target
		}
		if interval > 0 {
			s.admit.interval = interval
		}
	}
}

// WithDispatchQueue buffers each connection's dispatch queue with n
// slots beyond the running workers. The default 0 keeps the legacy
// unbuffered handoff (decode blocks whenever all workers are busy);
// admission control defaults it to 16x the per-connection concurrency.
// Under admission the queue's standing delay is bounded by the CoDel
// controller, not by the queue's length, so the queue should be sized
// for the worst arrival burst a client may legitimately multiplex onto
// the connection — a queue that overflows on an honest burst sheds work
// a healthy server could have drained well inside the delay target.
func WithDispatchQueue(n int) ServerOption {
	return func(s *Server) {
		if n >= 0 {
			s.queueDepth = n
			s.queueSet = true
		}
	}
}

// Server exposes one representative over TCP. Each connection has one
// decode loop, but every request is dispatched to its own goroutine
// (bounded by the per-connection concurrency limit), so a request stuck
// waiting for a lock does not head-of-line-block later requests on the
// same connection. Responses are matched to requests by ID and
// group-commit through a frameWriter. A connection whose preamble does
// not offer exactly wireVersion is closed (see wire.go).
type Server struct {
	dir rep.Directory
	ln  net.Listener

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup

	// callTimeout caps how long one request (including its lock waits)
	// may run on the server.
	callTimeout time.Duration
	// perConn bounds concurrent dispatch per connection.
	perConn int
	// queueDepth buffers the per-connection dispatch queue (0 =
	// unbuffered handoff); queueSet records an explicit option so
	// admission can supply its own default.
	queueDepth int
	queueSet   bool
	// admit is the overload-shedding controller (disabled by default).
	admit admitState
	// stats aggregates frame traffic across connections.
	stats WireStats

	// Shared per-op deadline context, refreshed coarsely (see opCtx).
	ctxMu     sync.Mutex
	opCtxVal  context.Context
	opCtxStop context.CancelFunc
	opCtxBorn time.Time
}

// Serve starts a server for dir on addr (e.g. "127.0.0.1:0"). Close must
// be called to release the listener and connections.
func Serve(dir rep.Directory, addr string, opts ...ServerOption) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %q: %w", addr, err)
	}
	s := &Server{
		dir:         dir,
		ln:          ln,
		conns:       make(map[net.Conn]struct{}),
		callTimeout: 30 * time.Second,
		perConn:     DefaultPerConnConcurrency,
	}
	for _, opt := range opts {
		opt(s)
	}
	if s.admit.enabled && !s.queueSet {
		s.queueDepth = 16 * s.perConn
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listening address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// WireStats returns the server's frame traffic counters.
func (s *Server) WireStats() *WireStats { return &s.stats }

// AdmissionStats returns the admission controller's counters (all zero
// unless WithAdmission, except Expired, which hard deadline rejection
// feeds regardless).
func (s *Server) AdmissionStats() AdmissionStats { return s.admit.snapshot() }

// Close stops accepting, closes every connection, and waits for handler
// goroutines to exit.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	s.ctxMu.Lock()
	if s.opCtxStop != nil {
		s.opCtxStop()
		s.opCtxVal, s.opCtxStop = nil, nil
	}
	s.ctxMu.Unlock()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

// serveConn checks the connection's preamble, echoes it, and serves
// frames until the connection dies.
func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	br := bufio.NewReaderSize(conn, 64<<10)
	var pre [2]byte
	if _, err := io.ReadFull(br, pre[:]); err != nil || pre != [2]byte{preambleByte, wireVersion} {
		return
	}
	if _, err := conn.Write(pre[:]); err != nil {
		return
	}
	s.serveFrames(conn, br)
}

// serveFrames decodes multi-message request frames, dispatching each
// request to a bounded worker pool. Responses group-commit through a
// frameWriter, so replies to a batch of concurrent requests coalesce
// into few frames.
func (s *Server) serveFrames(conn net.Conn, br *bufio.Reader) {
	// A failed response write leaves the stream corrupt mid-frame; close
	// the connection so the client's in-flight calls fail fast instead
	// of waiting out their timeouts.
	fw := newFrameWriter(conn, 0, &s.stats, func(error) { conn.Close() })
	// Long-lived worker pool: a channel handoff costs a fraction of a
	// goroutine spawn, and the pool size is the same per-connection
	// concurrency bound the sem used to enforce — when every worker is
	// busy (and the dispatch queue, if buffered, is full) the decode
	// loop blocks, applying backpressure to the client.
	work := make(chan request, s.queueDepth)
	var handlers sync.WaitGroup
	// Outstanding handlers may still be mid-operation when the decode
	// loop exits; wait for them before tearing the connection down so
	// their (failing) writes never race the close.
	defer handlers.Wait()
	defer close(work)
	reply := func(resp response) {
		_ = fw.enqueue(func(b []byte) []byte { return appendResponse(b, &resp) })
	}
	for i := 0; i < s.perConn; i++ {
		handlers.Add(1)
		go func() {
			defer handlers.Done()
			for req := range work {
				reply(s.dispatch(&req))
			}
		}()
	}
	for {
		buf, err := readFrame(br)
		if err != nil {
			return
		}
		r := codec.NewReader(buf)
		msgs := 0
		for r.Remaining() > 0 {
			var req request
			if err := readRequest(r, &req); err != nil {
				putFrameBuf(buf)
				return
			}
			msgs++
			s.offer(req, work, reply)
		}
		s.stats.noteRecv(len(buf), msgs)
		putFrameBuf(buf)
	}
}

// offer routes one decoded request toward the worker pool. The request
// is stamped with its arrival time and, when it carries a propagated
// deadline budget, the absolute instant that budget expires. Under
// admission-control overload, sheddable requests are refused
// immediately with ErrOverloaded — when the controller has tripped AND
// the queue's expected drain delay exceeds the target (overBacklog), or
// unconditionally when the queue is full (a full queue with the
// controller enabled means sojourn is about to blow far past target
// anyway; rejecting now is strictly kinder than queueing then
// rejecting). Requiring backlog alongside the tripped controller keeps
// shedding proportional: admitted work keeps flowing at the drain rate,
// the queue settles at roughly one target's worth of delay, and a
// below-target pickup can clear the episode — an all-arrivals shed
// would turn every sustained overload into a full outage that only ends
// when the offered load does. Two-phase-commit resolution is never
// shed: it blocks on the queue like the legacy path, so lock-holding
// transactions always drain.
func (s *Server) offer(req request, work chan<- request, reply func(response)) {
	req.arrived = time.Now()
	if req.Deadline > 0 {
		req.expires = req.arrived.Add(time.Duration(req.Deadline) * time.Microsecond)
	}
	if sheddable(req.Op) && s.admit.enabled {
		if s.admit.shouldShed() && s.admit.overBacklog(len(work), s.perConn) {
			s.admit.shed.Add(1)
			reply(errorResponse(&req, ErrOverloaded))
			return
		}
		select {
		case work <- req:
		default:
			s.admit.shed.Add(1)
			reply(errorResponse(&req, ErrOverloaded))
		}
		return
	}
	work <- req
}

// dispatch is the worker-side half of admission: report the request's
// queue sojourn, refuse work whose propagated deadline has already
// passed (or provably cannot be met given typical service time), and
// otherwise run the handler, feeding its service time back into the
// controller's estimate.
func (s *Server) dispatch(req *request) response {
	s.admit.pickup(req.arrived)
	if sheddable(req.Op) && !req.expires.IsZero() {
		if time.Now().After(req.expires) || s.admit.wontFinish(req.expires) {
			s.admit.expired.Add(1)
			return errorResponse(req, ErrExpired)
		}
	}
	start := time.Now()
	resp := s.handle(req)
	s.admit.observeService(time.Since(start))
	s.admit.admitted.Add(1)
	return resp
}

// errorResponse builds the reply for a request refused before its
// handler ran.
func errorResponse(req *request, err error) response {
	resp := response{ID: req.ID, Op: req.Op}
	resp.Code, resp.Msg = encodeError(err)
	return resp
}

// opCtx returns a context carrying the call-timeout deadline. One
// timer context is shared by every request arriving within a refresh
// interval (callTimeout/8, capped at 1s), so the steady-state cost per
// request is a mutex and a clock read instead of a timer create/stop
// pair — which profiles as ~10% of a saturated server's CPU. The
// tradeoff: a request may observe a deadline up to one interval shorter
// than callTimeout. Superseded contexts are not cancelled (requests may
// still hold them); their timers lapse at their own deadlines.
func (s *Server) opCtx() context.Context {
	refresh := s.callTimeout / 8
	if refresh > time.Second {
		refresh = time.Second
	}
	now := time.Now()
	s.ctxMu.Lock()
	if s.opCtxVal == nil || now.Sub(s.opCtxBorn) > refresh {
		s.opCtxVal, s.opCtxStop = context.WithTimeout(context.Background(), s.callTimeout)
		s.opCtxBorn = now
	}
	ctx := s.opCtxVal
	s.ctxMu.Unlock()
	return ctx
}

func (s *Server) handle(req *request) response {
	var ctx context.Context
	if !req.expires.IsZero() {
		// The request carries its client's own deadline: honor it
		// per-request instead of the shared coarse context, capped by the
		// server's call timeout so a client claiming an hour of budget
		// cannot pin a worker that long. This is what keeps one
		// short-deadline call from cancelling a long-deadline sibling on
		// the same connection.
		limit := req.expires
		if hard := req.arrived.Add(s.callTimeout); hard.Before(limit) {
			limit = hard
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(context.Background(), limit)
		defer cancel()
	} else {
		// No propagated deadline (the client's context has none): the
		// shared coarse call-timeout context.
		ctx = s.opCtx()
	}
	// Restore the caller's configuration epoch so the representative can
	// fence stale-epoch operations (epoch 0 marks an unversioned caller,
	// which the rep treats as legacy).
	if req.Epoch != 0 {
		ctx = rep.WithEpoch(ctx, req.Epoch)
	}
	txn := lock.TxnID(req.Txn)
	var resp response
	var err error
	switch req.Op {
	case opLookup:
		var r rep.LookupResult
		r, err = s.dir.Lookup(ctx, txn, req.Key)
		resp.Found, resp.Version, resp.Value = r.Found, r.Version, r.Value
	case opPredecessor:
		var r rep.NeighborResult
		r, err = s.dir.Predecessor(ctx, txn, req.Key)
		resp.Key, resp.Version, resp.Value, resp.GapVersion = r.Key, r.Version, r.Value, r.GapVersion
	case opSuccessor:
		var r rep.NeighborResult
		r, err = s.dir.Successor(ctx, txn, req.Key)
		resp.Key, resp.Version, resp.Value, resp.GapVersion = r.Key, r.Version, r.Value, r.GapVersion
	case opPredecessorBatch:
		resp.Neighbors, err = s.dir.PredecessorBatch(ctx, txn, req.Key, req.Count)
	case opSuccessorBatch:
		resp.Neighbors, err = s.dir.SuccessorBatch(ctx, txn, req.Key, req.Count)
	case opInsert:
		err = s.dir.Insert(ctx, txn, req.Key, req.Version, req.Value)
	case opCoalesce:
		var r rep.CoalesceResult
		r, err = s.dir.Coalesce(ctx, txn, req.Key, req.Hi, req.Version)
		resp.DeletedKeys = r.DeletedKeys
	case opPrepare:
		err = s.dir.Prepare(ctx, txn)
	case opCommit:
		err = s.dir.Commit(ctx, txn)
	case opAbort:
		err = s.dir.Abort(ctx, txn)
	case opStatus:
		resp.TxnStatus, err = s.dir.Status(ctx, txn)
	case opName:
		resp.Name = s.dir.Name()
	default:
		err = fmt.Errorf("transport: unknown op %d", req.Op)
	}
	resp.ID = req.ID
	resp.Op = req.Op
	resp.Code, resp.Msg = encodeError(err)
	return resp
}

// Redial backoff bounds: the first redial after a failed dial waits on
// the order of redialBase, doubling per consecutive failure up to
// redialMax. Each delay is jittered to [1/2, 1) of its nominal value so
// a fleet of clients that lost the same server redials spread out
// instead of in lockstep (every client hammering the recovering server
// at the same instants, losing together, and staying synchronized —
// the classic retry-storm resonance).
const (
	redialBase = 10 * time.Millisecond
	redialMax  = time.Second
)

// callResult is what a waiting caller receives from the demux loop.
type callResult struct {
	resp response
	err  error
}

// clientConn is one live multiplexed connection. Requests group-commit
// through a frameWriter; an in-flight table maps request IDs to the
// channels of the callers awaiting their responses, and a single reader
// goroutine (readLoop) demultiplexes responses by ID.
type clientConn struct {
	conn  net.Conn
	fw    *frameWriter
	stats *WireStats

	imu      sync.Mutex
	inflight map[uint64]chan callResult
	broken   bool
}

func newClientConn(conn net.Conn, addr string, maxBatch int, stats *WireStats) *clientConn {
	cc := &clientConn{
		conn:     conn,
		stats:    stats,
		inflight: make(map[uint64]chan callResult),
	}
	cc.fw = newFrameWriter(conn, maxBatch, stats, func(err error) {
		cc.fail(fmt.Errorf("%w: send to %s: %v", ErrUnavailable, addr, err))
	})
	return cc
}

// send writes one request. A write failure tears the connection down
// via the frameWriter's error hook.
func (cc *clientConn) send(req *request) error {
	return cc.fw.enqueue(func(b []byte) []byte { return appendRequest(b, req) })
}

// register claims an ID slot; it fails if the connection already broke.
func (cc *clientConn) register(id uint64, ch chan callResult) bool {
	cc.imu.Lock()
	defer cc.imu.Unlock()
	if cc.broken {
		return false
	}
	cc.inflight[id] = ch
	return true
}

// unregister abandons a call (context cancelled); a late response for
// the ID is discarded by the demux loop.
func (cc *clientConn) unregister(id uint64) {
	cc.imu.Lock()
	delete(cc.inflight, id)
	cc.imu.Unlock()
}

// complete routes one response to its waiting caller.
func (cc *clientConn) complete(resp response) {
	cc.imu.Lock()
	ch := cc.inflight[resp.ID]
	delete(cc.inflight, resp.ID)
	cc.imu.Unlock()
	if ch != nil {
		ch <- callResult{resp: resp}
	}
}

// fail marks the connection broken, closes it, and fails every in-flight
// call with err. Idempotent.
func (cc *clientConn) fail(err error) {
	cc.imu.Lock()
	if cc.broken {
		cc.imu.Unlock()
		return
	}
	cc.broken = true
	pending := cc.inflight
	cc.inflight = make(map[uint64]chan callResult)
	cc.imu.Unlock()
	cc.conn.Close()
	for _, ch := range pending {
		ch <- callResult{err: err}
	}
}

// isBroken reports whether fail has run.
func (cc *clientConn) isBroken() bool {
	cc.imu.Lock()
	defer cc.imu.Unlock()
	return cc.broken
}

// readLoop reads response frames, decoding each message and handing
// it to its caller, until the connection dies; then it fails whatever
// is still in flight.
func (cc *clientConn) readLoop(addr string) {
	br := bufio.NewReaderSize(cc.conn, 64<<10)
	for {
		buf, err := readFrame(br)
		if err != nil {
			cc.fail(fmt.Errorf("%w: receive from %s: %v", ErrUnavailable, addr, err))
			return
		}
		r := codec.NewReader(buf)
		msgs := 0
		for r.Remaining() > 0 {
			var resp response
			if err := readResponse(r, &resp); err != nil {
				putFrameBuf(buf)
				cc.fail(fmt.Errorf("%w: receive from %s: %v", ErrUnavailable, addr, err))
				return
			}
			msgs++
			cc.complete(resp)
		}
		cc.stats.noteRecv(len(buf), msgs)
		putFrameBuf(buf)
	}
}

// DialOption configures Dial.
type DialOption func(*Client)

// WithMaxBatch caps how many requests coalesce into one frame
// (0 = unbounded). WithMaxBatch(1) pins every request to its own frame,
// which is how the unbatched benchmark baseline is measured.
func WithMaxBatch(n int) DialOption {
	return func(c *Client) {
		if n > 0 {
			c.maxBatch = n
		}
	}
}

// Client is a multiplexed TCP connection to a remote representative. It
// implements rep.Directory and is safe for concurrent use: any number of
// goroutines may have calls outstanding on the one connection at once.
// Requests carry IDs; a single reader goroutine demultiplexes responses
// to their callers, so a slow call never blocks an unrelated one. Each
// call honors its own context (deadline or cancellation) independently —
// an abandoned call's late response is simply discarded. A broken
// connection fails all in-flight calls with ErrUnavailable and is
// redialed on the next call, with exponential backoff between failed
// dial attempts. A server that does not answer the preamble with
// exactly wireVersion counts as a failed dial (see wire.go).
type Client struct {
	addr   string
	nextID atomic.Uint64

	// maxBatch tunes the frameWriter.
	maxBatch int
	stats    WireStats

	mu       sync.Mutex
	cc       *clientConn
	dialing  chan struct{}
	nextDial time.Time
	wait     time.Duration
	name     string
	// rng jitters redial backoff (guarded by mu; lazily seeded from the
	// clock, so clients that lost the same server spread out).
	rng *rand.Rand
}

var _ rep.Directory = (*Client)(nil)

// Dial connects to a representative server and fetches its name.
func Dial(addr string, opts ...DialOption) (*Client, error) {
	c := &Client{addr: addr}
	for _, opt := range opts {
		opt(c)
	}
	resp, err := c.call(context.Background(), request{Op: opName})
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.name = resp.Name
	c.mu.Unlock()
	return c, nil
}

// WireStats returns the client's frame traffic counters, accumulated
// across redials.
func (c *Client) WireStats() *WireStats { return &c.stats }

// Close drops the connection, failing any in-flight calls with
// ErrUnavailable. The client remains usable: the next call redials.
func (c *Client) Close() error {
	c.mu.Lock()
	cc := c.cc
	c.cc = nil
	c.nextDial = time.Time{}
	c.wait = 0
	c.mu.Unlock()
	if cc != nil {
		cc.fail(fmt.Errorf("%w: %s: client closed", ErrUnavailable, c.addr))
	}
	return nil
}

// advanceBackoff steps the exponential redial backoff and returns the
// jittered delay to wait before the next dial attempt: uniform in
// [wait/2, wait). Called with c.mu held.
func (c *Client) advanceBackoff() time.Duration {
	if c.wait == 0 {
		c.wait = redialBase
	} else if c.wait < redialMax {
		c.wait *= 2
		if c.wait > redialMax {
			c.wait = redialMax
		}
	}
	if c.rng == nil {
		c.rng = rand.New(rand.NewSource(time.Now().UnixNano()))
	}
	half := c.wait / 2
	return half + time.Duration(c.rng.Int63n(int64(half)))
}

// dropConn forgets cc if it is still the current connection, so the next
// call dials afresh.
func (c *Client) dropConn(cc *clientConn) {
	c.mu.Lock()
	if c.cc == cc {
		c.cc = nil
	}
	c.mu.Unlock()
}

// dial connects and exchanges preambles. A server that closes the
// connection, stays silent past negotiateTimeout, or answers with
// anything but wireVersion fails the dial; the caller backs off and
// redials, never switching codec.
func (c *Client) dial(ctx context.Context) (net.Conn, error) {
	conn, err := (&net.Dialer{}).DialContext(ctx, "tcp", c.addr)
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(negotiateTimeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	_ = conn.SetDeadline(deadline)
	want := [2]byte{preambleByte, wireVersion}
	var reply [2]byte
	if _, err = conn.Write(want[:]); err == nil {
		_, err = io.ReadFull(conn, reply[:])
	}
	if err == nil && reply != want {
		err = fmt.Errorf("server answered preamble %x, want %x", reply, want)
	}
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("negotiate: %w", err)
	}
	_ = conn.SetDeadline(time.Time{})
	return conn, nil
}

// ensureConn returns a live connection, dialing when needed. Exactly one
// goroutine dials at a time; the others wait for its outcome (or their
// context). Consecutive dial failures back off exponentially, and a call
// arriving inside the backoff window waits it out (respecting ctx)
// rather than hammering the address.
func (c *Client) ensureConn(ctx context.Context) (*clientConn, error) {
	c.mu.Lock()
	for {
		if c.cc != nil && !c.cc.isBroken() {
			cc := c.cc
			c.mu.Unlock()
			return cc, nil
		}
		c.cc = nil
		if c.dialing != nil {
			done := c.dialing
			c.mu.Unlock()
			select {
			case <-done:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			c.mu.Lock()
			continue
		}
		if wait := time.Until(c.nextDial); wait > 0 {
			c.mu.Unlock()
			t := time.NewTimer(wait)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return nil, ctx.Err()
			}
			t.Stop()
			c.mu.Lock()
			continue
		}
		c.dialing = make(chan struct{})
		c.mu.Unlock()
		conn, err := c.dial(ctx)
		c.mu.Lock()
		close(c.dialing)
		c.dialing = nil
		if err != nil {
			c.nextDial = time.Now().Add(c.advanceBackoff())
			c.mu.Unlock()
			return nil, fmt.Errorf("%w: dial %s: %v", ErrUnavailable, c.addr, err)
		}
		c.wait = 0
		c.nextDial = time.Time{}
		cc := newClientConn(conn, c.addr, c.maxBatch, &c.stats)
		c.cc = cc
		go func() {
			cc.readLoop(c.addr)
			c.dropConn(cc)
		}()
		c.mu.Unlock()
		return cc, nil
	}
}

// resultChanPool recycles the per-call result channels. A channel is
// returned to the pool only after its call received from it (so it is
// provably empty); abandoned calls leak their channel to the garbage
// collector instead, because a late response may still be sent into it.
var resultChanPool = sync.Pool{
	New: func() any { return make(chan callResult, 1) },
}

// call performs one request/response exchange on the multiplexed
// connection. Many calls may be outstanding at once; each waits only for
// its own response or its own context.
func (c *Client) call(ctx context.Context, req request) (response, error) {
	// Carry the caller's configuration epoch across the wire so the
	// remote representative can fence stale epochs.
	req.Epoch = rep.EpochFromContext(ctx)
	for attempt := 0; ; attempt++ {
		cc, err := c.ensureConn(ctx)
		if err != nil {
			return response{}, err
		}
		// Propagate the remaining deadline budget (µs) so the server can
		// fast-reject work this caller will no longer wait for. Stamped
		// per attempt: a redial consumed part of the budget.
		if d, ok := ctx.Deadline(); ok {
			rem := time.Until(d)
			if rem <= 0 {
				return response{}, context.DeadlineExceeded
			}
			req.Deadline = uint64(rem / time.Microsecond)
			if req.Deadline == 0 {
				req.Deadline = 1
			}
		}
		req.ID = c.nextID.Add(1)
		ch := resultChanPool.Get().(chan callResult)
		if !cc.register(req.ID, ch) {
			// The connection broke between ensureConn and register;
			// retry once on a fresh dial, then give up.
			c.dropConn(cc)
			if attempt == 0 {
				continue
			}
			return response{}, fmt.Errorf("%w: %s: connection reset", ErrUnavailable, c.addr)
		}
		if err := cc.send(&req); err != nil {
			cc.unregister(req.ID)
			// The frameWriter already tore the connection down, unless
			// the failure was local to this one message.
			if cc.isBroken() {
				c.dropConn(cc)
			}
			return response{}, fmt.Errorf("%w: send to %s: %v", ErrUnavailable, c.addr, err)
		}
		select {
		case r := <-ch:
			resultChanPool.Put(ch)
			if r.err != nil {
				return response{}, r.err
			}
			return r.resp, decodeError(r.resp.Code, r.resp.Msg)
		case <-ctx.Done():
			cc.unregister(req.ID)
			return response{}, ctx.Err()
		}
	}
}

// Name implements rep.Directory.
func (c *Client) Name() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.name != "" {
		return c.name
	}
	return c.addr
}

// Lookup implements rep.Directory.
func (c *Client) Lookup(ctx context.Context, txn lock.TxnID, key keyspace.Key) (rep.LookupResult, error) {
	resp, err := c.call(ctx, request{Op: opLookup, Txn: uint64(txn), Key: key})
	if err != nil {
		return rep.LookupResult{}, err
	}
	return rep.LookupResult{Found: resp.Found, Version: resp.Version, Value: resp.Value}, nil
}

// Predecessor implements rep.Directory.
func (c *Client) Predecessor(ctx context.Context, txn lock.TxnID, key keyspace.Key) (rep.NeighborResult, error) {
	resp, err := c.call(ctx, request{Op: opPredecessor, Txn: uint64(txn), Key: key})
	if err != nil {
		return rep.NeighborResult{}, err
	}
	return rep.NeighborResult{Key: resp.Key, Version: resp.Version, Value: resp.Value, GapVersion: resp.GapVersion}, nil
}

// Successor implements rep.Directory.
func (c *Client) Successor(ctx context.Context, txn lock.TxnID, key keyspace.Key) (rep.NeighborResult, error) {
	resp, err := c.call(ctx, request{Op: opSuccessor, Txn: uint64(txn), Key: key})
	if err != nil {
		return rep.NeighborResult{}, err
	}
	return rep.NeighborResult{Key: resp.Key, Version: resp.Version, Value: resp.Value, GapVersion: resp.GapVersion}, nil
}

// PredecessorBatch implements rep.Directory.
func (c *Client) PredecessorBatch(ctx context.Context, txn lock.TxnID, key keyspace.Key, max int) ([]rep.NeighborResult, error) {
	resp, err := c.call(ctx, request{Op: opPredecessorBatch, Txn: uint64(txn), Key: key, Count: max})
	if err != nil {
		return nil, err
	}
	return resp.Neighbors, nil
}

// SuccessorBatch implements rep.Directory.
func (c *Client) SuccessorBatch(ctx context.Context, txn lock.TxnID, key keyspace.Key, max int) ([]rep.NeighborResult, error) {
	resp, err := c.call(ctx, request{Op: opSuccessorBatch, Txn: uint64(txn), Key: key, Count: max})
	if err != nil {
		return nil, err
	}
	return resp.Neighbors, nil
}

// Insert implements rep.Directory.
func (c *Client) Insert(ctx context.Context, txn lock.TxnID, key keyspace.Key, ver version.V, value string) error {
	_, err := c.call(ctx, request{Op: opInsert, Txn: uint64(txn), Key: key, Version: ver, Value: value})
	return err
}

// Coalesce implements rep.Directory.
func (c *Client) Coalesce(ctx context.Context, txn lock.TxnID, lo, hi keyspace.Key, ver version.V) (rep.CoalesceResult, error) {
	resp, err := c.call(ctx, request{Op: opCoalesce, Txn: uint64(txn), Key: lo, Hi: hi, Version: ver})
	if err != nil {
		return rep.CoalesceResult{}, err
	}
	return rep.CoalesceResult{DeletedKeys: resp.DeletedKeys}, nil
}

// Prepare implements rep.Directory.
func (c *Client) Prepare(ctx context.Context, txn lock.TxnID) error {
	_, err := c.call(ctx, request{Op: opPrepare, Txn: uint64(txn)})
	return err
}

// Commit implements rep.Directory.
func (c *Client) Commit(ctx context.Context, txn lock.TxnID) error {
	_, err := c.call(ctx, request{Op: opCommit, Txn: uint64(txn)})
	return err
}

// Abort implements rep.Directory.
func (c *Client) Abort(ctx context.Context, txn lock.TxnID) error {
	_, err := c.call(ctx, request{Op: opAbort, Txn: uint64(txn)})
	return err
}

// Status implements rep.Directory.
func (c *Client) Status(ctx context.Context, txn lock.TxnID) (rep.TxnStatus, error) {
	resp, err := c.call(ctx, request{Op: opStatus, Txn: uint64(txn)})
	if err != nil {
		return 0, err
	}
	return resp.TxnStatus, nil
}
