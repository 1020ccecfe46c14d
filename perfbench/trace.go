package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// Span analysis. A client span joins the server span of the same call
// by (transaction, member, method) and order; a server span contains
// the WAL appends its replica made for the same transaction during it;
// an append contains the device syncs its replica made during it.

// callParts splits one member call, as the client saw it, into the
// time each layer spent on it by itself.
type callParts struct {
	transport int64 // client round trip minus the server span: wire, codec, dispatch
	rep       int64 // server span minus WAL appends: rep logic, lock and mutex waits
	walAppend int64 // appends minus device syncs: encoding, buffered write
	walSync   int64 // device syncs
	matched   bool  // a server span was found for the call
}

type joinKey struct {
	txn    uint64
	member uint16
	method method
}

type walKey struct {
	txn    uint64
	member uint16
}

// traceIndex holds a traced phase's spans, joined.
type traceIndex struct {
	client    []span
	parts     []callParts // parallel to client
	server    []span
	serverWAL []int64 // parallel to server: append time inside it
	appends   []span
	syncs     []span
}

func indexSpans(spans []span) *traceIndex {
	t := &traceIndex{}
	for _, s := range spans {
		switch s.kind {
		case spanClient:
			t.client = append(t.client, s)
		case spanServer:
			t.server = append(t.server, s)
		case spanAppend:
			t.appends = append(t.appends, s)
		case spanSync:
			t.syncs = append(t.syncs, s)
		}
	}
	byStart := func(s []span) {
		sort.Slice(s, func(i, j int) bool { return s[i].start < s[j].start })
	}
	byStart(t.client)
	byStart(t.server)
	byStart(t.appends)
	byStart(t.syncs)

	syncsOf := map[uint16][]span{}
	for _, s := range t.syncs {
		syncsOf[s.member] = append(syncsOf[s.member], s)
	}
	// syncIn is the device time inside an append on the same member.
	syncIn := func(a span) int64 {
		list := syncsOf[a.member]
		i := sort.Search(len(list), func(i int) bool { return list[i].start >= a.start })
		total := int64(0)
		for ; i < len(list) && list[i].start <= a.end; i++ {
			if list[i].end <= a.end {
				total += list[i].dur()
			}
		}
		return total
	}
	appendsOf := map[walKey][]span{}
	for _, a := range t.appends {
		k := walKey{a.txn, a.member}
		appendsOf[k] = append(appendsOf[k], a)
	}

	serverParts := make([]callParts, len(t.server))
	t.serverWAL = make([]int64, len(t.server))
	serversOf := map[joinKey][]int{}
	for i, s := range t.server {
		var app, sync int64
		for _, a := range appendsOf[walKey{s.txn, s.member}] {
			if a.start >= s.start && a.end <= s.end {
				as := syncIn(a)
				app += a.dur() - as
				sync += as
			}
		}
		t.serverWAL[i] = app + sync
		serverParts[i] = callParts{rep: s.dur() - app - sync, walAppend: app, walSync: sync, matched: true}
		k := joinKey{s.txn, s.member, s.method}
		serversOf[k] = append(serversOf[k], i)
	}
	t.parts = make([]callParts, len(t.client))
	used := map[joinKey]int{}
	for i, c := range t.client {
		k := joinKey{c.txn, c.member, c.method}
		list := serversOf[k]
		n := used[k]
		if n >= len(list) {
			t.parts[i] = callParts{transport: c.dur()}
			continue
		}
		used[k] = n + 1
		s := t.server[list[n]]
		p := serverParts[list[n]]
		p.transport = c.dur() - s.dur()
		t.parts[i] = p
	}
	return t
}

// spanMetrics are the per-layer metrics only spans can give.
func (t *traceIndex) spanMetrics(m map[string]float64) {
	all := func(span) bool { return true }
	syncs := durations(t.syncs, all)
	m["wal.fsync_us_p50"] = quantile(syncs, 0.5)
	appends := durations(t.appends, all)
	m["wal.append_us_p50"] = quantile(appends, 0.5)
	m["wal.append_us_p99"] = quantile(appends, 0.99)

	groups := []struct {
		name    string
		methods []method
	}{
		{"lookup", []method{mLookup}},
		{"neighbor", []method{mPredecessor, mSuccessor, mPredecessorBatch, mSuccessorBatch}},
		{"insert", []method{mInsert}},
		{"coalesce", []method{mCoalesce}},
		{"prepare", []method{mPrepare}},
		{"commit", []method{mCommit}},
	}
	for _, g := range groups {
		d := durations(t.server, func(s span) bool {
			for _, mt := range g.methods {
				if s.method == mt {
					return true
				}
			}
			return false
		})
		m["rep.busy_us_p50."+g.name] = quantile(d, 0.5)
		if g.name == "lookup" {
			m["rep.busy_us_p99.lookup"] = quantile(d, 0.99)
		}
	}
	var self []float64
	for i, s := range t.server {
		self = append(self, float64(s.dur()-t.serverWAL[i])/1e3)
	}
	m["rep.self_us_mean"] = mean(self)

	m["transport.rtt_us_p50"] = quantile(durations(t.client, all), 0.5)
	m["transport.rtt_us_p99"] = quantile(durations(t.client, all), 0.99)
	var wire []float64
	for _, p := range t.parts {
		if p.matched {
			wire = append(wire, float64(p.transport)/1e3)
		}
	}
	m["transport.self_us_mean"] = mean(wire)
}

// opParts is one operation's service time split by layer. The parts
// sum to the service time exactly: core is the time no member call was
// outstanding, and fanout is the part of each quorum round not covered
// by the call that finished last (skew between parallel members).
type opParts struct {
	core, transport, rep, walAppend, walSync, fanout float64 // µs
}

// attribute splits each traced op's service time along its critical
// path: in every cluster of overlapping member calls, the call that
// ended last is the one the op waited for.
func (t *traceIndex) attribute(r phaseResult) map[uint32]opParts {
	callsOf := map[uint32][]int{}
	for i, c := range t.client {
		if c.op != 0 {
			callsOf[c.op] = append(callsOf[c.op], i)
		}
	}
	out := make(map[uint32]opParts, len(r.samples))
	for seq, s := range r.samples {
		if s.res != outOK {
			continue
		}
		id := uint32(seq + 1)
		var p opParts
		var union int64
		calls := callsOf[id] // sorted by start
		for i := 0; i < len(calls); {
			c0 := t.client[calls[i]]
			lo, hi, crit := c0.start, c0.end, calls[i]
			j := i + 1
			for ; j < len(calls) && t.client[calls[j]].start <= hi; j++ {
				if c := t.client[calls[j]]; c.end > hi {
					hi, crit = c.end, calls[j]
				}
			}
			union += hi - lo
			cp := t.parts[crit]
			p.fanout += float64(hi-lo-t.client[crit].dur()) / 1e3
			p.transport += float64(cp.transport) / 1e3
			p.rep += float64(cp.rep) / 1e3
			p.walAppend += float64(cp.walAppend) / 1e3
			p.walSync += float64(cp.walSync) / 1e3
			i = j
		}
		p.core = float64(s.service()-union) / 1e3
		out[id] = p
	}
	return out
}

// printAttribution prints, per op type, core.op_us_p50 as the sum of
// layer self times over the ops in the median band (ranks 45%-55% by
// service time) plus the stated residual: the band's mean differs from
// the p50 itself.
func printAttribution(w io.Writer, workload string, r phaseResult, parts map[uint32]opParts) {
	for k := opKind(0); k < nOps; k++ {
		type item struct {
			svc float64
			p   opParts
		}
		var items []item
		for seq, s := range r.samples {
			if s.res == outOK && s.kind == k {
				items = append(items, item{float64(s.service()) / 1e3, parts[uint32(seq+1)]})
			}
		}
		if len(items) == 0 {
			continue
		}
		sort.Slice(items, func(i, j int) bool { return items[i].svc < items[j].svc })
		svc := make([]float64, len(items))
		for i, it := range items {
			svc[i] = it.svc
		}
		p50 := quantile(svc, 0.5)
		lo := int(math.Floor(0.45 * float64(len(items))))
		hi := max(lo+1, int(math.Ceil(0.55*float64(len(items)))))
		var sum opParts
		for _, it := range items[lo:hi] {
			sum.core += it.p.core
			sum.transport += it.p.transport
			sum.rep += it.p.rep
			sum.walAppend += it.p.walAppend
			sum.walSync += it.p.walSync
			sum.fanout += it.p.fanout
		}
		n := float64(hi - lo)
		band := (sum.core + sum.transport + sum.rep + sum.walAppend + sum.walSync + sum.fanout) / n
		fmt.Fprintf(w, "attribution %s %s (n=%d, band=%d): core.op_us_p50 %.1f = core.self %.1f + transport.self %.1f + rep.self %.1f + wal.append %.1f + wal.fsync %.1f + residual[fanout skew %.1f + band offset %.1f] us\n",
			workload, opNames[k], len(items), hi-lo, p50,
			sum.core/n, sum.transport/n, sum.rep/n, sum.walAppend/n, sum.walSync/n, sum.fanout/n, p50-band)
	}
}

// writeSpans writes the traced phase's spans, one per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	kinds := [...]string{"client", "server", "append", "sync"}
	fmt.Fprintln(w, "kind method member op txn start_ns end_ns")
	for _, s := range spans {
		m := "-"
		if s.kind == spanClient || s.kind == spanServer {
			m = methodNames[s.method]
		}
		fmt.Fprintf(w, "%s %s %d %d %d %d %d\n", kinds[s.kind], m, s.member, s.op, s.txn, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
