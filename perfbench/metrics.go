package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"repdir/internal/core"
	"repdir/internal/lock"
	"repdir/internal/rep"
	"repdir/internal/transport"
)

// counters is a snapshot of every counter the layers expose, plus the
// decorators' own counts. Per-replica slices are indexed by member.
type counters struct {
	clientCalls [][nMethods]uint64
	appends     []uint64
	syncs       []uint64
	walBytes    []uint64
	syncBusyNs  []int64
	repCounters []rep.Counters
	locks       []lock.Stats
	wireSent    []transport.WireSnapshot
	wireRecv    []transport.WireSnapshot
	serverRecv  []transport.WireSnapshot
	admission   []transport.AdmissionStats
	suites      []core.SuiteStats

	routerCross, routerRetries, routerOps float64

	cpuNs, sysNs    int64 // process CPU, and the system part of it
	mallocs, allocB uint64
	gcCPU           float64
	at              time.Time
}

var gcCPUMetric = []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}

func snapshot(d *deployment) counters {
	var c counters
	for _, r := range d.replicas() {
		c.clientCalls = append(c.clientCalls, r.client.counts())
		c.appends = append(c.appends, r.logTap.appends.Load())
		c.syncs = append(c.syncs, r.file.syncs.Load())
		c.walBytes = append(c.walBytes, r.file.bytes.Load())
		c.syncBusyNs = append(c.syncBusyNs, r.file.busyNs.Load())
		c.repCounters = append(c.repCounters, r.rep.Counters())
		c.locks = append(c.locks, r.rep.Locks().Stats())
		c.wireSent = append(c.wireSent, r.conn.WireStats().Sent())
		c.wireRecv = append(c.wireRecv, r.conn.WireStats().Recv())
		c.serverRecv = append(c.serverRecv, r.srv.WireStats().Recv())
		c.admission = append(c.admission, r.srv.AdmissionStats())
	}
	for _, g := range d.groups {
		c.suites = append(c.suites, g.suite.Stats())
	}
	c.routerCross, c.routerRetries, c.routerOps = d.routerCounters()

	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		c.sysNs = ru.Stime.Nano()
		c.cpuNs = ru.Utime.Nano() + c.sysNs
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs, c.allocB = ms.Mallocs, ms.TotalAlloc
	metrics.Read(gcCPUMetric)
	c.gcCPU = gcCPUMetric[0].Value.Float64()
	c.at = time.Now()
	return c
}

// window is what happened between two snapshots, over ops completed
// operations.
type window struct {
	a, b counters
	ops  float64
}

func (w window) perOp(x float64) float64 {
	if w.ops == 0 {
		return 0
	}
	return x / w.ops
}

func sumU(f func(i int) uint64, n int) float64 {
	t := 0.0
	for i := 0; i < n; i++ {
		t += float64(f(i))
	}
	return t
}

// counterMetrics are the per-layer metrics read from counters.
func counterMetrics(w window, m map[string]float64) {
	a, b := w.a, w.b
	n := len(b.appends)
	wall := b.at.Sub(a.at).Seconds()

	m["wal.fsyncs_per_op"] = w.perOp(sumU(func(i int) uint64 { return b.syncs[i] - a.syncs[i] }, n))
	m["wal.appends_per_op"] = w.perOp(sumU(func(i int) uint64 { return b.appends[i] - a.appends[i] }, n))
	m["wal.bytes_per_op"] = w.perOp(sumU(func(i int) uint64 { return b.walBytes[i] - a.walBytes[i] }, n))
	busiest := 0.0
	for i := 0; i < n; i++ {
		if f := time.Duration(b.syncBusyNs[i]-a.syncBusyNs[i]).Seconds() / wall; f > busiest {
			busiest = f
		}
	}
	m["wal.fsync_busy_frac_max"] = busiest

	m["lock.waits_per_op"] = w.perOp(sumU(func(i int) uint64 { return b.locks[i].Waits - a.locks[i].Waits }, n))
	m["lock.dies_per_op"] = w.perOp(sumU(func(i int) uint64 { return b.locks[i].Dies - a.locks[i].Dies }, n))
	m["txn.prepares_per_op"] = w.perOp(sumU(func(i int) uint64 { return b.repCounters[i].Prepares - a.repCounters[i].Prepares }, n))
	m["txn.commits_per_op"] = w.perOp(sumU(func(i int) uint64 { return b.repCounters[i].Commits - a.repCounters[i].Commits }, n))
	m["txn.aborts_per_op"] = w.perOp(sumU(func(i int) uint64 { return b.repCounters[i].Aborts - a.repCounters[i].Aborts }, n))

	for mt := method(0); mt < nMethods; mt++ {
		m["transport.calls_per_op."+methodNames[mt]] = w.perOp(sumU(func(i int) uint64 { return b.clientCalls[i][mt] - a.clientCalls[i][mt] }, n))
	}
	m["transport.bytes_per_op"] = w.perOp(sumU(func(i int) uint64 {
		return b.wireSent[i].Bytes - a.wireSent[i].Bytes + b.wireRecv[i].Bytes - a.wireRecv[i].Bytes
	}, n))
	frames := sumU(func(i int) uint64 { return b.wireSent[i].Frames - a.wireSent[i].Frames }, n)
	msgs := sumU(func(i int) uint64 { return b.wireSent[i].Msgs - a.wireSent[i].Msgs }, n)
	m["transport.msgs_per_frame"] = ratio(msgs, frames)
	served := sumU(func(i int) uint64 { return b.serverRecv[i].Msgs - a.serverRecv[i].Msgs }, n)
	m["transport.shed_frac"] = ratio(sumU(func(i int) uint64 { return b.admission[i].Shed - a.admission[i].Shed }, n), served)
	m["transport.expired_frac"] = ratio(sumU(func(i int) uint64 { return b.admission[i].Expired - a.admission[i].Expired }, n), served)

	share := 0.0
	for g := 0; g*replicasPerSuite < n; g++ {
		total, top := 0.0, 0.0
		for i := g * replicasPerSuite; i < (g+1)*replicasPerSuite; i++ {
			calls := 0.0
			for mt := method(0); mt < nMethods; mt++ {
				calls += float64(b.clientCalls[i][mt] - a.clientCalls[i][mt])
			}
			total += calls
			top = max(top, calls)
		}
		share = max(share, ratio(top, total))
	}
	m["quorum.busiest_member_share"] = share

	var retries, commits, attempts float64
	for i := range b.suites {
		retries += float64(b.suites[i].Retries - a.suites[i].Retries)
		commits += float64(b.suites[i].Commits - a.suites[i].Commits)
		attempts += float64(b.suites[i].Calls-a.suites[i].Calls) + float64(b.suites[i].Retries-a.suites[i].Retries)
	}
	m["core.retries_per_op"] = w.perOp(retries)
	m["core.useful_frac"] = ratio(commits, attempts)

	m["shard.cross_frac"] = ratio(b.routerCross-a.routerCross, b.routerOps-a.routerOps)
	m["shard.retries_per_op"] = w.perOp(b.routerRetries - a.routerRetries)

	m["process.cpu_us_per_op"] = w.perOp(float64(b.cpuNs-a.cpuNs) / 1e3)
	m["process.allocs_per_op"] = w.perOp(float64(b.mallocs - a.mallocs))
	m["process.alloc_bytes_per_op"] = w.perOp(float64(b.allocB - a.allocB))
	// The runtime adds a GC cycle's CPU when the cycle ends, so a window
	// in which none ended reads 0.
	m["process.gc_cpu_frac"] = ratio(b.gcCPU-a.gcCPU, float64(b.cpuNs-a.cpuNs)/1e9)
}

// msgsPerOp is the paper's cost unit: member calls per completed op.
func msgsPerOp(w window) float64 {
	return w.perOp(sumU(func(i int) uint64 {
		t := uint64(0)
		for mt := method(0); mt < nMethods; mt++ {
			t += w.b.clientCalls[i][mt] - w.a.clientCalls[i][mt]
		}
		return t
	}, len(w.b.clientCalls)))
}

func ratio(x, y float64) float64 {
	if y == 0 {
		return 0
	}
	return x / y
}

func completed(r phaseResult) int {
	n := 0
	for _, s := range r.samples {
		if s.res == outOK {
			n++
		}
	}
	return n
}

// driverMetrics are the instrument's own calibration numbers.
func driverMetrics(r phaseResult, m map[string]float64) {
	ran := func(s sample) bool { return s.res != outSkipped }
	m["driver.lateness_p99_us"] = quantile(sortedOf(r.samples, ran, func(s sample) float64 { return float64(s.lateness()) }), 0.99) / 1e3
	m["driver.queue_wait_p50_us"] = quantile(sortedOf(r.samples, ran, func(s sample) float64 { return float64(s.queueWait()) }), 0.5) / 1e3
}

// serviceMetrics are core.op_us_* (and shard.op_us_p50) from the
// driver's exact per-op service times.
func serviceMetrics(r phaseResult, sharded bool, m map[string]float64) {
	for k := opKind(0); k < nOps; k++ {
		s := sortedOf(r.samples, func(s sample) bool { return s.res == outOK && s.kind == k },
			func(s sample) float64 { return float64(s.service()) })
		m["core.op_us_p50."+opNames[k]] = quantile(s, 0.5) / 1e3
		m["core.op_us_p99."+opNames[k]] = quantile(s, 0.99) / 1e3
	}
	m["shard.op_us_p50"] = 0
	if sharded {
		s := sortedOf(r.samples, func(s sample) bool { return s.res == outOK },
			func(s sample) float64 { return float64(s.service()) })
		m["shard.op_us_p50"] = quantile(s, 0.5) / 1e3
	}
}

// durations returns the sorted durations (µs) of spans that keep.
func durations(spans []span, keep func(span) bool) []float64 {
	var out []float64
	for _, s := range spans {
		if keep(s) {
			out = append(out, float64(s.dur())/1e3)
		}
	}
	sort.Float64s(out)
	return out
}
