package main

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The open-loop driver. Arrivals are due at a fixed rate whatever the
// directory does. One pacer goroutine releases every due arrival each
// time it wakes; it parks with nanosleep until spinWindow before the
// next due time and spins the rest. A fixed pool of executors runs the
// released arrivals. Every arrival's response time counts from when it
// was due, so a stall is charged to every arrival it delays, and the
// pacer's own lateness is recorded beside it.

const (
	// executors bounds the operations in flight; arrivals beyond it
	// wait in the queue and their wait is part of their response time.
	executors = 32
	// spinWindow is how long before a due time the pacer stops parking
	// and spins. nanosleep wakes about 70µs late on a typical VM; a
	// window that covered it would burn up to a tenth of a CPU at 1000
	// arrivals/s and charge it to cpu_us_per_op, so the pacer accepts
	// that lateness, which it records.
	spinWindow = 20 * time.Microsecond
)

// outcome classifies one arrival.
type outcome uint8

const (
	outOK      outcome = iota // completed, including ErrKeyExists/ErrKeyNotFound
	outFailed                 // returned any other error
	outSkipped                // never started: the phase was cut short
)

// sample is one arrival. Times are ns since the phase epoch.
type sample struct {
	due, released, started, ended int64
	kind                          opKind
	res                           outcome
}

func (s sample) response() int64  { return s.ended - s.due }
func (s sample) service() int64   { return s.ended - s.started }
func (s sample) lateness() int64  { return s.released - s.due }
func (s sample) queueWait() int64 { return s.started - s.released }

// phaseSpec is one open-loop phase.
type phaseSpec struct {
	rate float64
	dur  time.Duration
	// limit, when positive, cuts the phase short once more than 1% of
	// its arrivals have failed or exceeded it: the p99 limit can no
	// longer be met.
	limit time.Duration
}

// phaseResult is what a phase measured.
type phaseResult struct {
	samples []sample
	// backlog is the number of arrivals released but not yet started
	// when the last arrival was due.
	backlog int
	// cut reports that the phase was stopped early by its limit.
	cut bool
	// wall is from the first due time to the last completion.
	wall time.Duration
}

// runPhase drives exec open loop. exec runs arrival seq and reports
// its outcome; it must not be cancelled half way, so that no
// transaction is abandoned in doubt.
func runPhase(p phaseSpec, exec func(seq int) (opKind, outcome)) phaseResult {
	n := int(p.rate * p.dur.Seconds())
	if n < 1 {
		n = 1
	}
	interval := float64(time.Second) / p.rate
	samples := make([]sample, n)
	// The queue holds every arrival of the phase, so the pacer never
	// blocks on a busy executor pool: an open loop does not slow down.
	queue := make(chan int, n)
	var stop atomic.Bool
	var bad atomic.Int64
	maxBad := int64(n / 100)
	limit := int64(p.limit)

	epoch := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < executors; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seq := range queue {
				s := &samples[seq]
				if stop.Load() {
					s.res = outSkipped
					continue
				}
				s.started = int64(time.Since(epoch))
				s.kind, s.res = exec(seq)
				s.ended = int64(time.Since(epoch))
				if limit > 0 && (s.res != outOK || s.response() > limit) && bad.Add(1) > maxBad {
					stop.Store(true)
				}
			}
		}()
	}

	lead := int64(10 * time.Millisecond)
	backlog := 0
	for i := 0; i < n && !stop.Load(); {
		due := lead + int64(float64(i)*interval)
		now := waitUntil(epoch, due)
		for ; i < n; i++ {
			d := lead + int64(float64(i)*interval)
			if d > now {
				break
			}
			samples[i].due, samples[i].released = d, now
			queue <- i
		}
		// Let the executors take what was released before the pacer
		// blocks its thread in nanosleep: a goroutine readied here waits
		// in this P's run queue until the scheduler takes it elsewhere.
		runtime.Gosched()
		if i == n {
			backlog = len(queue)
		}
	}
	cut := stop.Load()
	if cut {
		// Arrivals the pacer never released are skipped, not failed.
		for i := range samples {
			if samples[i].released == 0 {
				samples[i].res = outSkipped
			}
		}
	}
	close(queue)
	wg.Wait()
	last := int64(0)
	for _, s := range samples {
		if s.res != outSkipped && s.ended > last {
			last = s.ended
		}
	}
	return phaseResult{samples: samples, backlog: backlog, cut: cut, wall: time.Duration(last - lead)}
}

// waitUntil parks, then spins, until due ns after epoch, and returns
// the time it woke.
func waitUntil(epoch time.Time, due int64) int64 {
	for {
		now := int64(time.Since(epoch))
		rem := due - now
		if rem <= 0 {
			return now
		}
		if rem > int64(spinWindow) {
			sleepThread(time.Duration(rem - int64(spinWindow)))
			continue
		}
		runtime.Gosched()
	}
}

// throughput is the phase's completed operations per second, from the
// first due time to the last completion.
func throughput(r phaseResult) float64 {
	if r.wall <= 0 {
		return 0
	}
	return float64(completed(r)) / r.wall.Seconds()
}

// windows cuts a phase into k consecutive windows by due time.
func windows(r phaseResult, k int) []phaseResult {
	out := make([]phaseResult, k)
	n := len(r.samples)
	for i := range out {
		out[i].samples = r.samples[i*n/k : (i+1)*n/k]
	}
	return out
}

// sleepThread blocks the calling thread for d with nanosleep, which
// wakes within tens of microseconds where time.Sleep may wake a
// millisecond late on an idle host.
func sleepThread(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// floor drives a no-op target at rate for dur: whatever response time
// it shows is the driver's own, charged to every real measurement.
func floor(rate float64, dur time.Duration) phaseResult {
	return runPhase(phaseSpec{rate: rate, dur: dur}, func(int) (opKind, outcome) { return opLookup, outOK })
}

// quantile returns the q-quantile of sorted by the nearest-rank
// method: the smallest sample with at least q of all samples at or
// below it. It is an exact sample, never an interpolation or a bucket
// bound.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// sortedOf returns the values f picks from the samples that keep,
// sorted ascending.
func sortedOf(samples []sample, keep func(sample) bool, f func(sample) float64) []float64 {
	out := make([]float64, 0, len(samples))
	for _, s := range samples {
		if keep(s) {
			out = append(out, f(s))
		}
	}
	sort.Float64s(out)
	return out
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// latencies summarises a phase the way the end-to-end metrics need it:
// response times of every arrival that ran, with failures counted as
// missing any limit (+Inf).
type latencies struct {
	attempted, failed int
	sorted            []float64 // response ns, failures as +Inf
}

func summarize(r phaseResult) latencies {
	var l latencies
	for _, s := range r.samples {
		if s.res == outSkipped {
			continue
		}
		l.attempted++
		v := float64(s.response())
		if s.res == outFailed {
			l.failed++
			v = math.Inf(1)
		}
		l.sorted = append(l.sorted, v)
	}
	sort.Float64s(l.sorted)
	return l
}

func (l latencies) q(q float64) float64 { return quantile(l.sorted, q) }

func (l latencies) errorFrac() float64 {
	if l.attempted == 0 {
		return 0
	}
	return float64(l.failed) / float64(l.attempted)
}
