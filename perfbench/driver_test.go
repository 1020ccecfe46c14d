package main

import (
	"math"
	"testing"
	"time"
)

func TestQuantileIsAnExactSample(t *testing.T) {
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	cases := []struct {
		sorted []float64
		q      float64
		want   float64
	}{
		{hundred, 0.5, 50},
		{hundred, 0.99, 99},
		{hundred, 1, 100},
		{hundred, 0, 1},
		{[]float64{7}, 0.99, 7},
		{[]float64{1, 2}, 0.5, 1},
		{[]float64{1, 2, 3}, 0.5, 2},
		{[]float64{0.51, 0.6, 0.9, 1.02}, 0.75, 0.9},
		{nil, 0.5, 0},
	}
	for _, c := range cases {
		if got := quantile(c.sorted, c.q); got != c.want {
			t.Errorf("quantile(%v, %v) = %v, want %v", c.sorted, c.q, got, c.want)
		}
	}
}

func TestSummarizeCountsFailuresAsMissingTheLimit(t *testing.T) {
	r := phaseResult{samples: []sample{
		{due: 0, ended: 10, res: outOK},
		{due: 0, ended: 20, res: outOK},
		{due: 0, ended: 5, res: outFailed},
		{due: 0, ended: 1, res: outSkipped},
	}}
	l := summarize(r)
	if l.attempted != 3 || l.failed != 1 {
		t.Fatalf("attempted %d failed %d, want 3 and 1", l.attempted, l.failed)
	}
	if !math.IsInf(l.q(1), 1) || l.q(0.5) != 20 {
		t.Fatalf("quantiles %v, want the failure above every response", l.sorted)
	}
	if got := l.errorFrac(); got != 1.0/3 {
		t.Fatalf("errorFrac %v, want 1/3", got)
	}
}

func TestWindowsSplitByDueOrder(t *testing.T) {
	r := phaseResult{samples: make([]sample, 10)}
	for i := range r.samples {
		r.samples[i].due = int64(i)
	}
	ws := windows(r, 3)
	n := 0
	for _, w := range ws {
		for _, s := range w.samples {
			if s.due != int64(n) {
				t.Fatalf("window sample %d has due %d", n, s.due)
			}
			n++
		}
	}
	if n != 10 {
		t.Fatalf("windows hold %d samples, want 10", n)
	}
}

// The pacer against a no-op target: every arrival is released once, in
// due order, never before it is due, and the driver's own floor is far
// below any latency limit the workloads use.
func TestPacerAgainstNoOpTarget(t *testing.T) {
	const rate = 2000
	r := floor(rate, time.Second)
	if len(r.samples) != rate {
		t.Fatalf("%d arrivals, want %d", len(r.samples), rate)
	}
	var prevDue int64 = -1
	for i, s := range r.samples {
		if s.res != outOK {
			t.Fatalf("arrival %d: outcome %d, want ok", i, s.res)
		}
		if s.due <= prevDue {
			t.Fatalf("arrival %d due at %d, not after %d", i, s.due, prevDue)
		}
		prevDue = s.due
		if s.lateness() < 0 || s.queueWait() < 0 || s.service() < 0 {
			t.Fatalf("arrival %d: negative interval %+v", i, s)
		}
	}
	wantGap := float64(time.Second) / rate
	if gap := float64(r.samples[rate-1].due-r.samples[0].due) / (rate - 1); math.Abs(gap-wantGap) > 1 {
		t.Fatalf("mean spacing %.1f ns, want %.1f", gap, wantGap)
	}
	late := sortedOf(r.samples, func(sample) bool { return true }, func(s sample) float64 { return float64(s.lateness()) })
	l := summarize(r)
	t.Logf("no-op floor at %d/s: lateness p50 %.1f us p99 %.1f us; response p50 %.1f us p99 %.1f us",
		rate, quantile(late, 0.5)/1e3, quantile(late, 0.99)/1e3, l.q(0.5)/1e3, l.q(0.99)/1e3)
	// Loose enough for a shared host's CPU steal, tight enough to catch
	// a pacer that sleeps with millisecond granularity on every arrival.
	if p50 := l.q(0.5); p50 > float64(500*time.Microsecond) {
		t.Fatalf("no-op response p50 %.1f us: the pacer, not the target, sets the floor", p50/1e3)
	}
}

func TestPhaseCutShortByLimit(t *testing.T) {
	r := runPhase(phaseSpec{rate: 200, dur: time.Second, limit: time.Millisecond}, func(int) (opKind, outcome) {
		time.Sleep(3 * time.Millisecond)
		return opLookup, outOK
	})
	if !r.cut {
		t.Fatal("phase whose every op misses the limit was not cut short")
	}
	ran, skipped := 0, 0
	for _, s := range r.samples {
		switch s.res {
		case outSkipped:
			skipped++
		case outOK:
			ran++
			if s.ended == 0 {
				t.Fatal("an arrival counted as run has no end time")
			}
		}
	}
	if skipped == 0 || ran == 0 || ran+skipped != len(r.samples) {
		t.Fatalf("ran %d skipped %d of %d", ran, skipped, len(r.samples))
	}
}

func TestSearchCapacityFindsTheFirstEdge(t *testing.T) {
	for _, capacity := range []float64{450, 1000, 2500} {
		tried := 0
		got := searchCapacity(600, 600 <= capacity, func(rate float64) bool {
			tried++
			return rate <= capacity
		})
		if tried > searchSteps+1 {
			t.Fatalf("capacity %v: %d rates tried, more than %d", capacity, tried, searchSteps+1)
		}
		if got > capacity || got < capacity/math.Sqrt(searchStep) {
			t.Fatalf("capacity %v: search found %v", capacity, got)
		}
	}
	// A rate above the first failure that passes again is not capacity.
	dip := func(rate float64) bool { return rate < 700 || rate > 900 }
	if got := searchCapacity(600, true, dip); got >= 700 {
		t.Fatalf("search skipped the failing band: %v", got)
	}
}
