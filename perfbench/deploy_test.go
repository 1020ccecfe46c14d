package main

import (
	"math"
	"testing"
	"time"
)

// A short traced write-churn phase on a small deployment: the checks
// pass, every WAL append joins a server span, and each op's layer parts
// add up to its service time.
func TestTracedPhaseOnSmallDeployment(t *testing.T) {
	keys := universe(2000)
	tr := newTracer()
	d, err := build(tr, 100*time.Microsecond, [][]string{keys})
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	r := newRunner(d, keys)
	gen := newGenerator("write-churn", 1, len(keys))

	tr.on.Store(true)
	res := r.phase(gen, phaseSpec{rate: 200, dur: 500 * time.Millisecond}, true)
	tr.on.Store(false)
	if err := checkAll(r, t.TempDir()); err != nil {
		t.Fatal(err)
	}

	idx := indexSpans(tr.take())
	if len(idx.client) == 0 || len(idx.server) == 0 || len(idx.appends) == 0 || len(idx.syncs) == 0 {
		t.Fatalf("spans: %d client, %d server, %d append, %d sync",
			len(idx.client), len(idx.server), len(idx.appends), len(idx.syncs))
	}
	var wal int64
	for _, w := range idx.serverWAL {
		wal += w
	}
	var appended int64
	for _, a := range idx.appends {
		appended += a.dur()
	}
	if wal != appended {
		t.Fatalf("server spans contain %d ns of appends, appends took %d ns", wal, appended)
	}

	parts := idx.attribute(res)
	for seq, s := range res.samples {
		if s.res != outOK {
			continue
		}
		p := parts[uint32(seq+1)]
		sum := p.core + p.transport + p.rep + p.walAppend + p.walSync + p.fanout
		if svc := float64(s.service()) / 1e3; math.Abs(sum-svc) > 0.01 {
			t.Fatalf("op %d: parts sum to %.2f us, service %.2f us (%+v)", seq, sum, svc, p)
		}
	}
}
