// Command perfbench is the repository's benchmark. It builds real
// 3-replica (R=2, W=2) suites over loopback TCP in one process, preloads
// them, and drives one of three open-loop workloads through the public
// directory API (see workloads.json for why each exists):
//
//	perfbench -workload read-mostly -seed 1 -seconds 20 -trace 0
//
// With -trace 0 it prints the end-to-end metrics; with -trace 1 the
// per-layer metrics, the per-op attribution table and the tracing
// overhead. Every run checks the directory's answers and exits non-zero
// naming the check that failed. The last line of standard output is the
// JSON result.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

const (
	// The floor phase runs long enough for about 1000 no-op arrivals at
	// the workload's rate, within these bounds.
	minFloorDur = 2 * time.Second
	maxFloorDur = 5 * time.Second
	warmupDur   = time.Second
	// floorShare is the largest share of the latency limit the driver's
	// own no-op p99 may take, measured in at most floorTries tries.
	floorShare = 0.1
	floorTries = 3
	// Capacity search: the largest tolerated error fraction, the ratio
	// between successive rates the search tries, and the most rates it
	// climbs. Each rate runs for 1/searchSlices of the run's seconds.
	maxErrorFrac = 0.001
	searchStep   = 1.25
	searchSteps  = 10
	searchSlices = 20
	// fixedWindows is how many consecutive windows the fixed-rate phase
	// is cut into; p50_ms and p99_ms are the medians of the windows'
	// quantiles, so a burst of CPU steal on a shared host moves one
	// window, not the result.
	fixedWindows = 5
)

// e2eUnits are the end-to-end metrics in a -trace 0 run's JSON: the
// ones that stay steady on a shared host whose CPU steal swings from a
// few percent to over a third. p50_ms, p99_ms, capacity_ops and
// error_frac are printed by name every run but left out of the JSON:
// under heavy steal they moved by several times between runs of the
// same code, more than any bound can absorb.
var e2eUnits = map[string]string{
	"cpu_us_per_op":      "us",
	"msgs_per_op":        "msgs/op",
	"setup_s":            "s",
	"heap_bytes_per_key": "B/key",
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		var ce *checkError
		if errors.As(err, &ce) {
			fmt.Println("FAILED check", ce.name)
		}
		os.Exit(1)
	}
}

func run() error {
	var (
		name    = flag.String("workload", "", "workload: read-mostly, write-churn or scan-sharded")
		seed    = flag.Int64("seed", 1, "seed the workload's inputs are made from")
		seconds = flag.Int("seconds", 20, "measured seconds per run")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		dir     = flag.String("dir", ".bench_build", "directory for WAL files and traces")
	)
	flag.Parse()
	cfg, err := loadConfig()
	if err != nil {
		return err
	}
	wc, ok := cfg.Workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return errors.New("-seconds must be at least 1 and -trace 0 or 1")
	}
	limit := time.Duration(wc.P99LimitMs * float64(time.Millisecond))
	flush := time.Duration(cfg.FlushModelMs * float64(time.Millisecond))
	keys := universe(cfg.UniverseKeys)
	slices := [][]string{keys}
	if wc.Shards == 2 {
		slices = [][]string{keys[:len(keys)/2], keys[len(keys)/2:]}
	}
	fmt.Printf("workload %s seed %d: rate %.0f ops/s, p99 limit %.0f ms, modelled flush %.2f ms, %d keys, %d suite(s) of %d replicas, GOMAXPROCS %d\n",
		*name, *seed, wc.RateOps, wc.P99LimitMs, cfg.FlushModelMs, len(keys), len(slices), replicasPerSuite, runtime.GOMAXPROCS(0))

	runDir := filepath.Join(*dir, fmt.Sprintf("run-%d", os.Getpid()))
	defer os.RemoveAll(runDir)
	tr := newTracer()
	repeats := cfg.SetupRepeats
	if *trace == 1 {
		repeats = 1
	}
	var setups, heaps []float64
	var d *deployment
	for i := 0; i < repeats; i++ {
		if d != nil {
			d.close()
		}
		runtime.GC()
		t0 := time.Now()
		d, err = build(tr, flush, slices)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		heaps = append(heaps, float64(ms.HeapAlloc-d.harnessBytes())/float64(len(keys)))
	}
	defer d.close()
	// Return the discarded set-ups' memory to the OS now, so the
	// runtime's background scavenger does not spend the measured
	// phases' CPU doing it.
	debug.FreeOSMemory()
	fmt.Printf("setup_s %.4f s (median of %d: %v)\n", median(setups), len(setups), setups)

	floorDur := min(max(time.Duration(1000/wc.RateOps*float64(time.Second)), minFloorDur), maxFloorDur)
	// The floor's p99 is taken the way p99_ms is: the median of the
	// windows' p99s. A floor over its share is measured again, twice at
	// most, so a brief burst of CPU steal on a shared host does not
	// fail the run; a pacer that is really too slow fails every time.
	var floorP99 float64
	for try := 1; ; try++ {
		fr := floor(wc.RateOps, floorDur)
		var p99s []float64
		for _, win := range windows(fr, fixedWindows) {
			p99s = append(p99s, summarize(win).q(0.99))
		}
		floorP99 = median(p99s)
		fmt.Printf("driver floor: no-op p99 %.1f us at %.0f ops/s (median of %d windows of ~%d; whole phase %.1f us), limit %.1f us\n",
			floorP99/1e3, wc.RateOps, fixedWindows, len(fr.samples)/fixedWindows, summarize(fr).q(0.99)/1e3, floorShare*float64(limit)/1e3)
		if floorP99 <= floorShare*float64(limit) {
			break
		}
		if try == floorTries {
			return failed("driver-floor", "no-op p99 %.1f us exceeds %.0f%% of the %v limit in %d tries", floorP99/1e3, 100*floorShare, limit, try)
		}
	}

	r := newRunner(d, keys)
	gen := newGenerator(*name, *seed, len(keys))
	r.phase(gen, phaseSpec{rate: wc.RateOps, dur: warmupDur}, false)

	var out result
	if *trace == 0 {
		out, err = endToEnd(r, gen, wc, limit, time.Duration(*seconds)*time.Second)
		if err == nil {
			out.Metrics["setup_s"] = metric{median(setups), e2eUnits["setup_s"]}
			out.Metrics["heap_bytes_per_key"] = metric{median(heaps), e2eUnits["heap_bytes_per_key"]}
		}
	} else {
		out, err = traced(r, gen, *name, wc, time.Duration(*seconds)*time.Second, floorP99, *dir)
	}
	if err != nil {
		return err
	}
	t0 := time.Now()
	if err := checkAll(r, runDir); err != nil {
		return err
	}
	fmt.Printf("checks took %.2f s\n", time.Since(t0).Seconds())
	fmt.Println("checks passed: read-result, version-dominance, wal-replay, suite-accounting, driver-floor")
	out.Correct = true
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// endToEnd measures the fixed-rate phase and the capacity search.
func endToEnd(r *runner, gen *generator, wc workloadConfig, limit, total time.Duration) (result, error) {
	fixedDur := total * 3 / 5
	stepDur := total / searchSlices

	runtime.GC()
	before := snapshot(r.d)
	fixed := r.phase(gen, phaseSpec{rate: wc.RateOps, dur: fixedDur}, false)
	w := window{a: before, b: snapshot(r.d), ops: float64(completed(fixed))}
	lat := summarize(fixed)
	if lat.attempted == 0 || w.ops == 0 {
		return result{}, errors.New("fixed-rate phase completed no operation")
	}

	passes := func(rate float64, res phaseResult) (bool, latencies) {
		l := summarize(res)
		ok := !res.cut && l.q(0.99) <= float64(limit) && l.errorFrac() <= maxErrorFrac &&
			float64(res.backlog) <= rate*limit.Seconds()
		return ok, l
	}
	// capacity is the throughput completed at the highest offered rate
	// that passes: the offered rates sit on a fixed ladder, the
	// completed throughput is measured.
	var capacity float64
	fixedOK, _ := passes(wc.RateOps, fixed)
	if fixedOK {
		capacity = throughput(fixed)
	}
	edge := searchCapacity(wc.RateOps, fixedOK, func(rate float64) bool {
		// Load never makes a slow host faster, so a pass stands; a fail
		// is confirmed once, so a brief burst of CPU steal on a shared
		// host cannot end the search early.
		for try := 0; try < 2; try++ {
			runtime.GC()
			res := r.phase(gen, phaseSpec{rate: rate, dur: stepDur, limit: limit}, false)
			ok, l := passes(rate, res)
			fmt.Printf("  capacity step %.0f ops/s: p99 %.2f ms (n=%d), error_frac %.4f, backlog %d, cut %v -> %v\n",
				rate, l.q(0.99)/1e6, l.attempted, l.errorFrac(), res.backlog, res.cut, ok)
			if ok {
				capacity = max(capacity, throughput(res))
				return true
			}
		}
		return false
	})

	var p50s, p99s []float64
	for _, win := range windows(fixed, fixedWindows) {
		l := summarize(win)
		p50s = append(p50s, l.q(0.5)/1e6)
		p99s = append(p99s, l.q(0.99)/1e6)
	}
	p50, p99 := median(p50s), median(p99s)
	perWin := lat.attempted / fixedWindows
	msgs := msgsPerOp(w)
	cpu := w.perOp(float64(w.b.cpuNs-w.a.cpuNs) / 1e3)
	fmt.Printf("p50_ms %.4f ms (median of %d windows of ~%d ops at %.0f ops/s: %.3f; whole phase %.4f ms, n=%d)\n",
		p50, fixedWindows, perWin, wc.RateOps, p50s, lat.q(0.5)/1e6, lat.attempted)
	fmt.Printf("p99_ms %.4f ms (median of %d windows, ~%d samples above p99 in each: %.3f; whole phase %.4f ms)\n",
		p99, fixedWindows, perWin-int(math.Ceil(0.99*float64(perWin))), p99s, lat.q(0.99)/1e6)
	fmt.Printf("error_frac %.6f (%d failed of %d attempted)\n", lat.errorFrac(), lat.failed, lat.attempted)
	fmt.Printf("msgs_per_op %.4f msgs/op (%d completed ops)\n", msgs, int(w.ops))
	fmt.Printf("cpu_us_per_op %.2f us (process user+system CPU over %d completed ops; system %.2f us)\n",
		cpu, int(w.ops), w.perOp(float64(w.b.sysNs-w.a.sysNs)/1e3))
	fmt.Printf("capacity_ops %.1f ops/s completed at offered %.0f ops/s, the highest meeting p99 <= %v, error_frac <= %.3f, no growing backlog (resolution %.0f%%)\n",
		capacity, edge, limit, maxErrorFrac, 100*(math.Sqrt(searchStep)-1))
	return result{
		Attempted: lat.attempted,
		Failed:    lat.failed,
		Metrics: map[string]metric{
			"msgs_per_op":   {msgs, e2eUnits["msgs_per_op"]},
			"cpu_us_per_op": {cpu, e2eUnits["cpu_us_per_op"]},
		},
	}, nil
}

// searchCapacity climbs from start by searchStep until a rate fails
// (or, when start fails, descends until one passes), then tries the
// geometric midpoint of the last pass and the first failure once.
// Latency need not rise monotonically with the offered rate, so the
// result is the edge below the first failure: the highest rate up to
// which every rate tried passed. Its resolution is about half a step.
func searchCapacity(start float64, startPasses bool, passes func(rate float64) bool) float64 {
	lo, hi := 0.0, 0.0
	if startPasses {
		lo = start
		for i := 0; i < searchSteps && hi == 0; i++ {
			if r := lo * searchStep; passes(r) {
				lo = r
			} else {
				hi = r
			}
		}
	} else {
		hi = start
		for i := 0; i < searchSteps && lo == 0; i++ {
			if r := hi / searchStep; passes(r) {
				lo = r
			} else {
				hi = r
			}
		}
	}
	if lo > 0 && hi > 0 {
		if mid := math.Sqrt(lo * hi); passes(mid) {
			lo = mid
		}
	}
	return lo
}

// traced runs the same fixed rate untraced, then traced, and reports
// the per-layer metrics, the attribution table and the overhead.
func traced(r *runner, gen *generator, name string, wc workloadConfig, total time.Duration, floorP99 float64, dir string) (result, error) {
	phaseDur := total / 2

	runtime.GC()
	a := snapshot(r.d)
	plain := r.phase(gen, phaseSpec{rate: wc.RateOps, dur: phaseDur}, false)
	plainW := window{a: a, b: snapshot(r.d), ops: float64(completed(plain))}

	runtime.GC()
	b := snapshot(r.d)
	r.d.tr.on.Store(true)
	tphase := r.phase(gen, phaseSpec{rate: wc.RateOps, dur: phaseDur}, true)
	r.d.tr.on.Store(false)
	tracedW := window{a: b, b: snapshot(r.d), ops: float64(completed(tphase))}
	spans := r.d.tr.take()
	if plainW.ops == 0 || tracedW.ops == 0 {
		return result{}, errors.New("traced run completed no operation")
	}

	idx := indexSpans(spans)
	m := layerMetrics(plainW, tracedW, plain, tphase, idx, floorP99, r.d.router != nil)

	pl, tl := summarize(plain), summarize(tphase)
	fmt.Printf("tracing overhead: response p50 %.1f us traced vs %.1f us untraced (%+.1f us), p99 %.1f vs %.1f us; %d spans\n",
		tl.q(0.5)/1e3, pl.q(0.5)/1e3, m["driver.trace_overhead_us_p50"], tl.q(0.99)/1e3, pl.q(0.99)/1e3, len(spans))
	printAttribution(os.Stdout, name, tphase, idx.attribute(tphase))

	traceDir := filepath.Join(dir, "traces")
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return result{}, err
	}
	path := filepath.Join(traceDir, name+".spans")
	if err := writeSpans(path, spans); err != nil {
		return result{}, fmt.Errorf("write spans: %w", err)
	}
	fmt.Printf("spans written to %s\n", path)

	out := result{Attempted: tl.attempted, Failed: tl.failed, Metrics: map[string]metric{}}
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		u := layerUnit(k)
		fmt.Printf("%s %.4f %s\n", k, m[k], u)
		out.Metrics[k] = metric{m[k], u}
	}
	return out, nil
}

// layerMetrics assembles the per-layer metrics. Counts come from the
// traced window (tracing does not change them); process costs and the
// driver's own numbers from the untraced one, which tracing would
// inflate; times from the spans.
func layerMetrics(plainW, tracedW window, plain, tphase phaseResult, idx *traceIndex, floorP99 float64, sharded bool) map[string]float64 {
	m := map[string]float64{}
	counterMetrics(tracedW, m)
	untraced := map[string]float64{}
	counterMetrics(plainW, untraced)
	for _, k := range []string{"process.cpu_us_per_op", "process.allocs_per_op", "process.alloc_bytes_per_op", "process.gc_cpu_frac"} {
		m[k] = untraced[k]
	}
	driverMetrics(plain, m)
	m["driver.floor_p99_us"] = floorP99 / 1e3
	serviceMetrics(tphase, sharded, m)
	idx.spanMetrics(m)
	m["driver.trace_overhead_us_p50"] = (summarize(tphase).q(0.5) - summarize(plain).q(0.5)) / 1e3
	return m
}

// layerUnit is the unit of a per-layer metric, from its name.
func layerUnit(name string) string {
	switch {
	case strings.Contains(name, "_us"):
		return "us"
	case strings.Contains(name, "bytes_per_op"):
		return "B/op"
	case strings.Contains(name, "_frac") || strings.Contains(name, "_share"):
		return "frac"
	case strings.Contains(name, "per_frame"):
		return "msgs/frame"
	default:
		return "1/op"
	}
}
