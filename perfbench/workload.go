package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repdir/internal/core"
)

//go:embed workloads.json
var configJSON []byte

// config is workloads.json: the fixed rates, latency limits and device
// model the program runs with, and the documentation of each workload.
type config struct {
	FlushModelMs float64                   `json:"flush_model_ms"`
	UniverseKeys int                       `json:"universe_keys"`
	SetupRepeats int                       `json:"setup_repeats"`
	Workloads    map[string]workloadConfig `json:"workloads"`
}

type workloadConfig struct {
	RateOps    float64 `json:"rate_ops"`
	P99LimitMs float64 `json:"p99_limit_ms"`
	Shards     int     `json:"shards"`
}

func loadConfig() (config, error) {
	var c config
	if err := json.Unmarshal(configJSON, &c); err != nil {
		return c, fmt.Errorf("workloads.json: %w", err)
	}
	return c, nil
}

// opKind is a directory operation of the public API.
type opKind uint8

const (
	opLookup opKind = iota
	opUpdate
	opInsert
	opDelete
	opScan
	nOps
)

var opNames = [nOps]string{"lookup", "update", "insert", "delete", "scan"}

// op is one generated input: an operation and a universe key index.
type op struct {
	kind opKind
	key  int32
}

// scanLimit is the entry count of every scan in scan-sharded.
const scanLimit = 50

// zipfS is the Zipf exponent of read-mostly and write-churn keys.
const zipfS = 1.1

// universe returns the keys, zero-padded so that key order is index
// order.
func universe(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%07d", i)
	}
	return keys
}

// generator makes a workload's inputs from the seed alone.
type generator struct {
	name string
	rng  *rand.Rand
	zipf *rand.Zipf
	perm []int32 // Zipf rank -> key index, so hot keys are scattered
	n    int
}

func newGenerator(name string, seed int64, n int) *generator {
	rng := rand.New(rand.NewSource(seed))
	g := &generator{name: name, rng: rng, n: n}
	g.zipf = rand.NewZipf(rng, zipfS, 1, uint64(n-1))
	p := rng.Perm(n)
	g.perm = make([]int32, n)
	for i, v := range p {
		g.perm[i] = int32(v)
	}
	return g
}

func (g *generator) hot() int32     { return g.perm[g.zipf.Uint64()] }
func (g *generator) uniform() int32 { return int32(g.rng.Intn(g.n)) }

// ops returns the next n inputs of the workload's mix.
func (g *generator) ops(n int) []op {
	out := make([]op, n)
	for i := range out {
		x := g.rng.Float64()
		switch g.name {
		case "read-mostly":
			if x < 0.95 {
				out[i] = op{opLookup, g.hot()}
			} else {
				out[i] = op{opUpdate, g.hot()}
			}
		case "write-churn":
			switch {
			case x < 0.4:
				out[i] = op{opUpdate, g.hot()}
			case x < 0.7:
				out[i] = op{opInsert, g.hot()}
			default:
				out[i] = op{opDelete, g.hot()}
			}
		default: // scan-sharded
			if x < 0.9 {
				out[i] = op{opScan, g.uniform()}
			} else {
				out[i] = op{opLookup, g.uniform()}
			}
		}
	}
	return out
}

// runner executes generated ops against a deployment and keeps what
// the correctness checks need: the highest version any acknowledged
// write returned for each key, and the first wrong read.
type runner struct {
	d     *deployment
	dir   directory
	keys  []string
	acked []atomic.Uint64 // per key index: highest acknowledged version
	seq   atomic.Uint64   // value counter, so every write is distinct

	mu    sync.Mutex
	wrong error
}

func newRunner(d *deployment, keys []string) *runner {
	return &runner{d: d, dir: d.directory(), keys: keys, acked: make([]atomic.Uint64, len(keys))}
}

func (r *runner) ack(key int32, ver uint64) {
	a := &r.acked[key]
	for {
		old := a.Load()
		if ver <= old || a.CompareAndSwap(old, ver) {
			return
		}
	}
}

func (r *runner) fail(err error) {
	r.mu.Lock()
	if r.wrong == nil {
		r.wrong = err
	}
	r.mu.Unlock()
}

// wrongRead returns the first read the run rejected, if any.
func (r *runner) wrongRead() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.wrong
}

// exec runs one op. id tags the context so traced member calls can be
// grouped by op; 0 means untraced.
func (r *runner) exec(o op, id uint32) outcome {
	ctx := context.Background()
	if id != 0 {
		ctx = withOpID(ctx, id)
	}
	key := r.keys[o.key]
	var err error
	switch o.kind {
	case opLookup:
		var v string
		var found bool
		v, found, err = r.dir.Lookup(ctx, key)
		if err == nil && found && !strings.HasPrefix(v, key+":") {
			r.fail(fmt.Errorf("lookup %s returned value %q written for another key", key, v))
		}
		if err == nil && !found && r.d.router != nil {
			// scan-sharded never writes: every universe key is present.
			r.fail(fmt.Errorf("lookup %s: preloaded key not found", key))
		}
	case opUpdate:
		var ver uint64
		ver, err = r.write(ctx, key, false)
		if err == nil {
			r.ack(o.key, ver)
		}
	case opInsert:
		var ver uint64
		ver, err = r.write(ctx, key, true)
		if err == nil {
			r.ack(o.key, ver)
		}
	case opDelete:
		err = r.d.groups[0].suite.Delete(ctx, key)
	case opScan:
		var kvs []core.KV
		kvs, err = r.d.router.Scan(ctx, key, scanLimit)
		if err == nil {
			r.checkScan(int(o.key), kvs)
		}
	}
	if err != nil && !errors.Is(err, core.ErrKeyExists) && !errors.Is(err, core.ErrKeyNotFound) {
		return outFailed
	}
	return outOK
}

func (r *runner) write(ctx context.Context, key string, insert bool) (uint64, error) {
	s := r.d.groups[0].suite
	v := key + ":" + strconv.FormatUint(r.seq.Add(1), 10)
	if insert {
		ver, err := s.InsertV(ctx, key, v)
		return uint64(ver), err
	}
	ver, err := s.UpdateV(ctx, key, v)
	return uint64(ver), err
}

// checkScan holds scan-sharded's scans to the exact answer: with no
// writes, the 50 entries after universe key i are keys i+1..i+50.
func (r *runner) checkScan(i int, kvs []core.KV) {
	want := min(scanLimit, len(r.keys)-i-1)
	if len(kvs) != want {
		r.fail(fmt.Errorf("scan after %s returned %d entries, want %d", r.keys[i], len(kvs), want))
		return
	}
	for j, kv := range kvs {
		k := r.keys[i+1+j]
		if kv.Key != k || kv.Value != k+":0" {
			r.fail(fmt.Errorf("scan after %s: entry %d is %s=%q, want %s=%q", r.keys[i], j, kv.Key, kv.Value, k, k+":0"))
			return
		}
	}
}

// phase runs one open-loop phase of the workload's mix. traced tags
// each op with an ID for span attribution.
func (r *runner) phase(g *generator, spec phaseSpec, traced bool) phaseResult {
	ops := g.ops(int(spec.rate*spec.dur.Seconds()) + 1)
	return runPhase(spec, func(seq int) (opKind, outcome) {
		id := uint32(0)
		if traced {
			id = uint32(seq + 1)
		}
		return ops[seq].kind, r.exec(ops[seq], id)
	})
}
