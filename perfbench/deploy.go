package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
	"unsafe"

	"repdir/internal/core"
	"repdir/internal/keyspace"
	"repdir/internal/lock"
	"repdir/internal/obs"
	"repdir/internal/quorum"
	"repdir/internal/rep"
	"repdir/internal/shard"
	"repdir/internal/transport"
	"repdir/internal/txn"
	"repdir/internal/version"
	"repdir/internal/wal"
)

// Every suite is 3 replicas with read and write quorums of 2.
const (
	replicasPerSuite = 3
	readQuorum       = 2
	writeQuorum      = 2
	// preloadBatch keys go into each preload transaction: large enough
	// that preload pays few modelled flushes, small enough to keep the
	// lock manager's per-transaction lock set modest.
	preloadBatch = 1000
	// preloadNode is the wait-die node tag of preload transactions,
	// kept clear of the tags core.NewSuite hands out (1, 2, ...) and of
	// the router's (1023).
	preloadNode = 1000
)

// replica is one representative: a rep.Rep over a wal.FileLog, served
// over loopback TCP, with the benchmark's decorators at each boundary.
type replica struct {
	name   string
	rep    *rep.Rep
	log    *wal.FileLog
	logTap *logTap
	file   *fileTap
	server *dirTap
	srv    *transport.Server
	conn   *transport.Client
	client *dirTap
}

// group is one 3-replica suite and the universe slice it holds.
type group struct {
	replicas []*replica
	suite    *core.Suite
	keys     []string
}

// deployment is everything one workload runs against.
type deployment struct {
	tr     *tracer
	groups []*group
	router *shard.Router // nil unless sharded
	reg    *obs.Registry
}

// directory is the public API surface the workloads use; core.Suite and
// shard.Router both provide it.
type directory interface {
	Lookup(ctx context.Context, key string) (string, bool, error)
	LookupV(ctx context.Context, key string) (string, bool, version.V, error)
}

// build starts one suite per key slice, each replica built the way
// repdir-server builds one (a rep over a FileLog with wal.SyncOnCommit,
// default per-connection concurrency, admission off) and each client the
// way repdir-cli builds one (transport.Dial, the default random
// selector, parallel quorum), then preloads every replica. With more
// than one slice the suites sit behind a shard.Router split at the
// first key of each later slice.
func build(tr *tracer, flush time.Duration, slices [][]string) (*deployment, error) {
	d := &deployment{tr: tr, reg: obs.NewRegistry()}
	member := uint16(0)
	for gi, keys := range slices {
		g := &group{keys: keys}
		d.groups = append(d.groups, g)
		dirs := make([]rep.Directory, 0, replicasPerSuite)
		for i := 0; i < replicasPerSuite; i++ {
			r, err := startReplica(fmt.Sprintf("s%d-r%d", gi, i), member, tr, flush)
			if r != nil {
				g.replicas = append(g.replicas, r)
			}
			if err != nil {
				d.close()
				return nil, err
			}
			dirs = append(dirs, r.client)
			member++
		}
		s, err := core.NewSuite(quorum.NewUniform(dirs, readQuorum, writeQuorum), core.WithParallelQuorum(true))
		if err != nil {
			d.close()
			return nil, fmt.Errorf("suite: %w", err)
		}
		g.suite = s
	}
	if len(slices) > 1 {
		splits := make([]string, 0, len(slices)-1)
		suites := make([]*core.Suite, len(d.groups))
		for i, g := range d.groups {
			suites[i] = g.suite
			if i > 0 {
				splits = append(splits, g.keys[0])
			}
		}
		m, err := shard.NewMap(splits...)
		if err != nil {
			d.close()
			return nil, fmt.Errorf("shard map: %w", err)
		}
		d.router, err = shard.NewRouter(m, suites,
			shard.WithIDSource(txn.NewIDSource(1023)), shard.WithParallelStitch(true))
		if err != nil {
			d.close()
			return nil, fmt.Errorf("router: %w", err)
		}
		d.router.RegisterMetrics(d.reg)
	}
	if err := d.preload(); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

func startReplica(name string, member uint16, tr *tracer, flush time.Duration) (*replica, error) {
	r := &replica{name: name}
	r.file = &fileTap{tr: tr, member: member, flush: flush}
	r.log = wal.NewFileLog(r.file)
	r.log.SetSyncPolicy(wal.SyncOnCommit)
	r.logTap = &logTap{inner: r.log, tr: tr, member: member}
	r.rep = rep.New(name, rep.WithLog(r.logTap))
	r.server = &dirTap{inner: r.rep, tr: tr, member: member, kind: spanServer}
	var err error
	if r.srv, err = transport.Serve(r.server, "127.0.0.1:0"); err != nil {
		return r, fmt.Errorf("%s: %w", name, err)
	}
	if r.conn, err = transport.Dial(r.srv.Addr()); err != nil {
		return r, fmt.Errorf("%s: %w", name, err)
	}
	r.client = &dirTap{inner: r.conn, tr: tr, member: member, kind: spanClient}
	return r, nil
}

// preload installs every key of a group's slice on each of its
// replicas, directly through the replica's own Insert and one-shot
// Commit in batches, so each replica logs the preload to its WAL like
// any committed write. Every key gets version 1 and value key+":0",
// what a first quorum Insert into an empty directory would write.
//
// The records the preload logs are kept as appended, and the device is
// marked after them: the replay check feeds them to rep.Recover ahead
// of the records it reads back from the device, because decoding the
// preload's frames again (gob, one stream per frame) would take
// seconds per replica on every run.
func (d *deployment) preload() error {
	ids := txn.NewIDSource(preloadNode)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	ctx := context.Background()
	for _, g := range d.groups {
		for _, r := range g.replicas {
			wg.Add(1)
			r.logTap.keeping = true
			go func(r *replica, keys []string) {
				defer wg.Done()
				for lo := 0; lo < len(keys); lo += preloadBatch {
					hi := min(lo+preloadBatch, len(keys))
					id := ids.Next()
					if err := preloadBatchInto(ctx, r.rep, id, keys[lo:hi]); err != nil {
						mu.Lock()
						if firstErr == nil {
							firstErr = fmt.Errorf("preload %s: %w", r.name, err)
						}
						mu.Unlock()
						return
					}
				}
			}(r, g.keys)
		}
	}
	wg.Wait()
	for _, r := range d.replicas() {
		r.logTap.keeping = false
		r.file.setMark()
	}
	return firstErr
}

func preloadBatchInto(ctx context.Context, r *rep.Rep, id lock.TxnID, keys []string) error {
	for _, k := range keys {
		if err := r.Insert(ctx, id, keyspace.New(k), 1, k+":0"); err != nil {
			_ = r.Abort(ctx, id)
			return err
		}
	}
	return r.Commit(ctx, id)
}

// harnessBytes is the heap the benchmark itself holds for a deployment,
// not the directory: the modelled WAL devices' contents and the preload
// records kept for the replay check.
func (d *deployment) harnessBytes() uint64 {
	var n uint64
	for _, r := range d.replicas() {
		n += uint64(r.file.size()) + uint64(cap(r.logTap.kept))*uint64(unsafe.Sizeof(wal.Record{}))
	}
	return n
}

// replicas lists every replica of every group.
func (d *deployment) replicas() []*replica {
	var out []*replica
	for _, g := range d.groups {
		out = append(out, g.replicas...)
	}
	return out
}

// directory returns the public directory the workloads drive.
func (d *deployment) directory() directory {
	if d.router != nil {
		return d.router
	}
	return d.groups[0].suite
}

// routerCounters reads the shard router's counters off its metrics
// registry: cross-shard transactions, retries, and router-handled ops.
func (d *deployment) routerCounters() (cross, retries, ops float64) {
	if d.router == nil {
		return 0, 0, 0
	}
	var buf bytes.Buffer
	if err := d.reg.WritePrometheus(&buf); err != nil {
		return 0, 0, 0
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		f := strings.Fields(line)
		if len(f) != 2 || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			continue
		}
		switch name := f[0]; {
		case name == "repdir_shard_cross_shard_txns_total":
			cross = v
		case name == "repdir_shard_txn_retries_total":
			retries = v
		case strings.HasPrefix(name, "repdir_shard_router_ops_total{"), strings.HasPrefix(name, "repdir_shard_point_ops_total{"):
			ops += v
		}
	}
	return cross, retries, ops
}

// close stops clients, suites, servers and logs.
func (d *deployment) close() {
	if d.router != nil {
		d.router.Close()
	}
	var errs []error
	for _, g := range d.groups {
		if g.suite != nil {
			g.suite.Close()
		}
		for _, r := range g.replicas {
			if r.conn != nil {
				r.conn.Close()
			}
			if r.srv != nil {
				errs = append(errs, r.srv.Close())
			}
			if r.log != nil {
				errs = append(errs, r.log.Close())
			}
		}
	}
	if err := errors.Join(errs...); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: teardown:", err)
	}
}
