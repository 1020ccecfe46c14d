package sim

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repdir/internal/btree"
	"repdir/internal/core"
	"repdir/internal/fault"
	"repdir/internal/heal"
	"repdir/internal/lock"
	"repdir/internal/model"
	"repdir/internal/obs"
	"repdir/internal/quorum"
	"repdir/internal/reconfig"
	"repdir/internal/rep"
	"repdir/internal/shard"
	"repdir/internal/transport"
	"repdir/internal/txn"
)

// ChaosConfig parameterizes one chaos soak: a live suite driven through
// randomized operations while the fault injector crashes, partitions,
// delays, and double-delivers underneath it, with every completed
// operation checked against the sequential specification
// (model.Sequential). The whole run — workload and fault schedule — is
// a deterministic function of Seed.
type ChaosConfig struct {
	// Name labels the run; empty defaults to "chaos-<seed>" (with a
	// "-<shards>s" suffix when sharded).
	Name string
	// Replicas, R, W describe each suite (defaults 3-2-2).
	Replicas, R, W int
	// Shards is the number of keyspace shards (default 1). With one
	// shard the workload drives a bare core.Suite, exactly as earlier
	// harness versions did. With more, one suite per shard sits behind a
	// shard.Router whose split points divide the key universe evenly,
	// every shard gets its own fault injector, and the workload gains
	// cross-shard transactional upserts plus periodic Count-vs-model
	// assertions that would catch a router stitching a torn cut.
	Shards int
	// Operations is the number of workload operations (default 1000).
	Operations int
	// Keys is the size of the key universe; small universes maximize
	// collisions, ghosts, and lock conflicts (default 48).
	Keys int
	// Seed drives the workload and the fault schedule.
	Seed int64
	// Plan is the fault schedule; the zero value means
	// fault.DefaultPlan().
	Plan fault.Plan
	// Parallel enables parallel quorum fan-out, parallel two-phase
	// commit rounds, and (when sharded) parallel stitching (default
	// true, so races are exercised under -race).
	Parallel *bool
	// StorageFaults enables the midpoint storage-fault phase (default
	// true): a minority of members lose part of their logs, restart in
	// recovering mode, and are rebuilt from their peers while the
	// workload keeps running. When sharded, every shard goes through the
	// phase.
	StorageFaults *bool
	// Churn enables the membership-churn phase (default false): each
	// shard's configuration becomes an epoch-fenced replicated record
	// managed by reconfig.Manager, and a seed-derived schedule adds a
	// member, adds a witness, and removes-with-reweight mid-run, racing
	// the reconfigurations against the fault schedule. Requires
	// Operations >= 32.
	Churn *bool
	// OpTimeout bounds each operation; in-doubt transactions can hold
	// locks until the between-ops resolution pass, and wait-die kills
	// conflicting younger transactions quickly, so this is a backstop
	// rather than a pacing device (default 5s).
	OpTimeout time.Duration
	// MaxRetries is the suite's per-operation retry budget (default 32).
	MaxRetries int
}

// withDefaults fills in the zero-value defaults.
func (c ChaosConfig) withDefaults() ChaosConfig {
	if c.Replicas == 0 {
		c.Replicas, c.R, c.W = 3, 2, 2
	}
	if c.Shards == 0 {
		c.Shards = 1
	}
	if c.Operations == 0 {
		c.Operations = 1000
	}
	if c.Keys == 0 {
		c.Keys = 48
	}
	if c.Plan == (fault.Plan{}) {
		c.Plan = fault.DefaultPlan()
	}
	if c.Parallel == nil {
		t := true
		c.Parallel = &t
	}
	if c.StorageFaults == nil {
		t := true
		c.StorageFaults = &t
	}
	if c.Churn == nil {
		f := false
		c.Churn = &f
	}
	if c.OpTimeout == 0 {
		c.OpTimeout = 5 * time.Second
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 32
	}
	if c.Name == "" {
		if c.Shards > 1 {
			c.Name = fmt.Sprintf("chaos-%d-%ds", c.Seed, c.Shards)
		} else {
			c.Name = fmt.Sprintf("chaos-%d", c.Seed)
		}
		if *c.Churn {
			c.Name += "-churn"
		}
	}
	return c
}

// ChaosResult reports one soak.
type ChaosResult struct {
	Config ChaosConfig
	// Applied counts mutations that reported success; Observed counts
	// error replies that were reconciled as observations (ErrKeyExists /
	// ErrKeyNotFound); Indeterminate counts ambiguous mutation failures;
	// Lookups counts successful lookups checked against the spec.
	Applied, Observed, Indeterminate, Lookups int
	// FailedLookups counts lookups that returned an error (no check
	// possible).
	FailedLookups int
	// Counts is the number of Count observations checked against the
	// specification's [min, max] bounds — periodic mid-run checks plus
	// the exact post-audit check. CountFailures counts mid-run Count
	// calls that failed under active fault windows (tolerated: a failed
	// count asserts nothing).
	Counts, CountFailures int
	// CrossShardTxns is the router's tally of transactions that touched
	// two or more shards; zero when Shards <= 1.
	CrossShardTxns uint64
	// Resolved counts in-doubt participants driven to a decision by the
	// between-ops and post-run resolution passes.
	Resolved int
	// StraysAborted counts never-prepared participants whose leaked
	// locks the post-run presumed-abort sweep reclaimed (an operation
	// abandoned while its member was unreachable cannot deliver its
	// Abort there).
	StraysAborted int
	// Fault totals over all members of all shards.
	Faults fault.Stats
	// Suite-level transaction counters, summed over shards.
	Suite core.SuiteStats
	// RepCalls is the total number of representative calls observed by
	// the transport.WrapStats layer stacked over the fault members.
	RepCalls uint64
	// AuditedKeys is how many keys the final audit checked.
	AuditedKeys int
	// Health is the circuit-breaker activity over the run, summed over
	// shards.
	Health core.HealthStats
	// Heal is the total work of the post-run convergence phase.
	Heal core.RepairStats
	// StorageLosses counts members whose logs the storage-fault phase
	// damaged; RecordsLost totals the log records destroyed; Rebuilds
	// counts completed rebuild-from-peers passes.
	StorageLosses, RecordsLost, Rebuilds int
	// Rebuild is the total work of those rebuild passes.
	Rebuild core.RepairStats
	// Storage is the run's storage-recovery metric counters (the same
	// counters a production observer would export).
	Storage obs.StorageStats
	// Reconfigs counts completed configuration changes across shards;
	// Epochs sums the final configuration epoch over shards; StaleProbes
	// counts old-epoch clients observed to fail loudly with
	// rep.ErrStaleEpoch after a reconfiguration; ChurnEvents describes
	// the seed-derived schedule and each event's outcome. All zero/empty
	// unless Churn is enabled.
	Reconfigs   int
	Epochs      uint64
	StaleProbes int
	ChurnEvents []string
	// Reconfig is the run's reconfiguration metric counters (the same
	// counters a production observer would export).
	Reconfig obs.ReconfigStats
	// Converged reports that after the healer finished, every replica
	// physically held every current entry at an identical (version,
	// value), with any leftover ghosts (GhostsLeft) provably harmless
	// under version dominance.
	Converged bool
	// GhostsLeft counts stale non-current entries remaining on
	// replicas after convergence — allowed, as long as quorum lookups
	// prove them dominated.
	GhostsLeft int
	// Violations are single-copy-semantics contradictions; a correct
	// implementation produces none.
	Violations []string
}

// chaosDirectory is the client surface the workload drives: a bare
// *core.Suite when Shards == 1, a *shard.Router otherwise. Both present
// the same directory API.
type chaosDirectory interface {
	Lookup(ctx context.Context, key string) (string, bool, error)
	Insert(ctx context.Context, key, value string) error
	Update(ctx context.Context, key, value string) error
	Delete(ctx context.Context, key string) error
	Count(ctx context.Context) (int, error)
}

// chaosHarness is the built topology of one soak: per-shard fault
// injectors, suites, and healers, plus the router (nil when unsharded)
// and the directory facade the workload drives.
type chaosHarness struct {
	injectors []*fault.Injector
	suites    []*core.Suite
	healths   []*core.HealthTracker
	healers   []*heal.Healer
	stats     []*transport.CallStats
	allDirs   []rep.Directory // every member of every shard
	observer  *obs.Observer
	router    *shard.Router
	dir       chaosDirectory
	// Churn machinery (nil/empty unless ChaosConfig.Churn): one
	// reconfig.Manager per shard owning that shard's configuration
	// record, the seed-derived schedule, and the first rewiring error
	// (the OnChange hook cannot return one).
	managers []*reconfig.Manager
	churn    *churnPlan
	wireErr  error
}

// buildChaosHarness constructs the per-shard machinery. With one shard
// the member names, seeds, and ID-source node are exactly what earlier
// single-suite harness versions used, so old replay seeds stay valid.
func buildChaosHarness(cfg ChaosConfig) (*chaosHarness, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("sim: chaos %s: invalid shard count %d", cfg.Name, cfg.Shards)
	}
	if cfg.Shards > 1 && cfg.Keys < cfg.Shards {
		return nil, fmt.Errorf("sim: chaos %s: %d shards need at least %d keys, have %d",
			cfg.Name, cfg.Shards, cfg.Shards, cfg.Keys)
	}
	h := &chaosHarness{observer: obs.NewObserver(obs.ObserverConfig{NoTrace: true})}
	if *cfg.Churn {
		plan, err := newChurnPlan(cfg)
		if err != nil {
			return nil, err
		}
		h.churn = plan
	}
	for i := 0; i < cfg.Shards; i++ {
		names := make([]string, cfg.Replicas)
		for j := range names {
			if cfg.Shards == 1 {
				names[j] = fmt.Sprintf("rep%d", j)
			} else {
				names[j] = fmt.Sprintf("s%dr%d", i, j)
			}
		}
		// Distinct per-shard fault streams; shard 0 keeps the historical
		// seed so unsharded runs replay identically.
		injector := fault.NewInjector(names, cfg.Plan, cfg.Seed+int64(i)*104729)
		h.injectors = append(h.injectors, injector)

		// Stack call counters over the fault members: the same middleware
		// layering a production deployment would use for observability.
		dirs := make([]rep.Directory, cfg.Replicas)
		for j, m := range injector.Members() {
			var cs *transport.CallStats
			dirs[j], cs = transport.WrapStats(m)
			h.stats = append(h.stats, cs)
		}
		h.allDirs = append(h.allDirs, dirs...)

		// Health-tracked membership: the breaker skips members inside
		// unavailability windows after a few failures, probing them back
		// in on a paced schedule. All tracker updates happen on the
		// driver goroutine (fan-out outcomes are folded sequentially
		// after each round), so the soak stays a pure function of the
		// seed. Under churn the tracker is built over the full eventual
		// membership, newcomers included, so one tracker per shard spans
		// every epoch.
		trackNames := names
		if h.churn != nil {
			trackNames = append(append([]string{}, names...), churnNames(cfg, i)...)
		}
		health := core.NewHealthTracker(trackNames, core.HealthConfig{ProbeAfter: 4})
		h.healths = append(h.healths, health)
		qcfg := quorum.NewUniform(dirs, cfg.R, cfg.W)
		ids := txn.NewIDSource(uint16(i))
		selSeed := cfg.Seed + 1 + int64(i)
		suiteOpts := func(qc quorum.Config) []core.Option {
			return []core.Option{
				core.WithIDSource(ids),
				core.WithSelector(quorum.NewRandomSelector(qc, selSeed)),
				core.WithMaxRetries(cfg.MaxRetries),
				core.WithParallelQuorum(*cfg.Parallel),
				core.WithHealth(health),
				core.WithObserver(h.observer),
			}
		}
		var suite *core.Suite
		if h.churn == nil {
			var err error
			suite, err = core.NewSuite(qcfg, suiteOpts(qcfg)...)
			if err != nil {
				return nil, err
			}
		} else {
			// Configuration-as-a-replicated-entry: the manager owns the
			// record and rebuilds the suite on every epoch; the OnChange
			// hook repoints the harness. The same suite options apply to
			// every epoch's suite (for joint configurations the manager
			// appends its own two-sided selector after them).
			shardIdx := i
			manager, err := reconfig.NewManager(qcfg,
				reconfig.WithSuiteOptions(suiteOpts),
				reconfig.WithSelectorSeed(selSeed),
				reconfig.WithObserver(h.observer),
				reconfig.WithOnChange(func(_ reconfig.Record, s *core.Suite) {
					h.rewireShard(shardIdx, s)
				}),
			)
			if err != nil {
				return nil, err
			}
			// Init writes the epoch-1 record and fences the members to
			// it; the fault schedule is already live underneath, so ride
			// out windows the first calls may open.
			ictx, icancel := context.WithTimeout(context.Background(), 30*time.Second)
			for attempt := 0; ; attempt++ {
				_, err = manager.Init(ictx)
				if err == nil {
					break
				}
				if attempt >= 20 || ictx.Err() != nil {
					icancel()
					return nil, fmt.Errorf("sim: chaos %s: init shard %d: %w", cfg.Name, i, err)
				}
				if herr := injector.Heal(); herr != nil {
					icancel()
					return nil, herr
				}
			}
			icancel()
			h.managers = append(h.managers, manager)
			suite = manager.Suite()
		}
		h.suites = append(h.suites, suite)

		// One healer per shard serves both the midpoint rebuild phase and
		// the post-run convergence phase; the shared observer carries the
		// storage metrics.
		h.healers = append(h.healers, heal.New(suite, dirs, heal.Config{Obs: h.observer}))
	}

	if cfg.Shards == 1 {
		if h.churn != nil {
			// The manager's delegated operations transparently refresh
			// across configuration changes; bare-suite clients would go
			// stale at the first epoch transition.
			h.dir = h.managers[0]
		} else {
			h.dir = h.suites[0]
		}
		return h, nil
	}
	// Split the key universe evenly: shard i owns keys with index in
	// [i*Keys/Shards, (i+1)*Keys/Shards).
	splits := make([]string, cfg.Shards-1)
	for i := range splits {
		splits[i] = fmt.Sprintf("k%04d", (i+1)*cfg.Keys/cfg.Shards)
	}
	m, err := shard.NewMap(splits...)
	if err != nil {
		return nil, err
	}
	// Node tag 1023 keeps router transactions' wait-die ages distinct
	// from every suite's (suites use their shard index).
	h.router, err = shard.NewRouter(m, h.suites,
		shard.WithIDSource(txn.NewIDSource(1023)),
		shard.WithMaxRetries(cfg.MaxRetries),
		shard.WithParallelStitch(*cfg.Parallel),
	)
	if err != nil {
		return nil, err
	}
	h.dir = h.router
	return h, nil
}

// allInDoubt returns the union of every shard's in-doubt transactions,
// sorted for deterministic resolution order.
func (h *chaosHarness) allInDoubt() []lock.TxnID {
	if len(h.injectors) == 1 {
		return h.injectors[0].InDoubt()
	}
	seen := make(map[lock.TxnID]bool)
	var out []lock.TxnID
	for _, in := range h.injectors {
		for _, id := range in.InDoubt() {
			if !seen[id] {
				seen[id] = true
				out = append(out, id)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// resolve runs cooperative termination across every shard at once. A
// cross-shard transaction's participants live under different
// injectors, and a safe decision needs all of them: resolving with one
// shard's members alone could abort that shard's prepared participant
// while another shard's had already committed. Single-shard harnesses
// delegate to the injector unchanged.
func (h *chaosHarness) resolve(ctx context.Context) (finished int, err error) {
	if len(h.injectors) == 1 {
		return h.injectors[0].Resolve(ctx)
	}
	for _, id := range h.allInDoubt() {
		res, rerr := txn.Resolve(ctx, id, h.allDirs)
		finished += len(res.Finished)
		if rerr == nil {
			continue
		}
		if errors.Is(rerr, txn.ErrUnresolvable) || errors.Is(rerr, transport.ErrUnavailable) {
			continue // some participant is down; retry on a later pass
		}
		if err == nil {
			err = fmt.Errorf("sim: resolve txn %d: %w", id, rerr)
		}
	}
	return finished, err
}

// abortStrays sweeps stray locks on every shard. Presumed abort is a
// per-participant decision (an unprepared participant can never be part
// of a committed transaction, cross-shard or not), so the per-injector
// sweep stays sound under sharding.
func (h *chaosHarness) abortStrays(ctx context.Context) (int, error) {
	total := 0
	for _, in := range h.injectors {
		n, err := in.AbortStrays(ctx)
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// RunChaos executes one deterministic chaos soak and returns its
// result. Violations are reported in the result, not as an error; the
// error covers harness failures (quorum misconfiguration, a member that
// could not be recovered, an audit that could not complete).
func RunChaos(cfg ChaosConfig) (ChaosResult, error) {
	cfg = cfg.withDefaults()
	res := ChaosResult{Config: cfg}

	h, err := buildChaosHarness(cfg)
	if err != nil {
		return res, err
	}

	spec := model.NewSequential()
	rng := rand.New(rand.NewSource(cfg.Seed))
	key := func() string { return fmt.Sprintf("k%04d", rng.Intn(cfg.Keys)) }
	// The sharded workload widens the op mix with cross-shard
	// transactional upserts; the unsharded mix (and its rng stream) is
	// unchanged from earlier harness versions.
	opKinds := 10
	if cfg.Shards > 1 {
		opKinds = 12
	}

	for op := 0; op < cfg.Operations; op++ {
		// Midpoint storage-fault phase: in every shard, a minority of
		// members lose part of their logs and must come back through the
		// rebuild-from-peers path while the suite keeps serving around
		// them.
		if *cfg.StorageFaults && op == cfg.Operations/2 {
			for i := range h.suites {
				if err := storagePhase(h, i, &res); err != nil {
					return res, fmt.Errorf("sim: chaos %s: %w", cfg.Name, err)
				}
			}
		}
		// Membership-churn phase: at its scheduled ops, reconfigure every
		// shard online — the epoch handoff racing the same fault schedule
		// the workload runs under.
		if h.churn != nil {
			for h.churn.next < len(h.churn.steps) && h.churn.steps[h.churn.next].AtOp == op {
				if err := churnPhase(h, cfg, op, h.churn.steps[h.churn.next], &res); err != nil {
					return res, fmt.Errorf("sim: chaos %s: %w", cfg.Name, err)
				}
				h.churn.next++
			}
		}
		// Settle any in-doubt two-phase commits left by crashes before
		// the next operation; between operations no coordinator is
		// live, so cooperative termination is safe.
		if n, rerr := h.resolve(context.Background()); true {
			res.Resolved += n
			if rerr != nil {
				return res, rerr
			}
		}

		ctx, cancel := context.WithTimeout(context.Background(), cfg.OpTimeout)
		k := key()
		val := fmt.Sprintf("v%d", op)
		switch rng.Intn(opKinds) {
		case 0, 1, 2: // insert
			err := h.dir.Insert(ctx, k, val)
			switch {
			case err == nil:
				spec.Applied(k, val, true)
				res.Applied++
			case errors.Is(err, core.ErrKeyExists):
				spec.InsertExists(k, val)
				res.Observed++
			default:
				spec.Indeterminate(k)
				res.Indeterminate++
			}
		case 3, 4: // update
			err := h.dir.Update(ctx, k, val)
			switch {
			case err == nil:
				spec.Applied(k, val, true)
				res.Applied++
			case errors.Is(err, core.ErrKeyNotFound):
				if verr := spec.UpdateNotFound(k); verr != nil {
					res.Violations = append(res.Violations, fmt.Sprintf("op %d: %v", op, verr))
				}
				res.Observed++
			default:
				spec.Indeterminate(k)
				res.Indeterminate++
			}
		case 5, 6: // delete
			err := h.dir.Delete(ctx, k)
			switch {
			case err == nil:
				spec.Applied(k, "", false)
				res.Applied++
			case errors.Is(err, core.ErrKeyNotFound):
				spec.DeleteNotFound(k)
				res.Observed++
			default:
				spec.Indeterminate(k)
				res.Indeterminate++
			}
		case 10, 11: // cross-shard transactional upsert (sharded only)
			k2 := key()
			err := h.router.RunInTxn(ctx, func(x *shard.Txn) error {
				for _, kk := range []string{k, k2} {
					_, found, err := x.Lookup(ctx, kk)
					if err != nil {
						return err
					}
					if found {
						if err := x.Update(ctx, kk, val); err != nil {
							return err
						}
					} else if err := x.Insert(ctx, kk, val); err != nil {
						return err
					}
				}
				return nil
			})
			if err == nil {
				// Atomic: both keys now certainly hold val.
				spec.Applied(k, val, true)
				spec.Applied(k2, val, true)
				res.Applied++
			} else {
				// Atomic even in failure — either both keys got val or
				// neither did — but which of the two happened is unknown.
				spec.Indeterminate(k)
				if k2 != k {
					spec.Indeterminate(k2)
				}
				res.Indeterminate++
			}
		default: // lookup
			got, found, err := h.dir.Lookup(ctx, k)
			if err != nil {
				res.FailedLookups++
			} else {
				res.Lookups++
				if verr := spec.CheckLookup(k, got, found); verr != nil {
					res.Violations = append(res.Violations, fmt.Sprintf("op %d: %v", op, verr))
				}
			}
		}
		cancel()

		// Periodic Count-vs-model assertion: a Count between operations
		// of the sequential driver must land inside the specification's
		// bounds. Under sharding this is the torn-cut detector — a
		// router counting shards outside one consistent transaction
		// could observe half of a cross-shard upsert and drift outside
		// the bounds. Counting needs to read-lock the whole keyspace,
		// so first checkpoint the topology the way an operator would:
		// end open fault windows, settle in-doubt commits, and sweep
		// stray locks — a count attempted mid-outage just times out and
		// asserts nothing. The plan reopens fresh windows with the very
		// next calls, so the chaos resumes immediately. Failures are
		// still tolerated (a window can reopen mid-count).
		if (op+1)%250 == 0 {
			var n int
			cerr := errors.New("count never attempted")
			for try := 0; try < 3 && cerr != nil; try++ {
				for _, in := range h.injectors {
					if err := in.Heal(); err != nil {
						return res, err
					}
				}
				if rn, rerr := h.resolve(context.Background()); true {
					res.Resolved += rn
					if rerr != nil {
						return res, rerr
					}
				}
				strays, err := h.abortStrays(context.Background())
				if err != nil {
					return res, fmt.Errorf("sim: chaos %s: %w", cfg.Name, err)
				}
				res.StraysAborted += strays
				cctx, ccancel := context.WithTimeout(context.Background(), cfg.OpTimeout)
				n, cerr = h.dir.Count(cctx)
				ccancel()
			}
			if cerr != nil {
				res.CountFailures++
			} else {
				res.Counts++
				if lo, hi := spec.CountBounds(); n < lo || n > hi {
					res.Violations = append(res.Violations, fmt.Sprintf(
						"op %d: count %d outside specification bounds [%d, %d]", op, n, lo, hi))
				}
			}
		}
	}

	// Quiesce: stop injecting, heal every window (restarting crashed
	// members from their logs), and settle every remaining in-doubt
	// transaction — every coordinator is finished now.
	for _, in := range h.injectors {
		for _, m := range in.Members() {
			m.Quiesce()
		}
		if err := in.Heal(); err != nil {
			return res, err
		}
	}
	for pass := 0; len(h.allInDoubt()) > 0; pass++ {
		if pass > 10 {
			return res, fmt.Errorf("sim: chaos %s: in-doubt transactions would not settle: %v",
				cfg.Name, h.allInDoubt())
		}
		n, rerr := h.resolve(context.Background())
		res.Resolved += n
		if rerr != nil {
			return res, rerr
		}
	}
	// Sweep stray locks: operations the driver gave up on while a
	// member was unreachable never delivered their Abort there, and an
	// unprepared transaction holds its locks until one arrives. Every
	// coordinator is finished now, so presumed abort applies.
	strays, err := h.abortStrays(context.Background())
	if err != nil {
		return res, fmt.Errorf("sim: chaos %s: %w", cfg.Name, err)
	}
	res.StraysAborted += strays

	// Convergence phase: per shard, the healer drives every replica to
	// full agreement — each current entry installed everywhere at its
	// current version — then the agreement is verified against the
	// replicas' physical contents. Ghost entries may remain, but each
	// must be provably dominated (a quorum lookup of its key must say
	// not-present). The budget covers the whole phase — convergence,
	// audit, final count — and scales with shard count, since each
	// shard converges and audits in turn; a loaded CI machine running
	// the suite alongside other packages must not turn slow into failed.
	ctx, cancel := context.WithTimeout(context.Background(),
		time.Duration(len(h.suites))*30*time.Second)
	defer cancel()
	convOK := true
	for i := range h.suites {
		conv, err := h.healers[i].Converge(ctx)
		addRepairStats(&res.Heal, conv)
		if err != nil {
			return res, fmt.Errorf("sim: chaos %s: convergence: %w", cfg.Name, err)
		}
		convViolations, ghosts, err := auditConvergence(ctx, h.suites[i], h.injectors[i])
		if err != nil {
			return res, fmt.Errorf("sim: chaos %s: %w", cfg.Name, err)
		}
		res.GhostsLeft += ghosts
		if len(convViolations) > 0 {
			convOK = false
			res.Violations = append(res.Violations, convViolations...)
		}
	}
	res.Converged = convOK

	// Final audit: every touched key must agree with the specification.
	// Keys left uncertain by ambiguous failures are re-anchored by the
	// first read and must at least read stably on the second.
	for _, k := range spec.Keys() {
		for pass := 0; pass < 2; pass++ {
			got, found, err := h.dir.Lookup(ctx, k)
			if err != nil {
				return res, fmt.Errorf("sim: chaos %s: audit lookup %s: %w", cfg.Name, k, err)
			}
			if verr := spec.CheckLookup(k, got, found); verr != nil {
				res.Violations = append(res.Violations, fmt.Sprintf("audit: %v", verr))
			}
		}
		res.AuditedKeys++
	}
	// Post-audit the specification is fully anchored, so its count
	// bounds collapse and Count must match exactly — across every
	// shard, stitched by the router when sharded.
	finalCount, err := h.dir.Count(ctx)
	if err != nil {
		return res, fmt.Errorf("sim: chaos %s: final count: %w", cfg.Name, err)
	}
	res.Counts++
	if lo, hi := spec.CountBounds(); finalCount < lo || finalCount > hi {
		res.Violations = append(res.Violations, fmt.Sprintf(
			"final count %d != specification count [%d, %d]", finalCount, lo, hi))
	}

	for _, in := range h.injectors {
		for _, s := range in.Stats() {
			res.Faults.Calls += s.Calls
			res.Faults.Rejected += s.Rejected
			res.Faults.Crashes += s.Crashes
			res.Faults.CrashAfters += s.CrashAfters
			res.Faults.Partitions += s.Partitions
			res.Faults.DroppedReplies += s.DroppedReplies
			res.Faults.Duplicates += s.Duplicates
			res.Faults.Restarts += s.Restarts
			res.Faults.StorageLosses += s.StorageLosses
		}
	}
	res.Storage = h.observer.Storage()
	for _, cs := range h.stats {
		for _, os := range cs.Snapshot() {
			res.RepCalls += os.Calls
		}
	}
	for i, s := range h.suites {
		st := s.Stats()
		addSuiteStats(&res.Suite, st)
		// Every operation a suite accepted must land in exactly one
		// outcome column; a leak means some return path skipped its
		// counter. (Router transactions attach to suites without going
		// through their counters, so the identity holds per suite.)
		if got := st.Commits + st.Failures + st.Cancelled; got != st.Calls {
			res.Violations = append(res.Violations, fmt.Sprintf(
				"accounting: shard %d: commits %d + failures %d + cancelled %d != calls %d",
				i, st.Commits, st.Failures, st.Cancelled, st.Calls))
		}
		addHealthStats(&res.Health, h.healths[i].Stats())
	}
	if h.router != nil {
		res.CrossShardTxns = h.router.Stats().CrossShard
	}
	for _, m := range h.managers {
		res.Epochs += m.Epoch()
	}
	res.Reconfig = h.observer.Reconfig()
	return res, nil
}

// addSuiteStats folds one suite's counters into a total.
func addSuiteStats(dst *core.SuiteStats, s core.SuiteStats) {
	dst.Calls += s.Calls
	dst.Commits += s.Commits
	dst.Failures += s.Failures
	dst.Cancelled += s.Cancelled
	dst.Retries += s.Retries
	dst.Dies += s.Dies
	dst.ReplicaLosses += s.ReplicaLosses
	dst.ReadRepairEnqueued += s.ReadRepairEnqueued
	dst.ReadRepairDropped += s.ReadRepairDropped
	dst.ReadRepairDone += s.ReadRepairDone
	dst.ReadRepairFailed += s.ReadRepairFailed
	dst.ReadRepairCopied += s.ReadRepairCopied
	dst.ReadRepairFreshened += s.ReadRepairFreshened
	dst.StaleEpochRejections += s.StaleEpochRejections
}

// addHealthStats folds one tracker's counters into a total.
func addHealthStats(dst *core.HealthStats, s core.HealthStats) {
	dst.Transitions += s.Transitions
	dst.Trips += s.Trips
	dst.Recoveries += s.Recoveries
	dst.Probes += s.Probes
	dst.FastFails += s.FastFails
	dst.Fallbacks += s.Fallbacks
}

// addRepairStats folds one repair pass into a total.
func addRepairStats(dst *core.RepairStats, s core.RepairStats) {
	dst.Scanned += s.Scanned
	dst.Copied += s.Copied
	dst.Freshened += s.Freshened
	dst.Gaps += s.Gaps
}

// suspendAfter is how many attempts at an operator step — a
// reconfiguration, or a storage-phase rebuild — run fully under the
// fault schedule before the operator holds the chaos for a maintenance
// window to let the step finish.
const suspendAfter = 8

// suspendFaults pauses (true) or resumes (false) fault injection in
// every shard: the operator's maintenance window.
func (h *chaosHarness) suspendFaults(v bool) {
	for _, in := range h.injectors {
		in.Suspend(v)
	}
}

// storagePhase corrupts a minority of one shard's members' logs mid-run
// and drives each through restart-in-recovering-mode and a synchronous
// rebuild from its peers. Quorum intersection tolerates a minority
// rebuilding, so the workload around this phase keeps completing
// against the rest.
func storagePhase(h *chaosHarness, shardIdx int, res *ChaosResult) error {
	injector, healer := h.injectors[shardIdx], h.healers[shardIdx]
	members := injector.Members()
	minority := (len(members) - 1) / 2
	if minority < 1 {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	suspended := false
	defer func() {
		if suspended {
			h.suspendFaults(false)
		}
	}()
	for _, m := range members[:minority] {
		res.RecordsLost += m.LoseStorage()
		res.StorageLosses++
	}
	for _, m := range members[:minority] {
		var lastErr error
		for attempt := 0; ; attempt++ {
			if attempt >= 50 {
				return fmt.Errorf("storage phase: rebuild of %s would not complete: %w", m.Name(), lastErr)
			}
			// A rebuild reconciles every entry (many calls), and under a
			// per-call fault rate the windows it meets on live members
			// can leave it without a read quorum on every attempt; past a
			// few failures the operator holds the chaos for a maintenance
			// window, exactly as the churn step does.
			if attempt == suspendAfter {
				suspended = true
				h.suspendFaults(true)
			}
			// End every open window, in every shard — the
			// operator-intervention analogue: the victim restarts from
			// its damaged log in recovering mode (refusing reads until
			// rebuilt), everyone else comes back intact, so this rebuild
			// attempt can assemble read quorums instead of waiting out
			// call-counted fault windows, and cross-shard in-doubt
			// transactions can reach every participant. Fresh windows
			// the plan opens mid-attempt fail that attempt; the next one
			// heals them again.
			for _, in := range h.injectors {
				if err := in.Heal(); err != nil {
					return fmt.Errorf("storage phase: %w", err)
				}
			}
			// A damaged log may have forgotten prepares and aborts:
			// settle in-doubt transactions and sweep stray locks so the
			// rebuild's repair transactions are not blocked behind them.
			// No coordinator is live between workload operations, so both
			// sweeps are safe here.
			if _, err := h.resolve(ctx); err != nil {
				return err
			}
			if _, err := h.abortStrays(ctx); err != nil {
				return err
			}
			st, err := healer.Rebuild(ctx, m.Name())
			if err != nil {
				if ctx.Err() != nil {
					return fmt.Errorf("storage phase: rebuild %s: %w", m.Name(), err)
				}
				lastErr = err
				continue // transient faults from live members; retry
			}
			res.Rebuilds++
			addRepairStats(&res.Rebuild, st)
			m.RebuildDone()
			if suspended {
				// Maintenance window over: the next rebuild, and the
				// workload after the phase, run under fire again.
				suspended = false
				h.suspendFaults(false)
			}
			break
		}
	}
	return nil
}

// auditConvergence checks physical replica agreement after the healer
// finished: every current entry (by quorum scan) must be present on
// every replica with one identical (version, value), and every
// non-current entry lingering on a replica must be dominated (its key
// must read as not-present by quorum). Membership comes from the
// suite's configuration, not the injector: under churn, removed members
// are no longer obliged to hold anything, and witness members are
// audited for versions only (blank values are their contract, not
// divergence). It returns the violations found and the count of
// harmless ghosts.
func auditConvergence(ctx context.Context, suite *core.Suite, injector *fault.Injector) ([]string, int, error) {
	current, err := suite.Scan(ctx, "", 0)
	if err != nil {
		return nil, 0, fmt.Errorf("convergence scan: %w", err)
	}
	witness := make(map[string]bool)
	for _, mem := range suite.Config().Members {
		witness[mem.Dir.Name()] = mem.Witness
	}
	var audited []*fault.Member
	for _, m := range injector.Members() {
		if _, ok := witness[m.Name()]; ok {
			audited = append(audited, m)
		}
	}
	type dumper interface{ Dump() []btree.Entry }
	dumps := make(map[string]map[string]btree.Entry)
	for _, m := range audited {
		d, ok := m.Rep().(dumper)
		if !ok {
			return nil, 0, fmt.Errorf("convergence: member %s not dumpable", m.Name())
		}
		entries := make(map[string]btree.Entry)
		for _, e := range d.Dump() {
			if e.Key.IsLow() || e.Key.IsHigh() {
				continue
			}
			if strings.HasPrefix(e.Key.Raw(), core.SysPrefix) {
				// The replicated configuration record lives outside the
				// user keyspace and legitimately differs across epochs'
				// write quorums; the record's own CAS protocol, not the
				// convergence audit, is its consistency story.
				continue
			}
			entries[e.Key.Raw()] = e
		}
		dumps[m.Name()] = entries
	}

	var violations []string
	currentSet := make(map[string]bool, len(current))
	for _, kv := range current {
		currentSet[kv.Key] = true
		first := true
		var refVersion btree.Entry
		for _, m := range audited {
			e, ok := dumps[m.Name()][kv.Key]
			switch {
			case !ok:
				violations = append(violations,
					fmt.Sprintf("convergence: %s missing current entry %s", m.Name(), kv.Key))
			case !witness[m.Name()] && e.Value != kv.Value:
				violations = append(violations,
					fmt.Sprintf("convergence: %s has %s=%q, current value is %q",
						m.Name(), kv.Key, e.Value, kv.Value))
			case first:
				refVersion, first = e, false
			case e.Version != refVersion.Version:
				violations = append(violations,
					fmt.Sprintf("convergence: %s holds %s at version %d, others at %d",
						m.Name(), kv.Key, e.Version, refVersion.Version))
			}
		}
	}

	// Ghosts: entries on some replica for keys that are not current.
	// Harmless only if version dominance hides them from quorum reads.
	ghosts := 0
	checked := make(map[string]bool)
	for name, entries := range dumps {
		for key := range entries {
			if currentSet[key] {
				continue
			}
			ghosts++
			if checked[key] {
				continue
			}
			checked[key] = true
			_, found, err := suite.Lookup(ctx, key)
			if err != nil {
				return violations, ghosts, fmt.Errorf("convergence ghost lookup %s: %w", key, err)
			}
			if found {
				violations = append(violations,
					fmt.Sprintf("convergence: ghost %s on %s reads as present by quorum", key, name))
			}
		}
	}
	return violations, ghosts, nil
}

// RunChaosSeeds runs one soak per seed with the same base configuration.
func RunChaosSeeds(base ChaosConfig, seeds []int64) ([]ChaosResult, error) {
	out := make([]ChaosResult, 0, len(seeds))
	for _, seed := range seeds {
		cfg := base
		cfg.Seed = seed
		cfg.Name = ""
		res, err := RunChaos(cfg)
		if err != nil {
			return out, fmt.Errorf("seed %d: %w", seed, err)
		}
		out = append(out, res)
	}
	return out, nil
}

// FormatChaos renders soak results as a table, one row per seed.
func FormatChaos(title string, results []ChaosResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-20s %6s %8s %8s %7s %7s %7s %7s %6s %6s %6s %8s %5s %5s %6s %6s %6s %5s %4s %5s %6s %6s %6s %5s %5s\n",
		"run", "ops", "applied", "observe", "indet", "lookups", "crash", "partn", "dup", "drop", "rstrt", "resolved", "viol",
		"trips", "ffails", "healed", "ghosts", "conv", "fall", "slost", "rebld", "counts", "xshard", "recfg", "epoch")
	for _, r := range results {
		conv := "no"
		if r.Converged {
			conv = "yes"
		}
		fmt.Fprintf(&b, "%-20s %6d %8d %8d %7d %7d %7d %7d %6d %6d %6d %8d %5d %5d %6d %6d %6d %5s %4d %5d %6d %6d %6d %5d %5d\n",
			r.Config.Name, r.Config.Operations, r.Applied, r.Observed, r.Indeterminate,
			r.Lookups, r.Faults.Crashes+r.Faults.CrashAfters, r.Faults.Partitions,
			r.Faults.Duplicates, r.Faults.DroppedReplies, r.Faults.Restarts,
			r.Resolved, len(r.Violations),
			r.Health.Trips, r.Health.FastFails, r.Heal.Copied+r.Heal.Freshened,
			r.GhostsLeft, conv, r.Health.Fallbacks, r.StorageLosses, r.Rebuilds,
			r.Counts, r.CrossShardTxns, r.Reconfigs, r.Epochs)
		for _, v := range r.Violations {
			fmt.Fprintf(&b, "    VIOLATION: %s\n", v)
		}
	}
	return b.String()
}
