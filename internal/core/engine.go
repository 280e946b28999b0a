package core

import (
	"context"
	"errors"
	"fmt"
	"runtime/trace"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"ipregel/internal/graph"
)

// Program bundles the two user-defined functions of paper Fig. 4.
type Program[V, M any] struct {
	// Compute is run on every selected vertex each superstep (IP_compute).
	Compute ComputeFunc[V, M]
	// Combine merges a new message into an occupied mailbox (IP_combine).
	// It must be commutative and associative.
	Combine CombineFunc[M]
}

// Engine is one configured instance of the iPregel framework: a graph, a
// program, and one concrete version of each module (selection, addressing,
// combination) chosen by Config.
type Engine[V, M any] struct {
	g       *graph.Graph
	cfg     Config
	prog    Program[V, M]
	addr    addresser
	part    partitioner
	nShards int
	// shards owns all per-vertex state (always len nShards ≥ 1); the
	// flat fields below (mb, values, active, inNext) alias shards[0]'s
	// arrays when nShards == 1, keeping the pre-shard code paths intact.
	shards []*engineShard[V, M]
	mb     mailbox[M]
	// spinMB, mutexMB and atomicMB are mb's concrete type, set (at most
	// one) on a flat engine without sender combining and with arithmetic
	// addressing: Send and Broadcast then deliver without the mailbox
	// interface and with the slot folded to index + shift.
	spinMB   *spinMailbox[M]
	mutexMB  *mutexMailbox[M]
	atomicMB *atomicMailbox[M]
	// hashAddr is addr when it is the hashmap baseline (the only scheme
	// whose locate is a lookup rather than arithmetic), nil otherwise.
	hashAddr *hashAddresser
	shift    int // slot = internal index + shift (non-zero only for desolate)
	slots    int
	threads  int

	values []V
	active []uint8

	// selection-bypass state (§4). inNext holds the CAS flags
	// deduplicating next-frontier entries; workers claim slots
	// concurrently, so element access must go through sync/atomic.
	//
	//ipregel:atomic
	inNext       []uint32
	frontier     []int32 // slots to run this superstep
	frontierNext []int32
	gatherOffs   []int   // per-worker frontier copy offsets (gatherFrontier)
	auditSeen    []uint8 // slot-indexed scratch for the bypass audit

	// edgeCuts holds the ScheduleEdgeBalanced vertex boundaries: worker w
	// scans [edgeCuts[w], edgeCuts[w+1]), each range holding ~M/threads
	// out-edges. Computed once from the CSR degree prefix sums.
	edgeCuts []int32

	// sharded-compute work lists (nShards > 1): scanSpans is the
	// precomputed full-scan split (per-shard edge-balanced cuts when
	// applicable), frontierSpanBuf the reusable buffer for the per-
	// superstep frontier split. workBuf holds the per-superstep span
	// selection (runnable shards only); lastSkipped is the shard-skip
	// count it produced (StepStats.SkippedShards).
	scanSpans       []shardSpan
	frontierSpanBuf []shardSpan
	workBuf         []int32
	lastSkipped     int64

	// Hybrid direction state (Config.Direction != DirectionPush; see
	// direction.go). pullOut/pullFlag are the global-slot-indexed outbox
	// arrays serving every pull superstep without reallocating: each
	// shard's vertices write only their own (disjoint) slot segment, so
	// the outboxes are shard-aware by construction. curDir is the running
	// superstep's transport; frontierEdges the out-edge count of the
	// upcoming frontier (adaptive); pullEdgeCut the switch threshold in
	// edges. dirSums is countFrontierEdges' per-worker scratch.
	pullOut     []M
	pullFlag    []uint8
	curDir      Direction
	lastDir     Direction
	haveLastDir bool
	dirSwitched bool

	frontierEdges uint64
	pullEdgeCut   uint64
	dirSums       []uint64

	// hubCut is the out-degree above which a push broadcast's scatter is
	// deferred and fanned out as parallel subtasks (Config.HubSplit);
	// 0 disables splitting. hubTaskBuf is hubScatterPhase's reusable
	// task list.
	hubCut     int
	hubTaskBuf []hubTask

	workers    []*Context[V, M]
	agg        *aggregators
	busy       []time.Duration // per-worker busy time this superstep (TrackWorkerTime)
	checkpoint *Checkpointer[V, M]
	observers  []Observer

	superstep int
	// firstSuperstep is the absolute number of the first superstep this
	// engine executes: 0 for a fresh engine, the checkpoint barrier for a
	// Restored one. It keeps superstep numbering (observer events, the
	// Report's Steps indices) globally consistent across resumes.
	firstSuperstep int
	// casRetriesSeen is the cumulative mailbox contention-retry count
	// already attributed to earlier supersteps (StepStats.CASRetries is
	// the per-superstep delta).
	casRetriesSeen uint64
	report         Report

	ran      bool
	panicked atomic.Value // first recovered panic, if any
}

// ErrBypassViolation is returned when an application run under selection
// bypass leaves vertices active at the end of a superstep — the situation
// (e.g. PageRank) in which the paper states the technique is not
// applicable (§4, note).
var ErrBypassViolation = errors.New("core: selection bypass requires every vertex to vote to halt each superstep (paper §4); a vertex stayed active")

// ErrMaxSupersteps is returned when Config.MaxSupersteps is exceeded.
var ErrMaxSupersteps = errors.New("core: superstep limit exceeded")

// New builds an engine. It validates that the chosen module versions are
// compatible with the graph: the pull combiner needs in-edges, direct
// mapping needs base-0 identifiers.
func New[V, M any](g *graph.Graph, cfg Config, prog Program[V, M]) (*Engine[V, M], error) {
	if prog.Compute == nil {
		return nil, errors.New("core: Program.Compute is required")
	}
	if prog.Combine == nil {
		return nil, errors.New("core: Program.Combine is required")
	}
	if cfg.Direction < DirectionPush || cfg.Direction > DirectionAdaptive {
		return nil, fmt.Errorf("core: unknown direction %s", cfg.Direction)
	}
	if cfg.Combiner == CombinerPull && cfg.Direction != DirectionPush {
		return nil, fmt.Errorf("core: CombinerPull is the deprecated all-pull alias; set Config.Direction (pull or adaptive) on an inbox combiner (mutex/spinlock/atomic) instead of combining both")
	}
	if cfg.Combiner == CombinerPull && cfg.shardCount() > 1 {
		// Deprecated-alias compatibility: the legacy pull mailbox is
		// single-shard only, but the request is expressible in the
		// Direction model — per-shard inboxes with every superstep pull.
		// Normalise rather than reject (lifting the former restriction).
		cfg.Combiner = CombinerSpin
		cfg.Direction = DirectionPull
	}
	if (cfg.Combiner == CombinerPull || cfg.Direction != DirectionPush) && !g.HasInEdges() {
		return nil, fmt.Errorf("core: pull-direction supersteps fetch from in-neighbours (paper §6.2); load the graph with in-edges (Config.Direction pull/adaptive, or the deprecated CombinerPull alias)")
	}
	if cfg.SelectionBypass && !g.HasOutAdjacency() {
		return nil, fmt.Errorf("core: selection bypass enrols out-neighbours (paper §4) and needs the out-adjacency, which this graph stripped")
	}
	if cfg.SenderCombining && (cfg.Combiner == CombinerPull || cfg.Direction == DirectionPull) {
		return nil, fmt.Errorf("core: sender-side combining pre-combines push deliveries; an all-pull run (Config.Direction pull, or the deprecated CombinerPull alias) has none — its outboxes are already contention-free (§6.2)")
	}
	if cfg.DirectionThreshold < 0 || cfg.DirectionThreshold > 1 {
		return nil, fmt.Errorf("core: Config.DirectionThreshold is a fraction of |E| and must be in [0, 1] (0 means the default %v), got %v", DefaultDirectionThreshold, cfg.DirectionThreshold)
	}
	if cfg.HubDegreeCut < 0 {
		return nil, fmt.Errorf("core: Config.HubDegreeCut must be non-negative (0 derives the p99.9 out-degree), got %d", cfg.HubDegreeCut)
	}
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("core: Config.Shards must be non-negative (0 means 1), got %d", cfg.Shards)
	}
	addr, err := newAddresser(g, cfg.Addressing)
	if err != nil {
		return nil, err
	}
	e := &Engine[V, M]{
		g:       g,
		cfg:     cfg,
		prog:    prog,
		addr:    addr,
		shift:   addr.shift(),
		slots:   addr.slots(),
		threads: cfg.threads(),
	}
	e.hashAddr, _ = addr.(*hashAddresser)
	e.part, err = newPartitioner(cfg, e.slots)
	if err != nil {
		return nil, err
	}
	e.nShards = e.part.shards()
	e.shards = make([]*engineShard[V, M], e.nShards)
	if e.nShards == 1 {
		sh := &engineShard[V, M]{}
		sh.mb, err = newMailbox[M](cfg, e.slots, prog.Combine, g, e.shift)
		if err != nil {
			return nil, err
		}
		sh.values = make([]V, e.slots)
		sh.active = make([]uint8, e.slots)
		if cfg.SelectionBypass {
			sh.inNext = make([]uint32, e.slots)
		}
		e.shards[0] = sh
		// The flat single-shard view: every pre-shard code path keeps
		// operating on these aliases, global slot == local slot.
		e.mb = sh.mb
		e.values = sh.values
		e.active = sh.active
		e.inNext = sh.inNext
		if !cfg.SenderCombining && cfg.Addressing != AddressHashmap {
			switch mb := sh.mb.(type) {
			case *spinMailbox[M]:
				e.spinMB = mb
			case *mutexMailbox[M]:
				e.mutexMB = mb
			case *atomicMailbox[M]:
				e.atomicMB = mb
			}
		}
	} else {
		for s := range e.shards {
			e.shards[s], err = newEngineShard[V, M](cfg, e.part.localSlots(s), prog.Combine)
			if err != nil {
				return nil, err
			}
		}
		e.buildScanSpans()
	}
	if cfg.Schedule == ScheduleEdgeBalanced && e.nShards == 1 {
		e.edgeCuts = edgeBalancedCuts(g, e.threads)
	}
	e.workers = make([]*Context[V, M], e.threads)
	for w := range e.workers {
		e.workers[w] = &Context[V, M]{e: e, worker: w}
		if e.nShards > 1 {
			// The routing layer subsumes the single sender-combining
			// cache: per-destination-shard caches combine worker-locally
			// whether or not SenderCombining is set.
			e.workers[w].route = newShardRouter[M](prog.Combine, e.nShards, cfg.SelectionBypass)
			e.workers[w].activated = make([]int64, e.nShards)
			e.workers[w].halted = make([]int64, e.nShards)
		} else if cfg.SenderCombining {
			e.workers[w].cache = newSenderCache[M](prog.Combine)
		}
	}
	if cfg.Direction != DirectionPush {
		e.pullOut = make([]M, e.slots)
		e.pullFlag = make([]uint8, e.slots)
		if e.nShards > 1 {
			// Pull deliveries bypass the routing layer (the collect phase
			// deposits owner-locally), so shard-skipping needs its own
			// per-worker delivery counters to keep runnable exact.
			for _, w := range e.workers {
				w.pulled = make([]uint64, e.nShards)
			}
		}
		if cfg.Direction == DirectionAdaptive {
			thr := cfg.DirectionThreshold
			if thr == 0 {
				thr = DefaultDirectionThreshold
			}
			e.pullEdgeCut = uint64(thr * float64(g.M()))
			if e.pullEdgeCut == 0 {
				e.pullEdgeCut = 1 // an empty frontier never forces pull
			}
		}
	}
	if cfg.HubSplit {
		cut := cfg.HubDegreeCut
		if cut == 0 {
			cut = graph.OutDegreeQuantile(g, 0.999)
		}
		if cut < 1 {
			cut = 1
		}
		e.hubCut = cut
	}
	e.agg = newAggregators(e.threads)
	if cfg.TrackWorkerTime {
		e.busy = make([]time.Duration, e.threads)
	}
	e.observers = append([]Observer(nil), cfg.Observers...)
	return e, nil
}

// Run executes supersteps until no vertex is active and no message is in
// flight, returning per-run statistics. An Engine can run only once.
func (e *Engine[V, M]) Run() (Report, error) {
	return e.RunContext(context.Background())
}

// RunContext is Run with cooperative cancellation: ctx is checked at
// every superstep barrier, and a cancelled run returns ctx's error with
// the statistics gathered so far. Combine with a checkpointer to make
// long computations resumable after an operator-initiated stop.
//
// Every exit path — convergence, cancellation, ErrMaxSupersteps, a
// contained compute panic, ErrBypassViolation, an *InvariantError, a
// checkpoint failure — goes through the same sealing step, so the
// returned Report is always internally consistent (TotalMessages equals
// the sum over Steps, Duration covers exactly the recorded supersteps)
// and the registered Observers see the full lifecycle.
func (e *Engine[V, M]) RunContext(ctx context.Context) (Report, error) {
	if e.ran {
		return Report{}, errors.New("core: engine already ran")
	}
	if orphans := e.agg.unconsumed(); len(orphans) > 0 {
		return Report{}, fmt.Errorf("core: checkpoint carries aggregators %v the program never registered (program/checkpoint mismatch)", orphans)
	}
	e.ran = true
	e.report.Version = e.cfg.VersionName()
	e.report.FirstSuperstep = e.firstSuperstep
	start := time.Now()
	if e.nShards > 1 {
		// Seed the shard-skipping activity summary: zero for a fresh
		// engine, the restored flags/mailboxes for a resumed one.
		e.initShardActivity()
	}
	// Seed the adaptive direction decision the same way: the density is
	// recomputed from current engine state, so a Restored run re-derives
	// exactly the per-superstep choices the original made at this barrier.
	e.reseedFrontierDensity()

	for {
		if err := ctx.Err(); err != nil {
			return e.finishRun(start, fmt.Errorf("core: run cancelled at superstep %d: %w", e.superstep, err))
		}
		if e.cfg.MaxSupersteps > 0 && e.superstep >= e.cfg.MaxSupersteps {
			return e.finishRun(start, fmt.Errorf("%w (%d)", ErrMaxSupersteps, e.cfg.MaxSupersteps))
		}
		e.beginSuperstepDirection()
		stepStart := time.Now()
		e.observeSuperstepStart(e.superstep)
		for _, w := range e.workers {
			w.resetSuperstep()
		}
		if e.busy != nil {
			clear(e.busy)
		}

		var ranTotal int64
		region(ctx, "ipregel.compute", func() { ranTotal = e.computePhase() })
		if e.hubCut > 0 {
			// Deferred hub scatters run before the router/cache drains so
			// their pushes are flushed by the same barrier machinery.
			region(ctx, "ipregel.hubscatter", e.hubScatterPhase)
		}
		if e.nShards > 1 {
			region(ctx, "ipregel.route", e.drainRouters)
		} else if e.cfg.SenderCombining {
			region(ctx, "ipregel.drain", e.drainSenderCaches)
		}

		if e.cfg.SelectionBypass {
			if e.nShards > 1 {
				region(ctx, "ipregel.gather", e.gatherFrontierSharded)
			} else {
				region(ctx, "ipregel.gather", e.gatherFrontier)
			}
		}
		if e.usesPull() {
			region(ctx, "ipregel.collect", func() {
				e.collectPhase()
				e.mb.clearOutboxes()
			})
		} else if e.hybridPull() {
			region(ctx, "ipregel.collect", func() {
				e.collectHybrid()
				clear(e.pullFlag)
			})
		}
		if e.cfg.CheckInvariants {
			if err := e.auditInvariants(); err != nil {
				// The superstep never reached the buffer swap: record what
				// the workers had done as a partial step so the report's
				// totals match the engine's actual activity.
				e.recordStep(e.gatherStepStats(stepStart, ranTotal, true))
				return e.finishRun(start, err)
			}
		}
		region(ctx, "ipregel.barrier", func() {
			for _, sh := range e.shards {
				sh.mb.swap()
			}
			if !e.agg.empty() {
				e.agg.barrier()
			}
		})
		if p := e.panicked.Load(); p != nil {
			e.recordStep(e.gatherStepStats(stepStart, ranTotal, true))
			return e.finishRun(start, fmt.Errorf("core: compute panicked at superstep %d: %v", e.superstep, p))
		}

		step := e.gatherStepStats(stepStart, ranTotal, false)
		e.recordStep(step)
		activeAfter := step.Active
		if e.nShards > 1 {
			if err := e.updateShardActivity(step); err != nil {
				return e.finishRun(start, err)
			}
		}

		if e.cfg.SelectionBypass {
			if activeAfter > 0 {
				return e.finishRun(start, ErrBypassViolation)
			}
			if e.nShards > 1 {
				e.swapFrontiersSharded()
			} else {
				e.frontier, e.frontierNext = e.frontierNext, e.frontier[:0]
				// Reset the dedup flags of the (new) current frontier so the
				// next superstep can enrol the same vertices again.
				for _, slot := range e.frontier {
					atomic.StoreUint32(&e.inNext[slot], 0)
				}
			}
			if e.cfg.CheckBypass || e.cfg.CheckInvariants {
				audit := e.auditBypass
				if e.nShards > 1 {
					audit = e.auditBypassSharded
				}
				if err := audit(); err != nil {
					return e.finishRun(start, err)
				}
			}
		}

		e.superstep++
		if step.Messages == 0 && activeAfter == 0 {
			break
		}
		// The next superstep's direction decision reads the post-swap
		// state (current mail, promoted frontier), which a checkpoint of
		// this barrier captures — so a resumed run re-derives it exactly.
		e.reseedFrontierDensity()
		// Checkpoint only barriers the run will continue from: a terminal
		// (converged) barrier has nothing to resume, and a checkpoint of
		// it would make a later Restore replay one empty superstep.
		if err := e.maybeCheckpoint(); err != nil {
			return e.finishRun(start, err)
		}
	}
	return e.finishRun(start, nil)
}

// gatherStepStats merges the workers' per-superstep counters into one
// StepStats record. It runs single-threaded at the barrier (all workers
// have joined), on the completed-superstep path and on the two abort
// paths that stop mid-superstep (partial=true: a contained compute
// panic, an invariant violation).
func (e *Engine[V, M]) gatherStepStats(stepStart time.Time, ran int64, partial bool) StepStats {
	var msgs, localCombines uint64
	var votes int64
	for _, w := range e.workers {
		msgs += w.msgs
		votes += w.votes
		if w.cache != nil {
			localCombines += w.cache.combined
		}
		if w.route != nil {
			localCombines += w.route.combined
		}
	}
	step := StepStats{
		Ran:               ran,
		Messages:          msgs,
		Active:            ran - votes,
		LocalCombines:     localCombines,
		Duration:          time.Since(stepStart),
		Partial:           partial,
		Direction:         e.curDir,
		DirectionSwitched: e.dirSwitched,
	}
	for _, w := range e.workers {
		step.HubSplitTasks += w.hubTasks
	}
	var retries uint64
	for _, sh := range e.shards {
		retries += sh.mb.contentionRetries()
	}
	if retries > e.casRetriesSeen {
		step.CASRetries = retries - e.casRetriesSeen
		e.casRetriesSeen = retries
	}
	if e.cfg.SelectionBypass {
		if e.nShards > 1 {
			var total int64
			for _, sh := range e.shards {
				total += int64(len(sh.frontierNext))
			}
			step.NextFrontier = total
		} else {
			step.NextFrontier = int64(len(e.frontierNext))
		}
	}
	if e.busy != nil {
		step.WorkerBusy = append([]time.Duration(nil), e.busy...)
	}
	if e.nShards > 1 {
		step.ShardMessages = make([]uint64, e.nShards)
		step.SkippedShards = e.lastSkipped
		for _, w := range e.workers {
			step.CrossShardMessages += w.route.cross + w.pulledCross
			for d, n := range w.route.sent {
				step.ShardMessages[d] += n
			}
			// Pull-superstep deliveries bypass the routers; the collect
			// phase counts them per destination shard so the shard-skip
			// decision (updateShardActivity) stays exact.
			for d, n := range w.pulled {
				step.ShardMessages[d] += n
			}
		}
		if e.cfg.SelectionBypass {
			step.ShardNextFrontier = make([]int64, e.nShards)
			for d, sh := range e.shards {
				step.ShardNextFrontier[d] = int64(len(sh.frontierNext))
			}
		}
	}
	return step
}

// recordStep appends one superstep record, folds it into the run totals
// and notifies the observers — the single bookkeeping point shared by
// the completed-superstep path and the mid-superstep abort paths.
func (e *Engine[V, M]) recordStep(step StepStats) {
	e.report.Steps = append(e.report.Steps, step)
	e.report.TotalMessages += step.Messages
	e.report.TotalLocalCombines += step.LocalCombines
	e.observeSuperstepEnd(e.superstep, step)
}

// finishRun seals the report on every exit path: Supersteps, Duration
// and the converged/aborted marker are always set, OnAbort fires exactly
// once on aborted runs, and OnRunEnd fires exactly once per run, last.
func (e *Engine[V, M]) finishRun(start time.Time, err error) (Report, error) {
	completed := 0
	for _, s := range e.report.Steps {
		if !s.Partial {
			completed++
		}
	}
	e.report.Supersteps = e.firstSuperstep + completed
	e.report.Duration = time.Since(start)
	if err != nil {
		e.report.Aborted = true
		e.report.AbortReason = err.Error()
		for _, o := range e.observers {
			o.OnAbort(e.superstep, e.report.AbortReason, err)
		}
	} else {
		e.report.Converged = true
	}
	for _, o := range e.observers {
		o.OnRunEnd(e.report, err)
	}
	return e.report, err
}

// region wraps one engine phase in a runtime/trace region so that phase
// boundaries (compute, drain, gather, collect, barrier) show up in `go
// tool trace` output whenever tracing is active — a `go test -trace`
// run, trace.Start, or the /debug/pprof/trace endpoint the telemetry
// layer serves. With tracing off the guard is one atomic load per phase
// per superstep; nothing is added to the per-vertex hot path.
func region(ctx context.Context, name string, f func()) {
	if trace.IsEnabled() {
		trace.WithRegion(ctx, name, f)
		return
	}
	f()
}

// computePhase runs IP_compute over the selected vertices and returns how
// many ran.
func (e *Engine[V, M]) computePhase() int64 {
	if e.nShards > 1 {
		return e.computePhaseSharded()
	}
	if e.superstep == 0 || !e.cfg.SelectionBypass {
		// Traditional selection: scan every vertex and run those that are
		// active or have mail (§4's "unfruitful checks" when inactive).
		// Superstep 0 runs everything in both modes: all vertices start
		// active.
		first := e.superstep == 0
		e.parallelForVertices(func(w, i int) {
			slot := i + e.shift
			if first || e.active[slot] != 0 || e.mb.hasCurrent(slot) {
				e.runVertex(w, slot)
			}
		})
	} else {
		// Selection bypass: the frontier holds exactly the vertices that
		// received a message, so threads run every vertex they are given
		// (§4's load-balance property).
		frontier := e.frontier
		e.parallelFor(len(frontier), func(w, i int) {
			e.runVertex(w, int(frontier[i]))
		})
	}
	var ran int64
	for _, w := range e.workers {
		ran += w.ran
	}
	return ran
}

// runVertex runs IP_compute on one vertex of the flat engine, then drops
// whatever current mail the program left undrained (consume-on-return,
// see cells).
func (e *Engine[V, M]) runVertex(w, slot int) {
	ctx := e.workers[w]
	e.active[slot] = 1
	ctx.ran++
	e.prog.Compute(ctx, Vertex[V, M]{e: e, slot: int32(slot), shard: 0, local: int32(slot)})
	e.mb.consume(slot)
}

// locate is addr.locate with the arithmetic schemes folded in: under
// direct, offset and desolate mapping the slot of id is id - base +
// shift (§5); only the hashmap baseline pays a lookup.
func (e *Engine[V, M]) locate(id graph.VertexID) int {
	if e.hashAddr != nil {
		return e.hashAddr.locate(id)
	}
	return int(id-e.g.Base()) + e.shift
}

// deliver hands one message to the flat engine's mailbox, through its
// concrete type when one is set.
func (e *Engine[V, M]) deliver(slot int, msg M) {
	switch {
	case e.spinMB != nil:
		e.spinMB.deliver(slot, msg)
	case e.mutexMB != nil:
		e.mutexMB.deliver(slot, msg)
	case e.atomicMB != nil:
		e.atomicMB.deliver(slot, msg)
	default:
		e.mb.deliver(slot, msg)
	}
}

// usesPull reports whether the engine runs the LEGACY pull-combiner
// mailbox (the deprecated CombinerPull alias, single-shard only — under
// sharding the alias normalises to an inbox combiner with
// Direction pull, served by the hybrid outboxes instead; see
// direction.go). e.mb is nil on sharded engines, so nil means push here.
func (e *Engine[V, M]) usesPull() bool { return e.mb != nil && e.mb.usesPull() }

// collectPhase is the pull combiner's end-of-superstep fetch (§6.2): each
// candidate vertex reads its in-neighbours' outboxes and combines into its
// own inbox. Writes are strictly owner-local, hence race-free.
func (e *Engine[V, M]) collectPhase() {
	if e.cfg.SelectionBypass {
		// Only enrolled recipients can have mail, so fetching is limited
		// to the next frontier (already gathered by the caller).
		next := e.frontierNext
		e.parallelFor(len(next), func(w, i int) {
			e.mb.collectInto(int(next[i]), &e.workers[w].nbuf)
		})
		return
	}
	e.parallelFor(e.g.N(), func(w, i int) {
		e.mb.collectInto(i+e.shift, &e.workers[w].nbuf)
	})
}

// drainSenderCaches flushes every worker's combining cache into the
// shared mailbox at the compute-phase barrier, before the buffer swap.
// Workers drain their own caches concurrently; deliver is concurrent-safe
// on every push combiner.
func (e *Engine[V, M]) drainSenderCaches() {
	e.parallelFor(len(e.workers), func(_, wi int) {
		e.workers[wi].cache.drain(e.mb)
	})
}

// parallelGatherMin is the frontier size below which gatherFrontier's
// per-worker copies stay serial (forking workers costs more than the copy).
const parallelGatherMin = 1 << 15

// gatherFrontier concatenates the workers' next-frontier buffers. Each
// worker's share starts at an offset precomputed from the buffer lengths,
// so on large frontiers the copies run in parallel instead of a serial
// append loop.
func (e *Engine[V, M]) gatherFrontier() {
	if e.gatherOffs == nil {
		e.gatherOffs = make([]int, len(e.workers))
	}
	total := 0
	for i, w := range e.workers {
		e.gatherOffs[i] = total
		total += len(w.frontierBuf)
	}
	if cap(e.frontierNext) < total {
		e.frontierNext = make([]int32, total)
	} else {
		e.frontierNext = e.frontierNext[:total]
	}
	if total >= parallelGatherMin && e.threads > 1 {
		e.parallelFor(len(e.workers), func(_, wi int) {
			copy(e.frontierNext[e.gatherOffs[wi]:], e.workers[wi].frontierBuf)
		})
		return
	}
	for i, w := range e.workers {
		copy(e.frontierNext[e.gatherOffs[i]:], w.frontierBuf)
	}
}

// tryMarkNext claims slot's membership of the next frontier.
// Test-and-test-and-set: most messages target already-enrolled vertices,
// so the common path is a single relaxed load rather than a contended
// compare-and-swap.
func (e *Engine[V, M]) tryMarkNext(slot int) bool {
	p := &e.inNext[slot]
	if atomic.LoadUint32(p) != 0 {
		return false
	}
	return atomic.CompareAndSwapUint32(p, 0, 1)
}

// auditBypass (debug) verifies the §4 implication: after the swap, every
// vertex holding a message is in the new frontier. Membership is tracked
// in a slot-indexed byte array reused across supersteps — a map here
// allocates per superstep and dominates the audit on million-vertex
// graphs.
func (e *Engine[V, M]) auditBypass() error {
	if e.auditSeen == nil {
		e.auditSeen = make([]uint8, e.slots)
	} else {
		clear(e.auditSeen)
	}
	for _, s := range e.frontier {
		e.auditSeen[s] = 1
	}
	for i := 0; i < e.g.N(); i++ {
		slot := i + e.shift
		if e.mb.hasCurrent(slot) && e.auditSeen[slot] == 0 {
			return fmt.Errorf("core: bypass audit: vertex %d has mail but is not in the frontier", e.addr.idOf(slot))
		}
	}
	return nil
}

// guard wraps one worker's share of a phase: a panic in body (a buggy
// user program, or the framework's own misuse panics such as Send on the
// pull combiner) is contained — the offending worker stops, the phase
// completes, and Run reports the panic as an error instead of tearing the
// process down.
func (e *Engine[V, M]) guard(w int, loop func()) {
	defer func() {
		if r := recover(); r != nil {
			e.panicked.CompareAndSwap(nil, fmt.Sprintf("%v", r))
		}
	}()
	if e.busy != nil {
		t0 := time.Now()
		defer func() { e.busy[w] += time.Since(t0) }()
	}
	loop()
}

// dispatch runs perWorker(0..t-1) on freshly forked goroutines and
// blocks until all complete (the paper's fork-join parallel region).
func (e *Engine[V, M]) dispatch(t int, perWorker func(w int)) {
	var wg sync.WaitGroup
	wg.Add(t)
	for w := 0; w < t; w++ {
		go func(w int) {
			defer wg.Done()
			perWorker(w)
		}(w)
	}
	wg.Wait()
}

// paddedCursor is the dynamic schedule's shared chunk counter, padded to
// its own cache line on both sides: under high thread counts an unpadded
// counter false-shares its line with whatever the allocator placed next
// to it, and every AddInt64 then invalidates innocent data.
type paddedCursor struct {
	_ [64]byte
	n int64
	_ [56]byte
}

// parallelFor splits n work items across the engine's workers according
// to the configured schedule and blocks until all complete.
// ScheduleEdgeBalanced applies only to the full-vertex compute scan (see
// parallelForVertices); for other work domains it degrades to static
// equal shares.
func (e *Engine[V, M]) parallelFor(n int, body func(worker, i int)) {
	if n == 0 {
		return
	}
	t := e.threads
	if t > n {
		t = n
	}
	if t == 1 {
		e.guard(0, func() {
			for i := 0; i < n; i++ {
				body(0, i)
			}
		})
		return
	}

	var perWorker func(w int)
	switch e.cfg.Schedule {
	case ScheduleDynamic:
		chunk := n / (t * 16)
		if chunk < 64 {
			chunk = 64
		}
		cursor := new(paddedCursor)
		perWorker = func(w int) {
			e.guard(w, func() {
				for {
					lo := int(atomic.AddInt64(&cursor.n, int64(chunk))) - chunk
					if lo >= n {
						return
					}
					hi := lo + chunk
					if hi > n {
						hi = n
					}
					for i := lo; i < hi; i++ {
						body(w, i)
					}
				}
			})
		}
	default: // ScheduleStatic (and edge-balanced off its domain): equal contiguous shares
		perWorker = func(w int) {
			lo, hi := w*n/t, (w+1)*n/t
			e.guard(w, func() {
				for i := lo; i < hi; i++ {
					body(w, i)
				}
			})
		}
	}
	e.dispatch(t, perWorker)
}

// parallelForVertices is parallelFor over the full vertex range 0..N()-1
// (internal indices). Under ScheduleEdgeBalanced it uses the precomputed
// degree-prefix-sum cuts so every worker scans a contiguous range holding
// an equal share of out-edges — on power-law graphs the vertex-count
// split hands whichever worker owns the hubs almost all of the message
// work.
func (e *Engine[V, M]) parallelForVertices(body func(worker, i int)) {
	n := e.g.N()
	if e.cfg.Schedule != ScheduleEdgeBalanced || e.threads == 1 || len(e.edgeCuts) != e.threads+1 {
		e.parallelFor(n, body)
		return
	}
	cuts := e.edgeCuts
	e.dispatch(e.threads, func(w int) {
		e.guard(w, func() {
			for i := int(cuts[w]); i < int(cuts[w+1]); i++ {
				body(w, i)
			}
		})
	})
}

// edgeBalancedCuts splits [0, N()) into t contiguous vertex ranges of
// ~equal out-edge counts. The CSR out-offsets are already the degree
// prefix sums, so each boundary is one binary search for the smallest
// vertex whose offset reaches w*M/t.
func edgeBalancedCuts(g *graph.Graph, t int) []int32 {
	n := g.N()
	m := g.M()
	cuts := make([]int32, t+1)
	cuts[t] = int32(n)
	for w := 1; w < t; w++ {
		target := m * uint64(w) / uint64(t)
		cuts[w] = int32(sort.Search(n, func(i int) bool { return g.OutEdgeOffset(i) >= target }))
	}
	for w := 1; w <= t; w++ { // collapse degenerate boundaries monotonically
		if cuts[w] < cuts[w-1] {
			cuts[w] = cuts[w-1]
		}
	}
	return cuts
}

// edgeBalancedCutsRange is edgeBalancedCuts restricted to the internal-
// index range [lo, hi) — used to split one shard's contiguous vertex
// range into ~equal out-edge shares under the range partitioner.
func edgeBalancedCutsRange(g *graph.Graph, t, lo, hi int) []int32 {
	cuts := make([]int32, t+1)
	cuts[0], cuts[t] = int32(lo), int32(hi)
	if hi <= lo {
		for w := 1; w < t; w++ {
			cuts[w] = int32(lo)
		}
		return cuts
	}
	base := g.OutEdgeOffset(lo)
	var top uint64
	if hi == g.N() {
		top = g.M()
	} else {
		top = g.OutEdgeOffset(hi)
	}
	m := top - base
	for w := 1; w < t; w++ {
		target := base + m*uint64(w)/uint64(t)
		cuts[w] = int32(lo + sort.Search(hi-lo, func(i int) bool { return g.OutEdgeOffset(lo+i) >= target }))
	}
	for w := 1; w <= t; w++ {
		if cuts[w] < cuts[w-1] {
			cuts[w] = cuts[w-1]
		}
	}
	return cuts
}

// Value returns the final user value of the vertex with external
// identifier id. Valid after Run.
func (e *Engine[V, M]) Value(id graph.VertexID) V {
	return e.valueAt(e.addr.locate(id))
}

// ValuesDense copies the vertex values out in internal-index order
// (index i holds the value of external identifier Base()+i).
func (e *Engine[V, M]) ValuesDense() []V {
	out := make([]V, e.g.N())
	if e.nShards == 1 {
		for i := range out {
			out[i] = e.values[i+e.shift]
		}
		return out
	}
	for i := range out {
		out[i] = e.valueAt(i + e.shift)
	}
	return out
}

// Graph returns the engine's graph.
func (e *Engine[V, M]) Graph() *graph.Graph { return e.g }

// Config returns the engine's configuration.
func (e *Engine[V, M]) Config() Config { return e.cfg }

// FootprintBytes reports the engine's own heap bytes — vertex values,
// activity flags, the mailbox arrays of the selected combiner version,
// the addressing structure and the bypass state. The graph's CSR arrays
// are excluded, matching the paper's separation of "graph binary size"
// from framework overhead (§7.4.2); add graph.MemoryBytes() for the
// total.
func (e *Engine[V, M]) FootprintBytes() uint64 {
	var v V
	b := uint64(e.slots) * uint64(unsafe.Sizeof(v)) // values
	for _, sh := range e.shards {
		b += uint64(len(sh.active)) // activity flags
		b += sh.mb.footprintBytes()
	}
	b += e.addr.overheadBytes()
	b += e.part.overheadBytes()
	if e.cfg.SelectionBypass {
		if e.nShards == 1 {
			b += uint64(len(e.inNext)) * 4
			b += uint64(cap(e.frontier)+cap(e.frontierNext)) * 4
		} else {
			for _, sh := range e.shards {
				b += uint64(len(sh.inNext)) * 4
				b += uint64(cap(sh.frontier)+cap(sh.frontierNext)) * 4
			}
		}
	}
	for _, w := range e.workers {
		if w.cache != nil {
			b += w.cache.footprintBytes()
		}
		if w.route != nil {
			b += w.route.footprintBytes()
		}
	}
	if e.pullOut != nil {
		var m M
		b += uint64(e.slots) * (uint64(unsafe.Sizeof(m)) + 1) // hybrid outboxes + flags
	}
	b += uint64(len(e.edgeCuts)) * 4
	b += uint64(cap(e.scanSpans)+cap(e.frontierSpanBuf)) * 12
	b += uint64(cap(e.workBuf)) * 4
	return b
}

// Run is the package-level convenience: build an engine and run it.
func Run[V, M any](g *graph.Graph, cfg Config, prog Program[V, M]) (*Engine[V, M], Report, error) {
	e, err := New(g, cfg, prog)
	if err != nil {
		return nil, Report{}, err
	}
	rep, err := e.Run()
	return e, rep, err
}
