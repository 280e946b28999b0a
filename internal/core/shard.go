package core

import (
	"fmt"
	"sync/atomic"
)

// engineShard is one shard's slice of the engine state: its own mailbox
// instance, values/active segments and frontier buffers, all indexed by
// LOCAL slot (0..localSlots-1). Because every array is owned by exactly
// one shard, intra-shard delivery contends only with deliveries to the
// same shard; other shards' mailboxes live on different cache lines
// entirely. The single-shard engine builds exactly one of these and
// aliases its legacy flat arrays (Engine.values, Engine.active, ...) to
// it, so Config.Shards <= 1 runs the pre-shard code paths unchanged.
type engineShard[V, M any] struct {
	mb mailbox[M]

	// values and active are local-slot indexed; indexing them with a
	// global slot is the bug class the shardlocal analyzer flags.
	//
	//ipregel:shardlocal
	values []V
	//ipregel:shardlocal
	active []uint8

	// inNext holds the CAS flags deduplicating this shard's next-frontier
	// entries (selection bypass, §4); local-slot indexed, element access
	// through sync/atomic.
	//
	//ipregel:atomic
	//ipregel:shardlocal
	inNext []uint32

	// frontier and frontierNext hold LOCAL slots (the shard is implied);
	// checkpointing and audits translate through partitioner.globalOf.
	frontier     []int32
	frontierNext []int32

	// activeCount mirrors the number of set active flags, maintained
	// incrementally from the workers' per-shard activation/halt deltas at
	// each barrier (audited against a full scan under CheckInvariants).
	// runnable caches the shard-skip decision for the next superstep:
	// a shard with no active vertex and no delivery last superstep has
	// nothing to run, so the scan phase drops its spans entirely.
	activeCount int64
	runnable    bool
}

func newEngineShard[V, M any](cfg Config, localN int, combine CombineFunc[M]) (*engineShard[V, M], error) {
	sh := &engineShard[V, M]{
		values:   make([]V, localN),
		active:   make([]uint8, localN),
		runnable: true,
	}
	var err error
	// Shard mailboxes are always inboxes (New normalises the deprecated
	// CombinerPull alias away under sharding; hybrid pull supersteps use
	// the engine-level outboxes in direction.go and deposit here through
	// deliver), so the graph and shift arguments of the mailbox factory
	// are never consulted.
	sh.mb, err = newMailbox[M](cfg, localN, combine, nil, 0)
	if err != nil {
		return nil, err
	}
	if cfg.SelectionBypass {
		sh.inNext = make([]uint32, localN)
	}
	return sh, nil
}

// tryMarkNext claims local's membership of this shard's next frontier
// (test-and-test-and-set, like Engine.tryMarkNext).
func (sh *engineShard[V, M]) tryMarkNext(local int) bool {
	p := &sh.inNext[local]
	if atomic.LoadUint32(p) != 0 {
		return false
	}
	return atomic.CompareAndSwapUint32(p, 0, 1)
}

// slotShard resolves a global slot to its owning shard and local slot.
// The single-shard fast path keeps the pre-shard identity (shards[0],
// local == global) without consulting the partitioner.
func (e *Engine[V, M]) slotShard(slot int) (*engineShard[V, M], int) {
	if e.nShards == 1 {
		return e.shards[0], slot
	}
	s, local := e.part.locate(slot)
	return e.shards[s], local
}

// The *At accessors are the global-slot view over the sharded arrays,
// used by the cold paths that still think in global slots: checkpoint
// write/restore, audits, Value/ValuesDense.

func (e *Engine[V, M]) valueAt(slot int) V {
	sh, local := e.slotShard(slot)
	return sh.values[local]
}

func (e *Engine[V, M]) setValueAt(slot int, v V) {
	sh, local := e.slotShard(slot)
	sh.values[local] = v
}

func (e *Engine[V, M]) activeAt(slot int) uint8 {
	sh, local := e.slotShard(slot)
	return sh.active[local]
}

func (e *Engine[V, M]) setActiveAt(slot int, a uint8) {
	sh, local := e.slotShard(slot)
	sh.active[local] = a
}

func (e *Engine[V, M]) peekAt(slot int) (M, bool) {
	sh, local := e.slotShard(slot)
	return sh.mb.peek(local)
}

func (e *Engine[V, M]) hasCurrentAt(slot int) bool {
	sh, local := e.slotShard(slot)
	return sh.mb.hasCurrent(local)
}

func (e *Engine[V, M]) restoreCurrentAt(slot int, m M) {
	sh, local := e.slotShard(slot)
	sh.mb.restoreCurrent(local, m)
}

// shardSpan is one unit of sharded compute work: the LOCAL slot range
// [lo, hi) of one shard. The scan spans are precomputed at construction
// (per-shard edge-balanced cuts under ScheduleEdgeBalanced on the range
// partitioner, equal local-slot shares otherwise); frontier spans are
// rebuilt each superstep from the shards' frontier lengths.
type shardSpan struct {
	shard  int32
	lo, hi int32
}

// buildScanSpans precomputes the sharded full-scan work list: for each
// shard, up to threads local-slot ranges, so every worker can claim
// work from any shard (no worker is idled by an empty shard).
func (e *Engine[V, M]) buildScanSpans() {
	t := e.threads
	for s := 0; s < e.nShards; s++ {
		localN := e.part.localSlots(s)
		if localN == 0 {
			continue
		}
		if rp, ok := e.part.(*rangePartitioner); ok && e.cfg.Schedule == ScheduleEdgeBalanced && t > 1 {
			// The shard's global range is contiguous, so its CSR degree
			// prefix sums are usable: cut it into t ranges of ~equal
			// out-edge counts, in internal-index space, then translate
			// back to local slots. The desolate dead zone (global <
			// shift) has no internal index; clamp it out — the scan loop
			// skips those locals anyway.
			shardBase := int(rp.cuts[s])
			loIdx := shardBase - e.shift
			if loIdx < 0 {
				loIdx = 0
			}
			hiIdx := int(rp.cuts[s+1]) - e.shift
			if hiIdx < loIdx {
				hiIdx = loIdx
			}
			cuts := edgeBalancedCutsRange(e.g, t, loIdx, hiIdx)
			for w := 0; w < t; w++ {
				lo := int(cuts[w]) + e.shift - shardBase
				hi := int(cuts[w+1]) + e.shift - shardBase
				if lo < 0 {
					lo = 0
				}
				if hi > lo {
					e.scanSpans = append(e.scanSpans, shardSpan{int32(s), int32(lo), int32(hi)})
				}
			}
			continue
		}
		chunks := t
		if chunks > localN {
			chunks = localN
		}
		for c := 0; c < chunks; c++ {
			lo, hi := c*localN/chunks, (c+1)*localN/chunks
			if lo < hi {
				e.scanSpans = append(e.scanSpans, shardSpan{int32(s), int32(lo), int32(hi)})
			}
		}
	}
}

// forSpans runs body over span indices 0..n-1, claimed dynamically from
// a shared cursor: sharded phases always have more spans than workers
// (up to threads per shard), so claiming replaces the per-schedule
// splitting of parallelFor — the schedule's balance decision is already
// baked into the span boundaries.
func (e *Engine[V, M]) forSpans(n int, body func(w, k int)) {
	if n == 0 {
		return
	}
	t := e.threads
	if t > n {
		t = n
	}
	if t == 1 {
		e.guard(0, func() {
			for k := 0; k < n; k++ {
				body(0, k)
			}
		})
		return
	}
	cursor := new(paddedCursor)
	e.dispatch(t, func(w int) {
		e.guard(w, func() {
			for {
				k := int(atomic.AddInt64(&cursor.n, 1)) - 1
				if k >= n {
					return
				}
				body(w, k)
			}
		})
	})
}

// computePhaseSharded is computePhase over shard-local spans: select the
// runnable shards' spans (frontier-aware skipping), then execute them
// under the shared-cursor scheduler.
func (e *Engine[V, M]) computePhaseSharded() int64 {
	first := e.superstep == 0
	var spans []shardSpan
	var body func(w int, sp shardSpan)
	if first || !e.cfg.SelectionBypass {
		spans = e.scanSpans
		body = func(w int, sp shardSpan) {
			sh := e.shards[sp.shard]
			for local := sp.lo; local < sp.hi; local++ {
				global := e.part.globalOf(int(sp.shard), int(local))
				if global < e.shift {
					continue // desolate dead zone (§5): no vertex lives here
				}
				if first || sh.active[local] != 0 || sh.mb.hasCurrent(int(local)) {
					e.runVertexAt(w, sp.shard, local, int32(global))
				}
			}
		}
	} else {
		spans = e.frontierSpans()
		body = func(w int, sp shardSpan) {
			sh := e.shards[sp.shard]
			for i := sp.lo; i < sp.hi; i++ {
				local := sh.frontier[i]
				e.runVertexAt(w, sp.shard, local, int32(e.part.globalOf(int(sp.shard), int(local))))
			}
		}
	}
	work := e.selectSpans(spans, first)
	e.forSpans(len(work), func(w, k int) { body(w, spans[work[k]]) })
	var ran int64
	for _, w := range e.workers {
		ran += w.ran
	}
	return ran
}

// selectSpans is the frontier-aware shard-skipping filter: it returns
// the indices of the spans worth running this superstep and records the
// skip count for StepStats.SkippedShards. A shard is skipped exactly
// when nothing in it can run — no vertex is active and no delivery
// reached it last superstep (engineShard.runnable, maintained at each
// barrier). The decision is exact, not heuristic: the scan guard is
// `active || hasCurrent`, and after the swap hasCurrent is true only
// for slots delivered to last superstep. Under selection bypass the
// frontier spans already exclude empty shards, so only the skip count
// is derived here.
func (e *Engine[V, M]) selectSpans(spans []shardSpan, first bool) []int32 {
	work := e.workBuf[:0]
	e.lastSkipped = 0
	switch {
	case first:
		for k := range spans {
			work = append(work, int32(k))
		}
	case e.cfg.SelectionBypass:
		for k := range spans {
			work = append(work, int32(k))
		}
		for _, sh := range e.shards {
			if len(sh.frontier) == 0 {
				e.lastSkipped++
			}
		}
	default:
		for k, sp := range spans {
			if e.shards[sp.shard].runnable {
				work = append(work, int32(k))
			}
		}
		for _, sh := range e.shards {
			if !sh.runnable {
				e.lastSkipped++
			}
		}
	}
	e.workBuf = work
	return work
}

func (e *Engine[V, M]) runVertexAt(w int, shard, local int32, global int32) {
	ctx := e.workers[w]
	ctx.curShard = shard
	sh := e.shards[shard]
	if sh.active[local] == 0 {
		ctx.activated[shard]++
	}
	sh.active[local] = 1
	ctx.ran++
	e.prog.Compute(ctx, Vertex[V, M]{e: e, slot: global, shard: shard, local: local})
	sh.mb.consume(int(local)) // consume-on-return, as in runVertex
}

// frontierSpans chunks each shard's current frontier into up to
// threads ranges, reusing the span buffer across supersteps.
func (e *Engine[V, M]) frontierSpans() []shardSpan {
	spans := e.frontierSpanBuf[:0]
	t := e.threads
	for s, sh := range e.shards {
		n := len(sh.frontier)
		if n == 0 {
			continue
		}
		chunks := t
		if chunks > n {
			chunks = n
		}
		for c := 0; c < chunks; c++ {
			lo, hi := c*n/chunks, (c+1)*n/chunks
			if lo < hi {
				spans = append(spans, shardSpan{int32(s), int32(lo), int32(hi)})
			}
		}
	}
	e.frontierSpanBuf = spans
	return spans
}

// updateShardActivity folds the workers' per-shard activation/halt
// deltas into each shard's incremental active count and derives the
// next superstep's shard-skip decision: a shard is runnable iff it has
// an active vertex or received a delivery this superstep (after the
// swap, exactly the slots with current mail). Runs single-threaded at
// the barrier on the completed-superstep path; under CheckInvariants
// the incremental count is audited against a full flag scan.
func (e *Engine[V, M]) updateShardActivity(step StepStats) error {
	for s, sh := range e.shards {
		var delta int64
		for _, w := range e.workers {
			delta += w.activated[s] - w.halted[s]
		}
		sh.activeCount += delta
		sh.runnable = sh.activeCount > 0 || (s < len(step.ShardMessages) && step.ShardMessages[s] > 0)
	}
	if e.cfg.CheckInvariants {
		return e.auditShardActivity()
	}
	return nil
}

// initShardActivity seeds the activity summary from the engine's
// current state: all-zero for a fresh engine (superstep 0 runs every
// vertex regardless), the restored flags and mailboxes for an engine
// built by Restore — whose first superstep is not 0 and therefore
// consults runnable immediately.
func (e *Engine[V, M]) initShardActivity() {
	for _, sh := range e.shards {
		var n int64
		for _, a := range sh.active {
			if a != 0 {
				n++
			}
		}
		sh.activeCount = n
		received := false
		for local := range sh.values {
			if sh.mb.hasCurrent(local) {
				received = true
				break
			}
		}
		sh.runnable = n > 0 || received
	}
}

// auditShardActivity is the CheckInvariants cross-check of the
// incremental active counts against the ground-truth flag arrays.
func (e *Engine[V, M]) auditShardActivity() error {
	for s, sh := range e.shards {
		var n int64
		for _, a := range sh.active {
			if a != 0 {
				n++
			}
		}
		if n != sh.activeCount {
			return &InvariantError{
				Superstep: e.superstep,
				Invariant: "shard-activity",
				Detail:    fmt.Sprintf("shard %d: incremental active count %d but %d active flags are set; the shard-skip decision would be wrong", s, sh.activeCount, n),
			}
		}
	}
	return nil
}

// drainRouters flushes every worker's per-shard routing buffers at the
// compute barrier. Parallelism is over DESTINATION shards: one worker
// drains all routers' entries for shard d, so each shard mailbox sees a
// single drainer and the flush itself is contention-free — the bulk-
// combine counterpart of drainSenderCaches.
func (e *Engine[V, M]) drainRouters() {
	e.parallelFor(e.nShards, func(_, d int) {
		mb := e.shards[d].mb
		for _, w := range e.workers {
			w.route.drainShard(d, mb)
		}
	})
}

// gatherFrontierSharded concatenates the workers' per-shard enrol
// buffers into each shard's next frontier, one destination shard per
// work item.
func (e *Engine[V, M]) gatherFrontierSharded() {
	e.parallelFor(e.nShards, func(_, d int) {
		sh := e.shards[d]
		buf := sh.frontierNext[:0]
		for _, w := range e.workers {
			buf = append(buf, w.route.frontier[d]...)
		}
		sh.frontierNext = buf
	})
}

// swapFrontiersSharded is the bypass barrier work: promote each shard's
// next frontier and clear its dedup flags, mirroring the single-shard
// swap in RunContext.
func (e *Engine[V, M]) swapFrontiersSharded() {
	for _, sh := range e.shards {
		sh.frontier, sh.frontierNext = sh.frontierNext, sh.frontier[:0]
		for _, local := range sh.frontier {
			atomic.StoreUint32(&sh.inNext[local], 0)
		}
	}
}

// auditBypassSharded is auditBypass over per-shard frontiers: after the
// swap, every vertex holding a message must be enrolled in its shard's
// frontier.
func (e *Engine[V, M]) auditBypassSharded() error {
	if e.auditSeen == nil {
		e.auditSeen = make([]uint8, e.slots)
	} else {
		clear(e.auditSeen)
	}
	for s, sh := range e.shards {
		for _, local := range sh.frontier {
			e.auditSeen[e.part.globalOf(s, int(local))] = 1
		}
	}
	for i := 0; i < e.g.N(); i++ {
		slot := i + e.shift
		if e.hasCurrentAt(slot) && e.auditSeen[slot] == 0 {
			return fmt.Errorf("core: bypass audit: vertex %d has mail but is not in the frontier", e.addr.idOf(slot))
		}
	}
	return nil
}
