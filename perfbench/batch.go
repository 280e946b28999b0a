package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"ipregel/internal/algorithms"
	"ipregel/internal/core"
	"ipregel/internal/graph"
	"ipregel/internal/graphio"
)

// setups is how many times a run loads its inputs and builds its engine;
// setup_s is their median.
const setups = 3

// batchSpec is one batch workload: a graph file read with graphio, one
// engine configuration, one vertex program and the reference check its
// output must pass.
type batchSpec[V, M any] struct {
	input   input
	read    graphio.Options
	cfg     core.Config
	program func() core.Program[V, M]
	// check compares a query's values with the reference, which is
	// computed once per run from the loaded graph.
	check func(g *graph.Graph) func(got []V) error
}

// pagerankWiki: PageRank, 30 rounds, on the Wikipedia stand-in read from
// KONECT TSV, with the CLI defaults (spinlock push, offset addressing,
// static schedule).
func pagerankWiki(seed int64) batchSpec[float64, float64] {
	const rounds = 30
	return batchSpec[float64, float64]{
		input:   wikiInput(128, seed, graphio.FormatKONECT, "tsv"),
		cfg:     cliDefaults(),
		program: func() core.Program[float64, float64] { return algorithms.PageRankProgram(rounds) },
		check: func(g *graph.Graph) func([]float64) error {
			want := algorithms.RefPageRank(g, rounds)
			return func(got []float64) error { return ranksMatch(got, want) }
		},
	}
}

// ssspRoad: unit-weight SSSP with selection bypass from vertex 1 (a grid
// corner, so the wavefront crosses the whole grid) on the USA-road
// stand-in read from DIMACS .gr.
func ssspRoad() batchSpec[uint32, uint32] {
	const source = 1
	cfg := cliDefaults()
	cfg.SelectionBypass = true
	return batchSpec[uint32, uint32]{
		input:   roadInput(32, graphio.FormatDIMACS, "gr"),
		cfg:     cfg,
		program: func() core.Program[uint32, uint32] { return algorithms.SSSPProgram(source) },
		check: func(g *graph.Graph) func([]uint32) error {
			want := algorithms.RefSSSP(g, source)
			return func(got []uint32) error { return exactMatch(got, want) }
		},
	}
}

// cliDefaults is ipregel-run's engine configuration when no flag is
// given: spinlock combiner, offset addressing, static schedule, push,
// threads = GOMAXPROCS.
func cliDefaults() core.Config {
	return core.Config{Combiner: core.CombinerSpin, Addressing: core.AddressOffset, Schedule: core.ScheduleStatic}
}

// ranksMatch is the result contract the internal/algorithms tests hold
// PageRank to: every rank within 1e-9·(1+|want|) of the reference.
func ranksMatch(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d ranks, want %d", len(got), len(want))
	}
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
			return fmt.Errorf("rank[%d] = %v, reference %v", i, got[i], want[i])
		}
	}
	return nil
}

func exactMatch[T comparable](got, want []T) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d values, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("value[%d] = %v, reference %v", i, got[i], want[i])
		}
	}
	return nil
}

// query is one timed run of the program against the resident graph:
// core.New, Engine.RunContext, Engine.ValuesDense.
type query struct {
	latency time.Duration // New + RunContext + ValuesDense
	run     time.Duration // RunContext alone
	rep     core.Report
	traced  bool

	// Traced queries only.
	runSpan span // around RunContext; the superstep spans are its children
	steps   []core.StepStats
	mallocs uint64
	allocB  uint64
	gcs     uint32
	gcPause time.Duration
	cpu     time.Duration
}

// runBatch loads the graph setups times, then runs queries back to back
// (a closed loop with one client) for the given duration. With tracing
// on, every second query is traced, so the traced and untraced run_s
// come from the same stretch of time.
func runBatch[V, M any](spec batchSpec[V, M], o options) (*report, error) {
	path, err := spec.input.ensure(filepath.Join(o.workDir, "inputs"))
	if err != nil {
		return nil, err
	}
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}

	var (
		g                   *graph.Graph
		e                   *core.Engine[V, M]
		setupT, readT, newT []float64
		readAllocs          []float64
	)
	for k := 0; k < setups; k++ {
		g, e = nil, nil
		runtime.GC()
		run := fmt.Sprintf("setup%d", k)
		root, readID, newID := tr.id(), tr.id(), tr.id()
		var ms0, ms1 runtime.MemStats
		if o.trace {
			runtime.ReadMemStats(&ms0)
		}
		t0 := time.Now()
		g, err = graphio.ReadFile(path, spec.read)
		t1 := time.Now()
		if err != nil {
			return nil, fmt.Errorf("graphio.ReadFile: %w", err)
		}
		if o.trace {
			runtime.ReadMemStats(&ms1)
			readAllocs = append(readAllocs, float64(ms1.Mallocs-ms0.Mallocs))
		}
		e, err = core.New(g, spec.cfg, spec.program())
		t2 := time.Now()
		if err != nil {
			return nil, fmt.Errorf("core.New: %w", err)
		}
		tr.record(readID, root, run, "graphio.ReadFile", t0, t1)
		tr.record(newID, root, run, "core.New", t1, t2)
		tr.record(root, 0, run, "setup", t0, t2)
		setupT = append(setupT, seconds(t2.Sub(t0)))
		readT = append(readT, seconds(t1.Sub(t0)))
		newT = append(newT, seconds(t2.Sub(t1)))
	}

	check := spec.check(g)
	r := &report{}
	// Warm-up: the set-up engine's run is checked but not timed, so the
	// timed queries all start with warm caches and a grown heap.
	if _, err := e.RunContext(context.Background()); err != nil {
		return nil, fmt.Errorf("warm-up run: %w", err)
	}
	if err := check(e.ValuesDense()); err != nil {
		return nil, fmt.Errorf("warm-up run: %w", err)
	}

	var qs []query
	deadline := time.Now().Add(o.seconds)
	for i := 0; time.Now().Before(deadline) || (o.trace && i < 2); i++ {
		q, qe, vals, err := runQuery(spec, g, tr, i, o.trace && i%2 == 1)
		r.attempted++
		if err == nil {
			err = check(vals)
		}
		if err != nil {
			r.failed++
			r.errs = append(r.errs, fmt.Sprintf("query %d: %v", i, err))
			continue
		}
		e = qe
		qs = append(qs, q)
	}
	var plain, traced []query
	for _, q := range qs {
		if q.traced {
			traced = append(traced, q)
		} else {
			plain = append(plain, q)
		}
	}
	if len(plain) == 0 || (o.trace && len(traced) == 0) {
		return r, fmt.Errorf("too few queries succeeded: %v", r.errs)
	}
	var lat, runs []float64
	var latSum time.Duration
	for _, q := range plain {
		lat = append(lat, millis(q.latency))
		runs = append(runs, seconds(q.run))
		latSum += q.latency
	}
	runS := median(runs)
	msgs := float64(plain[0].rep.TotalMessages)

	r.note("set-up %d times: graphio.ReadFile(%s, %.1f MB) + core.New", setups, path, float64(st.Size())/1e6)
	r.note("%d timed queries (core.New + RunContext + ValuesDense), %d traced", len(plain), len(traced))
	r.e2e("setup_s", median(setupT), "s")
	r.e2e("run_s", runS, "s")
	r.e2e("msgs_per_s", msgs/runS, "1/s")
	if !o.trace {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		r.e2e("heap_mb", float64(ms.HeapAlloc)/1e6, "MB")
		runtime.KeepAlive(g)
		runtime.KeepAlive(e)
	}
	r.e2e("job_p50_ms", median(lat), "ms")
	r.extra("job_p95_ms", percentile(lat, 95), "ms")
	r.note("job_p95_ms is the interpolated p95 of %d queries; %s", len(lat), tailNote(lat))
	r.e2e("jobs_per_s", float64(len(plain))/latSum.Seconds(), "1/s")

	if o.trace {
		batchLayers(r, tr, g, e.Config().Threads, traced, runS)
		r.layer("graphio.read_s", median(readT), "s")
		r.layer("graphio.read_mb_per_s", float64(st.Size())/1e6/median(readT), "MB/s")
		r.layer("graphio.allocs", median(readAllocs), "count")
		r.layer("graph.bytes", float64(g.MemoryBytes()), "bytes")
		r.layer("core.new_s", median(newT), "s")
		r.layer("core.footprint_mb", float64(e.FootprintBytes())/1e6, "MB")
		noService(r)
		if err := tr.write(o.tracePath); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// runQuery builds a fresh engine on the resident graph and runs it. A
// traced query adds the benchmark's observer, per-worker busy times and
// memory and CPU counters around RunContext, and records spans.
func runQuery[V, M any](spec batchSpec[V, M], g *graph.Graph, tr *tracer, i int, traced bool) (query, *core.Engine[V, M], []V, error) {
	q := query{traced: traced}
	cfg := spec.cfg
	if traced {
		cfg.TrackWorkerTime = true
	} else {
		tr = nil
	}
	run := fmt.Sprintf("q%d", i)
	root, newID, runID, valID := tr.id(), tr.id(), tr.id(), tr.id()
	obs := &stepObserver{t: tr, run: run, parent: runID}

	t0 := time.Now()
	e, err := core.New(g, cfg, spec.program())
	t1 := time.Now()
	if err != nil {
		return q, nil, nil, fmt.Errorf("core.New: %w", err)
	}
	var ms0, ms1 runtime.MemStats
	var cpu0 time.Duration
	if traced {
		if err := e.AddObserver(obs); err != nil {
			return q, nil, nil, err
		}
		runtime.ReadMemStats(&ms0)
		cpu0 = cpuTime()
	}
	t2 := time.Now()
	rep, err := e.RunContext(context.Background())
	t3 := time.Now()
	if traced {
		q.cpu = cpuTime() - cpu0
		runtime.ReadMemStats(&ms1)
	}
	if err != nil {
		return q, nil, nil, fmt.Errorf("RunContext: %w", err)
	}
	vals := e.ValuesDense()
	t4 := time.Now()

	tr.record(newID, root, run, "core.New", t0, t1)
	q.runSpan = tr.record(runID, root, run, "Engine.RunContext", t2, t3)
	tr.record(valID, root, run, "Engine.ValuesDense", t3, t4)
	tr.record(root, 0, run, "query", t0, t4)
	q.latency = t4.Sub(t0) - t2.Sub(t1) // the counter reads are not the query's
	q.run = t3.Sub(t2)
	q.rep = rep
	if traced {
		q.steps = obs.steps
		q.mallocs = ms1.Mallocs - ms0.Mallocs
		q.allocB = ms1.TotalAlloc - ms0.TotalAlloc
		q.gcs = ms1.NumGC - ms0.NumGC
		q.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	}
	return q, e, vals, nil
}

// batchLayers derives the core and runtime per-layer metrics from the
// traced queries' spans and counters.
func batchLayers(r *report, tr *tracer, g *graph.Graph, threads int, traced []query, plainRunS float64) {
	if threads == 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	var stepMs, overhead, runs, cores, apm, allocMB, gcs, pause, imb []float64
	var ran ratio
	var busy ratio
	for _, q := range traced {
		runs = append(runs, seconds(q.run))
		kids := tr.children(q.runSpan.ID)
		var stepSum time.Duration
		for _, k := range kids {
			stepMs = append(stepMs, millis(k.dur()))
			stepSum += k.dur()
		}
		overhead = append(overhead, seconds(selfTime(q.runSpan, kids)))
		for _, s := range q.steps {
			ran.num += float64(s.Ran)
			for _, b := range s.WorkerBusy {
				busy.num += float64(b)
			}
		}
		ran.den += float64(g.N()) * float64(q.rep.Supersteps)
		busy.den += float64(threads) * float64(stepSum)
		cores = append(cores, float64(q.cpu)/float64(q.run))
		apm = append(apm, float64(q.mallocs)/float64(q.rep.TotalMessages))
		allocMB = append(allocMB, float64(q.allocB)/1e6)
		gcs = append(gcs, float64(q.gcs))
		pause = append(pause, millis(q.gcPause))
		imb = append(imb, q.rep.LoadImbalance())
	}
	last := traced[len(traced)-1].rep
	r.layer("core.supersteps", float64(last.Supersteps), "count")
	r.layer("core.msgs", float64(last.TotalMessages), "count")
	r.layer("core.step_p50_ms", median(stepMs), "ms")
	p, v := tail(stepMs)
	r.layer("core.step_tail_ms", v, "ms")
	r.layer("core.step_tail_pct", p, "pct")
	r.note("core.step_tail_ms is p%g of %d superstep spans (%d beyond)", p, len(stepMs), beyond(len(stepMs), p))
	r.layer("core.loop_overhead_s", median(overhead), "s")
	r.layer("core.ran_frac", ran.value(), "ratio")
	r.note("core.ran_frac = %v vertex runs / (N x supersteps)", ran)
	r.layer("core.worker_busy_frac", busy.value(), "ratio")
	r.note("core.worker_busy_frac = %v ns busy / (%d threads x superstep ns)", busy, threads)
	r.layer("core.worker_imbalance", median(imb), "ratio")
	r.layer("core.cpu_cores", median(cores), "cores")
	r.layer("core.allocs_per_msg", median(apm), "allocs/msg")
	r.layer("core.alloc_mb", median(allocMB), "MB")
	r.layer("runtime.gc_cycles", median(gcs), "count")
	r.layer("runtime.gc_pause_ms", median(pause), "ms")
	r.layer("trace.run_overhead_s", median(runs)-plainRunS, "s")
	r.note("trace.run_overhead_s = traced run_s %.6g - untraced run_s %.6g", median(runs), plainRunS)
}

// noService fills the service-layer metrics of a batch workload, which
// has no service, queue, cache, HTTP or load generator on its path: the
// counts and times are zero.
func noService(r *report) {
	for _, n := range []string{"service.queue_p50_ms", "service.queue_p95_ms", "service.run_p50_ms",
		"service.job_overhead_ms", "service.http_ms", "telemetry.scrape_ms", "loadgen.late_p95_ms"} {
		r.layer(n, 0, "ms")
	}
	r.layer("service.cache_hit_ratio", 0, "ratio")
	r.layer("service.rejected", 0, "count")
	r.layer("service.retried", 0, "count")
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// tailNote states which tail percentile the samples support.
func tailNote(xs []float64) string {
	p, v := tail(xs)
	if p == 100 {
		return fmt.Sprintf("too few samples for any percentile with %d beyond it (max %.6g)", minBeyond, v)
	}
	return fmt.Sprintf("the highest percentile with %d beyond it is p%g = %.6g", minBeyond, p, v)
}
