package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"ipregel/internal/algorithms"
	"ipregel/internal/core"
	"ipregel/internal/graph"
	"ipregel/internal/graphio"
	"ipregel/internal/service"
)

const (
	// mixRate is the open loop's arrival rate in jobs/s: about a quarter
	// of the closed-loop capacity that --calibrate measures (see
	// README.md). Queueing delay grows steeply with load, so at half of
	// capacity a shared machine that slows down for a minute multiplies
	// the latencies; at a quarter they follow the slowdown.
	mixRate = 10.0
	// mixMinJobs keeps at least ten samples beyond p95.
	mixMinJobs = 200
	// pollEvery is how often a client asks whether its job is done.
	pollEvery = 5 * time.Millisecond
	// scrapeEvery is the operator's /metrics scrape interval.
	scrapeEvery = time.Second
	// spotChecks is how many vertices per graph every job's result is
	// checked at, besides its whole-graph summaries.
	spotChecks = 8
	bfsPool    = 8
	prRounds   = 10
	prTop      = 10
)

var mixClasses = []string{"pagerank", "sssp", "wcc", "bfs"}

// mixGraphs are the two resident graphs, read from IPG binary files.
type mixGraphs struct {
	wiki, usa *graph.Graph
	bytes     int64
}

// jobPlan is one job of the open loop: when it is due and what it asks.
type jobPlan struct {
	due   time.Duration // after the start of the load
	class string
	req   service.JobRequest
}

// mixRefs are the reference answers, computed once at set-up, that every
// job's result is spot-checked against.
type mixRefs struct {
	ranks   []float64
	rankKth float64 // the prTop-th largest reference rank
	wcc     []uint32
	wccN    int
	sssp    map[uint64][]uint32
	bfs     map[uint64][]algorithms.BFSState
	spotW   []uint64 // spot-check vertices of wiki
	spotU   []uint64 // spot-check vertices of usa
	reached map[uint64]int
}

// jobOutcome is what the client saw of one job.
type jobOutcome struct {
	class           string
	due, sent, done time.Time
	status          int
	view            service.JobView
	err             error
}

func (j jobOutcome) latency() time.Duration  { return j.done.Sub(j.due) }
func (j jobOutcome) lateness() time.Duration { return j.sent.Sub(j.due) }

// runMix serves wiki/1024 and usa/1024 from an in-process service with
// the daemon's defaults and drives it over loopback HTTP with a seeded
// open loop: Poisson arrivals at mixRate, four equal job classes.
func runMix(o options) (*report, error) {
	files, err := mixInputs(o)
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}

	r := &report{}
	var (
		gs                    mixGraphs
		setupT, readT, allocs []float64
	)
	for k := 0; k < setups; k++ {
		runtime.GC()
		var ms0, ms1 runtime.MemStats
		if o.trace {
			runtime.ReadMemStats(&ms0)
		}
		t0 := time.Now()
		run := fmt.Sprintf("setup%d", k)
		root := tr.id()
		gs, err = readMixGraphs(files, tr, root, run)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		if o.trace {
			runtime.ReadMemStats(&ms1)
			allocs = append(allocs, float64(ms1.Mallocs-ms0.Mallocs))
		}
		svc, dir, err := startService(o, gs, nil, tr, root, run, k)
		if err != nil {
			return nil, err
		}
		t2 := time.Now()
		tr.record(root, 0, run, "setup", t0, t2)
		if err := stopService(svc, dir); err != nil {
			return nil, err
		}
		setupT = append(setupT, seconds(t2.Sub(t0)))
		readT = append(readT, seconds(t1.Sub(t0)))
	}

	plan, refs := planMix(o.seed, o.seconds, gs)

	plain, err := runLoad(o, gs, plan, refs, nil, setups)
	if err != nil {
		return nil, err
	}
	var traced *loadResult
	if o.trace {
		if traced, err = runLoad(o, gs, plan, refs, tr, setups+1); err != nil {
			return nil, err
		}
	}

	for _, l := range []*loadResult{plain, traced} {
		if l == nil {
			continue
		}
		r.attempted += len(l.jobs)
		for _, j := range l.jobs {
			if j.err != nil {
				r.failed++
				r.errs = append(r.errs, fmt.Sprintf("%s job due at %v: %v", j.class, j.due.Sub(l.start), j.err))
			}
		}
	}

	runMs := plain.runMillis()
	r.note("set-up %d times: graphio.ReadFile of %d IPG files (%.1f MB) + service.New + AddGraph x2 + Start", setups, len(files), float64(gs.bytes)/1e6)
	r.note("open loop: %d jobs, Poisson arrivals at %.4g jobs/s, last due at %.4gs, classes %v, poll every %v", len(plan), mixRate, plan[len(plan)-1].due.Seconds(), mixClasses, pollEvery)
	r.e2e("setup_s", median(setupT), "s")
	r.e2e("run_s", median(runMs)/1e3, "s")
	r.note("run_s is the median service run time (dequeue to done) of %d executed jobs", len(runMs))
	r.e2e("msgs_per_s", median(plain.msgRates()), "1/s")
	r.note("msgs_per_s is the median over executed jobs of messages / engine seconds")
	if !o.trace {
		r.e2e("heap_mb", plain.heapMB, "MB")
	}
	lat := plain.latencies()
	r.e2e("job_p50_ms", median(lat), "ms")
	r.extra("job_p95_ms", percentile(lat, 95), "ms")
	r.note("job latency is due time to the first poll that sees the job done, over %d jobs; %s", len(lat), tailNote(lat))
	r.e2e("jobs_per_s", plain.jobsPerSec().value(), "1/s")
	r.note("jobs_per_s = %v jobs / seconds from first due to last done", plain.jobsPerSec())
	for _, c := range mixClasses {
		var lat, run, eng, steps []float64
		for _, j := range plain.jobs {
			if j.class == c && j.err == nil {
				lat = append(lat, millis(j.latency()))
				if !j.view.Cached {
					run = append(run, j.view.RunMillis)
					eng = append(eng, j.view.Result.EngineMillis)
					steps = append(steps, float64(j.view.Result.Supersteps))
				}
			}
		}
		r.note("%-8s %3d jobs: latency p50 %.4g ms; %3d executed: run p50 %.4g ms, engine p50 %.4g ms, supersteps p50 %g",
			c, len(lat), median(lat), len(run), median(run), median(eng), median(steps))
	}

	if o.trace {
		mixLayers(r, traced, median(runMs)/1e3)
		r.layer("graphio.read_s", median(readT), "s")
		r.layer("graphio.read_mb_per_s", float64(gs.bytes)/1e6/median(readT), "MB/s")
		r.layer("graphio.allocs", median(allocs), "count")
		r.layer("graph.bytes", float64(gs.wiki.MemoryBytes()+gs.usa.MemoryBytes()), "bytes")
		newS, footMB, err := mixEngines(gs)
		if err != nil {
			return nil, err
		}
		r.layer("core.new_s", newS, "s")
		r.layer("core.footprint_mb", footMB, "MB")
		r.note("core.new_s and core.footprint_mb: core.New for each job class on the served graphs with the service's engine template, beside the service (its own calls cannot be timed from outside)")
		if err := tr.write(o.tracePath); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// mixInputs generates the served graphs as IPG binary files.
func mixInputs(o options) ([]string, error) {
	var files []string
	for _, in := range []input{
		wikiInput(1024, o.seed, graphio.FormatBinary, "bin"),
		roadInput(1024, graphio.FormatBinary, "bin"),
	} {
		p, err := in.ensure(filepath.Join(o.workDir, "inputs"))
		if err != nil {
			return nil, err
		}
		files = append(files, p)
	}
	return files, nil
}

func readMixGraphs(files []string, tr *tracer, parent int64, run string) (mixGraphs, error) {
	var gs mixGraphs
	for i, path := range files {
		id := tr.id()
		t0 := time.Now()
		g, err := graphio.ReadFile(path, graphio.Options{})
		tr.record(id, parent, run, "graphio.ReadFile", t0, time.Now())
		if err != nil {
			return gs, fmt.Errorf("graphio.ReadFile: %w", err)
		}
		st, err := os.Stat(path)
		if err != nil {
			return gs, err
		}
		gs.bytes += st.Size()
		if i == 0 {
			gs.wiki = g
		} else {
			gs.usa = g
		}
	}
	return gs, nil
}

// serviceOptions is ipregeld's configuration when no flag is given, with
// one thread per job so the two workers share the two cores, and the
// checkpoint root inside the work directory.
func serviceOptions(o options, k int, obs core.Observer) service.Options {
	opts := service.Options{
		Queue:        64,
		Workers:      2,
		CacheEntries: 128,
		Engine: core.Config{
			Combiner:   core.CombinerSpin,
			Addressing: core.AddressOffset,
			Schedule:   core.ScheduleStatic,
			Threads:    1,
		},
		MaxSupersteps:   100000,
		CheckpointRoot:  filepath.Join(o.workDir, fmt.Sprintf("ckpt-%d-%d", os.Getpid(), k)),
		CheckpointEvery: 8,
		CheckpointKeep:  3,
		RecoverAttempts: 3,
	}
	if obs != nil {
		opts.Engine.Observers = []core.Observer{obs}
		opts.Engine.TrackWorkerTime = true
	}
	return opts
}

// startService runs service.New, AddGraph for both graphs and Start,
// recording a span around each.
func startService(o options, gs mixGraphs, obs core.Observer, tr *tracer, parent int64, run string, k int) (*service.Service, string, error) {
	opts := serviceOptions(o, k, obs)
	if err := os.MkdirAll(opts.CheckpointRoot, 0o755); err != nil {
		return nil, "", err
	}
	step := func(name string, f func() error) error {
		id := tr.id()
		t0 := time.Now()
		err := f()
		tr.record(id, parent, run, name, t0, time.Now())
		return err
	}
	var svc *service.Service
	_ = step("service.New", func() error { svc = service.New(opts); return nil })
	err := step("service.AddGraph", func() error { return svc.AddGraph("wiki", gs.wiki, "wiki-1024.bin") })
	if err == nil {
		err = step("service.AddGraph", func() error { return svc.AddGraph("usa", gs.usa, "usa-1024.bin") })
	}
	if err == nil {
		err = step("service.Start", svc.Start)
	}
	if err != nil {
		return nil, "", errors.Join(err, stopService(svc, opts.CheckpointRoot))
	}
	return svc, opts.CheckpointRoot, nil
}

func stopService(svc *service.Service, dir string) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := svc.Close(ctx)
	return errors.Join(err, os.RemoveAll(dir))
}

// planMix draws the open loop from the seed: arrivals of a Poisson
// process at mixRate conditioned on its count over the run (n uniform
// times, so the offered load does not vary from seed to seed), classes
// in equal shares in random order, distinct SSSP sources (so
// every SSSP misses the cache), BFS sources from a small pool (so BFS
// hits it after first use), and the spot-check vertices. It also
// computes the references those jobs are checked against.
func planMix(seed int64, span time.Duration, gs mixGraphs) ([]jobPlan, *mixRefs) {
	rng := rand.New(rand.NewSource(deriveSeed(seed, 3)))
	n := int(math.Ceil(mixRate * span.Seconds()))
	if n < mixMinJobs {
		n = mixMinJobs
		span = time.Duration(float64(n) / mixRate * float64(time.Second))
	}
	n = (n + len(mixClasses) - 1) / len(mixClasses) * len(mixClasses)
	due := make([]float64, n)
	for i := range due {
		due[i] = rng.Float64() * span.Seconds()
	}
	sort.Float64s(due)
	refs := &mixRefs{
		ranks:   algorithms.RefPageRank(gs.wiki, prRounds),
		wcc:     algorithms.RefWCC(gs.wiki),
		sssp:    map[uint64][]uint32{},
		bfs:     map[uint64][]algorithms.BFSState{},
		reached: map[uint64]int{},
	}
	refs.wccN = algorithms.ComponentCount(refs.wcc)
	refs.rankKth = sorted(refs.ranks)[len(refs.ranks)-prTop]
	ext := func(g *graph.Graph, i int) uint64 { return uint64(g.ExternalID(i)) }
	for i := 0; i < spotChecks; i++ {
		refs.spotW = append(refs.spotW, ext(gs.wiki, rng.Intn(gs.wiki.N())))
		refs.spotU = append(refs.spotU, ext(gs.usa, rng.Intn(gs.usa.N())))
	}
	var pool []uint64
	for len(pool) < bfsPool {
		i := rng.Intn(gs.wiki.N())
		if gs.wiki.OutDegree(i) > 0 && refs.bfs[ext(gs.wiki, i)] == nil {
			src := ext(gs.wiki, i)
			refs.bfs[src] = algorithms.RefBFS(gs.wiki, graph.VertexID(src))
			pool = append(pool, src)
		}
	}
	sources := rng.Perm(gs.usa.N())

	classes := make([]string, n)
	for i := range classes {
		classes[i] = mixClasses[i%len(mixClasses)]
	}
	rng.Shuffle(n, func(i, j int) { classes[i], classes[j] = classes[j], classes[i] })

	plan := make([]jobPlan, n)
	for i := range plan {
		jp := jobPlan{due: time.Duration(due[i] * float64(time.Second)), class: classes[i]}
		switch jp.class {
		case "pagerank":
			jp.req = service.JobRequest{Graph: "wiki", Program: "pagerank", NoCache: true,
				Params: service.Params{Rounds: prRounds, Top: prTop, Vertices: refs.spotW}}
		case "wcc":
			jp.req = service.JobRequest{Graph: "wiki", Program: "wcc", NoCache: true,
				Params: service.Params{Vertices: refs.spotW}}
		case "bfs":
			src := pool[rng.Intn(len(pool))]
			jp.req = service.JobRequest{Graph: "wiki", Program: "bfs",
				Params: service.Params{Source: &src, Vertices: refs.spotW}}
		case "sssp":
			src := ext(gs.usa, sources[0])
			sources = sources[1:]
			d := algorithms.RefSSSP(gs.usa, graph.VertexID(src))
			refs.sssp[src] = pick(d, gs.usa, refs.spotU)
			refs.reached[src] = reachedCount(d)
			jp.req = service.JobRequest{Graph: "usa", Program: "sssp",
				Params: service.Params{Source: &src, Vertices: refs.spotU}}
		}
		plan[i] = jp
	}
	return plan, refs
}

// pick keeps only the spot-check entries of a reference vector, indexed
// like spot.
func pick[T any](vals []T, g *graph.Graph, spot []uint64) []T {
	out := make([]T, len(spot))
	for k, id := range spot {
		out[k] = vals[int(id-uint64(g.Base()))]
	}
	return out
}

func reachedCount(d []uint32) int {
	n := 0
	for _, x := range d {
		if x != algorithms.Infinity {
			n++
		}
	}
	return n
}

// check compares a finished job's result with the references.
func (refs *mixRefs) check(jp jobPlan, v service.JobView, wiki *graph.Graph) error {
	if v.State != service.StateDone {
		return fmt.Errorf("job %s ended %s: %s", v.ID, v.State, v.Error)
	}
	res := v.Result
	if res == nil {
		return fmt.Errorf("job %s: done without a result", v.ID)
	}
	base := uint64(wiki.Base())
	switch jp.class {
	case "pagerank":
		if len(res.Top) != prTop {
			return fmt.Errorf("pagerank: %d top entries, want %d", len(res.Top), prTop)
		}
		kth := refs.rankKth
		for _, t := range append(append([]service.VertexValue(nil), res.Top...), res.Values...) {
			want := refs.ranks[t.ID-base]
			if math.Abs(t.Value-want) > 1e-9*(1+math.Abs(want)) {
				return fmt.Errorf("pagerank: rank of %d = %v, reference %v", t.ID, t.Value, want)
			}
		}
		if res.Top[prTop-1].Value < kth-1e-9*(1+kth) {
			return fmt.Errorf("pagerank: top %d ends at %v, reference %v", prTop, res.Top[prTop-1].Value, kth)
		}
	case "wcc":
		if res.Components != refs.wccN {
			return fmt.Errorf("wcc: %d components, reference %d", res.Components, refs.wccN)
		}
		return spotMatch(res.Values, refs.spotW, func(k int, vv service.VertexValue) bool {
			return uint32(vv.Value) == refs.wcc[refs.spotW[k]-base]
		})
	case "bfs":
		want := refs.bfs[*jp.req.Params.Source]
		if res.Reached != reachedBFS(want) {
			return fmt.Errorf("bfs: reached %d, reference %d", res.Reached, reachedBFS(want))
		}
		return spotMatch(res.Values, refs.spotW, func(k int, vv service.VertexValue) bool {
			w := want[refs.spotW[k]-base]
			parentOK := (vv.Parent == nil && w.Parent == algorithms.Infinity) ||
				(vv.Parent != nil && *vv.Parent == uint64(w.Parent))
			return uint32(vv.Value) == w.Depth && parentOK
		})
	case "sssp":
		src := *jp.req.Params.Source
		if res.Reached != refs.reached[src] {
			return fmt.Errorf("sssp: reached %d, reference %d", res.Reached, refs.reached[src])
		}
		want := refs.sssp[src]
		return spotMatch(res.Values, refs.spotU, func(k int, vv service.VertexValue) bool {
			return uint32(vv.Value) == want[k]
		})
	}
	return nil
}

func reachedBFS(states []algorithms.BFSState) int {
	n := 0
	for _, s := range states {
		if s.Depth != algorithms.Infinity {
			n++
		}
	}
	return n
}

// spotMatch checks the returned values, which the service sorts by
// vertex id, against the spot-check list.
func spotMatch(got []service.VertexValue, spot []uint64, ok func(k int, v service.VertexValue) bool) error {
	byID := map[uint64]service.VertexValue{}
	for _, v := range got {
		byID[v.ID] = v
	}
	for k, id := range spot {
		v, found := byID[id]
		if !found || !ok(k, v) {
			return fmt.Errorf("value of vertex %d = %+v differs from the reference", id, v)
		}
	}
	return nil
}

// mixObserver is the benchmark's observer in the service's engine
// template. Two jobs run at once, so its calls interleave and a start
// cannot be paired with an end; it keeps each superstep's StepStats,
// whose Duration the engine measured.
type mixObserver struct {
	mu    sync.Mutex
	steps []core.StepStats
}

func (m *mixObserver) OnSuperstepStart(int) {}
func (m *mixObserver) OnSuperstepEnd(_ int, s core.StepStats) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.steps = append(m.steps, s)
}
func (m *mixObserver) OnAbort(int, string, error)  {}
func (m *mixObserver) OnRunEnd(core.Report, error) {}

// loadResult is one pass of the open loop against one service.
type loadResult struct {
	start, end time.Time
	jobs       []jobOutcome
	scrapes    []float64 // ms
	obs        *mixObserver
	heapMB     float64
	ms0, ms1   runtime.MemStats
	cpu        time.Duration
}

// runLoad starts a service, serves its handler over loopback HTTP, runs
// the planned open loop against it with a 1 Hz /metrics scrape beside,
// and stops it. A non-nil tracer adds the benchmark's observer to the
// engine template and records a span around every HTTP request.
func runLoad(o options, gs mixGraphs, plan []jobPlan, refs *mixRefs, tr *tracer, k int) (*loadResult, error) {
	l := &loadResult{}
	var obs core.Observer // a nil *mixObserver must not become a non-nil Observer
	if tr != nil {
		l.obs = &mixObserver{}
		obs = l.obs
	}
	run := fmt.Sprintf("load%d", k)
	svc, dir, err := startService(o, gs, obs, tr, 0, run, k)
	if err != nil {
		return nil, err
	}
	hid := tr.id()
	t0 := time.Now()
	h := svc.Handler()
	tr.record(hid, 0, run, "service.Handler", t0, time.Now())

	base, client, shutdown, err := serveHTTP(h)
	if err != nil {
		return nil, errors.Join(err, stopService(svc, dir))
	}

	stop := make(chan struct{})
	var scrapeWG sync.WaitGroup
	scrapeWG.Add(1)
	go func() {
		defer scrapeWG.Done()
		l.scrapes = scrape(client, base, tr, stop)
	}()

	runtime.GC()
	runtime.ReadMemStats(&l.ms0)
	cpu0 := cpuTime()
	l.start = time.Now().Add(10 * time.Millisecond)
	l.jobs = make([]jobOutcome, len(plan))
	var wg sync.WaitGroup
	for i, jp := range plan {
		due := l.start.Add(jp.due)
		time.Sleep(time.Until(due))
		wg.Add(1)
		go func(i int, jp jobPlan) {
			defer wg.Done()
			l.jobs[i] = doJob(client, base, jp, due, tr, fmt.Sprintf("%s.job%d", run, i))
			if l.jobs[i].err == nil {
				l.jobs[i].err = refs.check(jp, l.jobs[i].view, gs.wiki)
			}
		}(i, jp)
	}
	wg.Wait()
	l.end = time.Now()
	l.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&l.ms1)
	close(stop)
	scrapeWG.Wait()

	if tr == nil {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		l.heapMB = float64(ms.HeapAlloc) / 1e6
		runtime.KeepAlive(svc)
	}
	return l, errors.Join(shutdown(), stopService(svc, dir))
}

// serveHTTP serves h on a loopback port. It returns the base URL, a
// client limited to nproc connections, and a function that closes the
// client's connections, shuts the server down and waits for it.
func serveHTTP(h http.Handler) (string, *http.Client, func() error, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, nil, err
	}
	srv := &http.Server{Handler: h}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	conns := runtime.NumCPU()
	client := &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns},
	}
	shutdown := func() error {
		client.CloseIdleConnections()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		err := srv.Shutdown(ctx)
		if serr := <-served; !errors.Is(serr, http.ErrServerClosed) {
			err = errors.Join(err, serr)
		}
		return err
	}
	return "http://" + ln.Addr().String(), client, shutdown, nil
}

// doJob submits one job when it is due and polls until it is done.
func doJob(client *http.Client, base string, jp jobPlan, due time.Time, tr *tracer, run string) jobOutcome {
	out := jobOutcome{class: jp.class, due: due}
	root := tr.id()
	body, err := json.Marshal(jp.req)
	if err != nil {
		out.err = err
		return out
	}
	out.sent = time.Now()
	defer func() { tr.record(root, 0, run, "job", out.sent, out.done) }()
	status, err := call(client, http.MethodPost, base+"/v1/jobs", body, &out.view, tr, root, run)
	out.status = status
	out.done = time.Now()
	switch {
	case err != nil:
		out.err = err
		return out
	case status == http.StatusTooManyRequests:
		out.err = fmt.Errorf("rejected: 429")
		return out
	case status != http.StatusOK && status != http.StatusAccepted:
		out.err = fmt.Errorf("submit: HTTP %d", status)
		return out
	}
	for !terminal(out.view.State) {
		time.Sleep(pollEvery)
		status, err := call(client, http.MethodGet, base+"/v1/jobs/"+out.view.ID, nil, &out.view, tr, root, run)
		out.done = time.Now()
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("poll: HTTP %d", status)
		}
		if err != nil {
			out.err = err
			return out
		}
	}
	return out
}

func terminal(s service.JobState) bool {
	return s == service.StateDone || s == service.StateFailed || s == service.StateCancelled
}

// call makes one request, decodes a JSON reply into v and records a
// span named after the endpoint.
func call(client *http.Client, method, url string, body []byte, v any, tr *tracer, parent int64, run string) (int, error) {
	id := tr.id()
	t0 := time.Now()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(v)
	name := "http.POST /v1/jobs"
	if method == http.MethodGet {
		name = "http.GET /v1/jobs/{id}"
	}
	tr.record(id, parent, run, name, t0, time.Now())
	return resp.StatusCode, err
}

// scrape fetches /metrics every scrapeEvery until stop closes, as an
// operator's monitoring would, and returns each scrape's latency in ms.
func scrape(client *http.Client, base string, tr *tracer, stop <-chan struct{}) []float64 {
	var out []float64
	tick := time.NewTicker(scrapeEvery)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return out
		case <-tick.C:
		}
		id := tr.id()
		t0 := time.Now()
		resp, err := client.Get(base + "/metrics")
		if err != nil {
			continue
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		t1 := time.Now()
		tr.record(id, 0, "scrape", "http.GET /metrics", t0, t1)
		out = append(out, millis(t1.Sub(t0)))
	}
}

// executed are the jobs a worker ran (not answered from the cache).
func (l *loadResult) executed() []jobOutcome {
	var out []jobOutcome
	for _, j := range l.jobs {
		if j.err == nil && !j.view.Cached {
			out = append(out, j)
		}
	}
	return out
}

func (l *loadResult) runMillis() []float64 {
	var out []float64
	for _, j := range l.executed() {
		out = append(out, j.view.RunMillis)
	}
	return out
}

func (l *loadResult) latencies() []float64 {
	var out []float64
	for _, j := range l.jobs {
		out = append(out, millis(j.latency()))
	}
	return out
}

// msgRates is each executed job's engine message rate.
func (l *loadResult) msgRates() []float64 {
	var out []float64
	for _, j := range l.executed() {
		if j.view.Result.EngineMillis > 0 {
			out = append(out, float64(j.view.Result.Messages)/(j.view.Result.EngineMillis/1e3))
		}
	}
	return out
}

func (l *loadResult) jobsPerSec() ratio {
	first, last := l.jobs[0].due, l.jobs[0].done
	for _, j := range l.jobs {
		if j.done.After(last) {
			last = j.done
		}
	}
	return ratio{float64(len(l.jobs)), last.Sub(first).Seconds()}
}

// mixLayers derives the per-layer metrics of the traced pass.
func mixLayers(r *report, l *loadResult, plainRunS float64) {
	ex := l.executed()
	var queue, runMs, overhead, httpMs, late []float64
	var supersteps, msgs, engineMs float64
	var cacheHits ratio
	retried := 0
	var ran ratio
	for _, j := range l.jobs {
		late = append(late, millis(j.lateness()))
		if j.err == nil && j.class != "pagerank" && j.class != "wcc" {
			cacheHits.den++
			if j.view.Cached {
				cacheHits.num++
			}
		}
		if j.view.Attempts > 1 {
			retried += j.view.Attempts - 1
		}
	}
	for _, j := range ex {
		v := j.view
		queue = append(queue, v.QueueMillis)
		runMs = append(runMs, v.RunMillis)
		overhead = append(overhead, v.RunMillis-v.Result.EngineMillis)
		httpMs = append(httpMs, millis(j.done.Sub(j.sent))-v.QueueMillis-v.RunMillis)
		supersteps += float64(v.Result.Supersteps)
		msgs += float64(v.Result.Messages)
		engineMs += v.Result.EngineMillis
		ran.den += float64(v.Result.VertexCount) * float64(v.Result.Supersteps)
	}
	var stepMs []float64
	var stepSum time.Duration
	var busy ratio
	var imb []float64
	for _, s := range l.obs.steps {
		stepMs = append(stepMs, millis(s.Duration))
		stepSum += s.Duration
		ran.num += float64(s.Ran)
		for _, b := range s.WorkerBusy {
			busy.num += float64(b)
		}
		if im := s.Imbalance(); im > 0 {
			imb = append(imb, im)
		}
	}
	busy.den = float64(stepSum) // one thread per job
	wall := l.end.Sub(l.start)

	r.layer("core.supersteps", supersteps, "count")
	r.layer("core.msgs", msgs, "count")
	r.note("core.supersteps and core.msgs are sums over %d executed jobs", len(ex))
	r.layer("core.step_p50_ms", median(stepMs), "ms")
	p, v := tail(stepMs)
	r.layer("core.step_tail_ms", v, "ms")
	r.layer("core.step_tail_pct", p, "pct")
	r.note("superstep times are the engine's StepStats.Duration seen by the template observer: p%g of %d (%d beyond)", p, len(stepMs), beyond(len(stepMs), p))
	r.layer("core.loop_overhead_s", (engineMs/1e3-stepSum.Seconds())/float64(len(ex)), "s")
	r.note("core.loop_overhead_s = (engine time - superstep time) / %d executed jobs", len(ex))
	r.layer("core.ran_frac", ran.value(), "ratio")
	r.note("core.ran_frac = %v vertex runs / (N x supersteps)", ran)
	r.layer("core.worker_busy_frac", busy.value(), "ratio")
	r.note("core.worker_busy_frac = %v ns busy / (1 thread x superstep ns)", busy)
	r.layer("core.worker_imbalance", median(imb), "ratio")
	r.layer("core.cpu_cores", float64(l.cpu)/float64(wall), "cores")
	r.note("core.cpu_cores, core.allocs_per_msg and runtime.* cover the whole process over the %.3gs load", wall.Seconds())
	r.layer("core.allocs_per_msg", float64(l.ms1.Mallocs-l.ms0.Mallocs)/msgs, "allocs/msg")
	r.layer("core.alloc_mb", float64(l.ms1.TotalAlloc-l.ms0.TotalAlloc)/1e6/float64(len(ex)), "MB")
	r.layer("runtime.gc_cycles", float64(l.ms1.NumGC-l.ms0.NumGC), "count")
	r.layer("runtime.gc_pause_ms", millis(time.Duration(l.ms1.PauseTotalNs-l.ms0.PauseTotalNs)), "ms")
	r.layer("service.queue_p50_ms", median(queue), "ms")
	r.layer("service.queue_p95_ms", percentile(queue, 95), "ms")
	r.note("service.queue_p95_ms over %d executed jobs; %s", len(queue), tailNote(queue))
	r.layer("service.run_p50_ms", median(runMs), "ms")
	r.layer("service.job_overhead_ms", median(overhead), "ms")
	r.layer("service.http_ms", median(httpMs), "ms")
	r.layer("service.cache_hit_ratio", cacheHits.value(), "ratio")
	r.note("service.cache_hit_ratio = %v cached / cacheable (sssp + bfs) jobs", cacheHits)
	r.layer("service.rejected", float64(countStatus(l.jobs, http.StatusTooManyRequests)), "count")
	r.layer("service.retried", float64(retried), "count")
	r.layer("telemetry.scrape_ms", median(l.scrapes), "ms")
	r.note("telemetry.scrape_ms is the median of %d scrapes", len(l.scrapes))
	r.layer("loadgen.late_p95_ms", percentile(late, 95), "ms")
	r.layer("trace.run_overhead_s", median(runMs)/1e3-plainRunS, "s")
	r.note("trace.run_overhead_s = traced run_s %.6g - untraced run_s %.6g", median(runMs)/1e3, plainRunS)
}

func countStatus(jobs []jobOutcome, status int) int {
	n := 0
	for _, j := range jobs {
		if j.status == status {
			n++
		}
	}
	return n
}

// mixEngines times core.New for each job class on the served graphs with
// the service's engine template and returns the median time and the
// largest engine footprint.
func mixEngines(gs mixGraphs) (float64, float64, error) {
	cfg := serviceOptions(options{}, 0, nil).Engine
	src := graph.VertexID(gs.usa.Base())
	var ts []float64
	var foot uint64
	for rep := 0; rep < setups; rep++ {
		for _, build := range []func() (uint64, error){
			func() (uint64, error) { return newEngine(gs.wiki, cfg, algorithms.PageRankProgram(prRounds)) },
			func() (uint64, error) { return newEngine(gs.usa, cfg, algorithms.SSSPProgram(src)) },
			func() (uint64, error) { return newEngine(gs.wiki, cfg, algorithms.HashminProgram()) },
			func() (uint64, error) {
				return newEngine(gs.wiki, cfg, algorithms.BFSProgram(graph.VertexID(gs.wiki.Base())))
			},
		} {
			t0 := time.Now()
			b, err := build()
			if err != nil {
				return 0, 0, err
			}
			ts = append(ts, seconds(time.Since(t0)))
			foot = max(foot, b)
		}
	}
	return median(ts), float64(foot) / 1e6, nil
}

func newEngine[V, M any](g *graph.Graph, cfg core.Config, p core.Program[V, M]) (uint64, error) {
	e, err := core.New(g, cfg, p)
	if err != nil {
		return 0, fmt.Errorf("core.New: %w", err)
	}
	return e.FootprintBytes(), nil
}

// calibrateMix measures the closed-loop capacity that mixRate is set
// from: 2 x workers clients each submit the planned jobs back to back.
func calibrateMix(o options) error {
	files, err := mixInputs(o)
	if err != nil {
		return err
	}
	gs, err := readMixGraphs(files, nil, 0, "")
	if err != nil {
		return err
	}
	plan, refs := planMix(o.seed, 4*o.seconds, gs)
	svc, dir, err := startService(o, gs, nil, nil, 0, "", 0)
	if err != nil {
		return err
	}
	base, client, shutdown, err := serveHTTP(svc.Handler())
	if err != nil {
		return errors.Join(err, stopService(svc, dir))
	}
	const clients = 4
	var (
		mu   sync.Mutex
		next int
		done int
		bad  int
	)
	deadline := time.Now().Add(o.seconds)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				mu.Lock()
				jp := plan[next%len(plan)]
				next++
				mu.Unlock()
				j := doJob(client, base, jp, time.Now(), nil, "")
				if j.err == nil {
					j.err = refs.check(jp, j.view, gs.wiki)
				}
				mu.Lock()
				done++
				if j.err != nil {
					bad++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	fmt.Printf("closed loop: %d clients, %d jobs (%d failed) in %.3gs = %.4g jobs/s\n", clients, done, bad, elapsed.Seconds(), float64(done)/elapsed.Seconds())
	return errors.Join(shutdown(), stopService(svc, dir))
}
