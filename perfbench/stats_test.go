package main

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"ipregel/internal/gen"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so sorting matters
	}
	return xs
}

func TestMedianAndPercentile(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	xs := seq(100)
	for p, want := range map[float64]float64{50: 50.5, 95: 95.05, 100: 100, 0: 1} {
		if got := percentile(xs, p); math.Abs(got-want) > 1e-9 {
			t.Errorf("p%v of 1..100 = %v, want %v", p, got, want)
		}
	}
	if xs[0] != 100 {
		t.Error("percentile sorted its input in place")
	}
}

// The tail is the highest percentile with at least ten samples beyond
// it: 200 samples support p95 (10 beyond) but not p99 (2 beyond), 100
// drop to p90, and under 20 no percentile qualifies and the maximum is
// reported.
func TestTailPicksHighestPercentileWithTenBeyond(t *testing.T) {
	for n, want := range map[int]float64{10000: 99.9, 1000: 99, 200: 95, 100: 90, 40: 75, 20: 50, 19: 100, 1: 100} {
		if p, _ := tail(seq(n)); p != want {
			t.Errorf("n=%d: tail at p%v, want p%v", n, p, want)
		}
	}
	for n := 1; n <= 12000; n++ {
		xs := seq(n)
		p, v := tail(xs)
		if p == 100 {
			if beyond(n, 50) >= minBeyond || v != float64(n) {
				t.Fatalf("n=%d: fell back to the maximum %v although p50 has %d beyond", n, v, beyond(n, 50))
			}
			continue
		}
		if beyond(n, p) < minBeyond {
			t.Fatalf("n=%d: p%v has only %d samples beyond", n, p, beyond(n, p))
		}
		for _, q := range tailLadder {
			if q > p && beyond(n, q) >= minBeyond {
				t.Fatalf("n=%d: chose p%v but p%v has %d beyond", n, p, q, beyond(n, q))
			}
		}
		if v != percentile(xs, p) {
			t.Fatalf("n=%d: tail value %v, want the p%v value %v", n, v, p, percentile(xs, p))
		}
	}
}

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	parent := span{ID: 1, Start: ms(0), End: ms(100)}
	for _, tc := range []struct {
		name     string
		children []span
		want     time.Duration
	}{
		{"no children", nil, ms(100)},
		{"disjoint", []span{{Start: ms(10), End: ms(20)}, {Start: ms(50), End: ms(80)}}, ms(60)},
		{"overlapping children count once", []span{{Start: ms(10), End: ms(30)}, {Start: ms(20), End: ms(50)}}, ms(60)},
		{"nested child counts once", []span{{Start: ms(10), End: ms(60)}, {Start: ms(20), End: ms(30)}}, ms(50)},
		{"clipped to the parent", []span{{Start: ms(-10), End: ms(10)}, {Start: ms(90), End: ms(120)}}, ms(80)},
		{"outside the parent", []span{{Start: ms(100), End: ms(130)}}, ms(100)},
		{"covers the parent", []span{{Start: ms(0), End: ms(100)}}, 0},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: self time %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestTracerRecordsParentsAndNilIsOff(t *testing.T) {
	var off *tracer
	if id := off.id(); id != 0 {
		t.Errorf("nil tracer id = %d", id)
	}
	off.record(1, 0, "q0", "x", time.Now(), time.Now()) // must not panic

	tr := newTracer()
	root, child := tr.id(), tr.id()
	t0 := tr.origin
	tr.record(child, root, "q0", "superstep", t0.Add(ms(10)), t0.Add(ms(30)))
	run := tr.record(root, 0, "q0", "Engine.RunContext", t0, t0.Add(ms(40)))
	if run.ID != root || run.dur() != ms(40) {
		t.Fatalf("recorded %+v", run)
	}
	kids := tr.children(root)
	if len(kids) != 1 || kids[0].ID != child {
		t.Fatalf("children = %+v", kids)
	}
	if got := selfTime(run, kids); got != ms(20) {
		t.Errorf("self time from recorded spans = %v, want 20ms", got)
	}
}

func TestRatioCarriesItsBase(t *testing.T) {
	r := ratio{num: 3, den: 4}
	if r.value() != 0.75 {
		t.Errorf("value = %v", r.value())
	}
	if s := r.String(); !strings.Contains(s, "0.75") || !strings.Contains(s, "3 / 4") {
		t.Errorf("String() = %q, want the value and its base 3 / 4", s)
	}
	empty := ratio{}
	if empty.value() != 0 || !strings.Contains(empty.String(), "0 / 0") {
		t.Errorf("empty ratio = %v, %q", empty.value(), empty.String())
	}
}

// In the open loop a job's latency runs from when it was due, so a
// generator that falls behind charges its delay to the job, and the
// delay itself is reported as lateness.
func TestOpenLoopLatencyRunsFromDueTime(t *testing.T) {
	due := time.Now()
	j := jobOutcome{due: due, sent: due.Add(ms(50)), done: due.Add(ms(80))}
	if j.latency() != ms(80) {
		t.Errorf("latency = %v, want 80ms (due to done), not 30ms (sent to done)", j.latency())
	}
	if j.lateness() != ms(50) {
		t.Errorf("lateness = %v, want 50ms", j.lateness())
	}
}

func TestPlanMixIsSeededAndBalanced(t *testing.T) {
	gs := mixGraphs{
		wiki: gen.Wikipedia(gen.PresetParams{Divisor: 8192, Seed: 5}),
		usa:  gen.USARoad(gen.PresetParams{Divisor: 8192}),
	}
	span := 20 * time.Second
	a, _ := planMix(7, span, gs)
	b, _ := planMix(7, span, gs)
	c, _ := planMix(8, span, gs)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed gave two plans")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("two seeds gave the same plan")
	}
	if len(a) < mixMinJobs {
		t.Errorf("%d jobs, want at least %d", len(a), mixMinJobs)
	}
	count := map[string]int{}
	sources := map[uint64]bool{}
	for i, jp := range a {
		count[jp.class]++
		if jp.due < 0 || jp.due > span || (i > 0 && jp.due < a[i-1].due) {
			t.Fatalf("job %d due at %v: not sorted within [0, %v]", i, jp.due, span)
		}
		if jp.class == "sssp" {
			if sources[*jp.req.Params.Source] {
				t.Errorf("sssp source %d repeats, so a job would hit the cache", *jp.req.Params.Source)
			}
			sources[*jp.req.Params.Source] = true
		}
	}
	for _, c := range mixClasses {
		if count[c] != len(a)/len(mixClasses) {
			t.Errorf("class %s has %d of %d jobs", c, count[c], len(a))
		}
	}
}
