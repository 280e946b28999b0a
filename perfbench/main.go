// Command perfbench is the repository's benchmark. It runs one workload
// for a fixed time against the code in this checkout, checks every
// output against the reference implementations in internal/algorithms,
// and prints its metrics: human-readable lines first, then one JSON
// object as the last line of standard output.
//
//	perfbench --workload pagerank-wiki --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// records spans around every call into the system, writes them to
// .bench_build/perfbench/traces/, and reports the per-layer metrics
// derived from them. See README.md for the workloads and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

type options struct {
	workload  string
	seed      int64
	seconds   time.Duration
	trace     bool
	workDir   string
	tracePath string
}

var workloads = map[string]func(options) (*report, error){
	"pagerank-wiki": func(o options) (*report, error) { return runBatch(pagerankWiki(o.seed), o) },
	"sssp-road":     func(o options) (*report, error) { return runBatch(ssspRoad(), o) },
	"ipregeld-mix":  runMix,
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		workload  = fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), " | "))
		seed      = fs.Int64("seed", 1, "seed for every generated input and arrival schedule")
		secs      = fs.Int("seconds", 10, "measured duration in seconds")
		trace     = fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
		calibrate = fs.Bool("calibrate", false, "ipregeld-mix only: measure the closed-loop capacity in jobs/s instead of running the open loop")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	fn, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (have %s)", *workload, strings.Join(workloadNames(), ", "))
	}
	if *secs < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("--seconds must be >= 1 and --trace 0 or 1")
	}
	o := options{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*secs) * time.Second,
		trace:    *trace == 1,
		workDir:  filepath.Join(".bench_build", "perfbench"),
	}
	for _, d := range []string{"inputs", "traces"} {
		if err := os.MkdirAll(filepath.Join(o.workDir, d), 0o755); err != nil {
			return err
		}
	}
	o.tracePath = filepath.Join(o.workDir, "traces", fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
	if *calibrate {
		if o.workload != "ipregeld-mix" {
			return fmt.Errorf("--calibrate applies to ipregeld-mix only")
		}
		return calibrateMix(o)
	}

	r, err := fn(o)
	if err != nil {
		return err
	}
	return r.print(os.Stdout, o)
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects one run's outcome. The end-to-end metrics are printed
// with --trace 0, the per-layer ones with --trace 1; notes carry the
// bases, sample counts and percentiles behind them.
type report struct {
	attempted, failed int
	errs              []string
	e2eNames          []string
	layerNames        []string
	extraNames        []string // printed with the end-to-end metrics, not in the JSON
	metrics           map[string]metric
	notes             []string
}

func (r *report) set(names *[]string, name string, v float64, unit string) {
	if r.metrics == nil {
		r.metrics = make(map[string]metric)
	}
	*names = append(*names, name)
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) e2e(name string, v float64, unit string)   { r.set(&r.e2eNames, name, v, unit) }
func (r *report) layer(name string, v float64, unit string) { r.set(&r.layerNames, name, v, unit) }
func (r *report) extra(name string, v float64, unit string) { r.set(&r.extraNames, name, v, unit) }

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// print writes the human-readable lines and then the JSON result line.
func (r *report) print(out io.Writer, o options) error {
	w := bufio.NewWriter(out)
	fmt.Fprintf(w, "workload %s seed %d seconds %g trace %v\n", o.workload, o.seed, o.seconds.Seconds(), o.trace)
	fmt.Fprintf(w, "env nproc=%d GOMAXPROCS=%d go=%s cpu=%q\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel())
	names := r.e2eNames
	if o.trace {
		names = r.layerNames
		fmt.Fprintf(w, "trace %s\n", o.tracePath)
	}
	shown := names
	if !o.trace {
		shown = append(shown[:len(shown):len(shown)], r.extraNames...)
	}
	for _, n := range shown {
		m := r.metrics[n]
		fmt.Fprintf(w, "%-26s %14.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "%-26s %14s\n", "error_rate", ratio{float64(r.failed), float64(r.attempted)})
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	for _, e := range r.errs {
		fmt.Fprintf(w, "! %s\n", e)
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, map[string]metric{}}
	for _, n := range names {
		res.Metrics[n] = r.metrics[n]
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	w.Write(b)
	w.WriteByte('\n')
	return w.Flush()
}

// cpuModel reads the first "model name" of /proc/cpuinfo ("unknown" where
// there is none).
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
