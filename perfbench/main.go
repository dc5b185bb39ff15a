// Command perfbench is the repository benchmark. It drives the solver
// stack through the public functions of its packages on one of three
// seeded workloads, checks every answer, and prints its metrics by name
// with their units and sample counts. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench --workload solve-dense|http-solve|sparse-stream --seed N --seconds S --trace 0|1
//
// With --trace 0 the metrics are the end-to-end ones, measured untraced.
// With --trace 1 the run repeats the workload untraced and traced, then
// replays a seeded sample of its inputs through the layer ladder, and the
// metrics are the per-layer ones plus the tracing overhead. Spans are
// written to --out. Workload mixes, fixed rates and the map from layer
// metrics to end-to-end metrics live in meta.json beside this file.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

//go:embed meta.json
var metaJSON []byte

// meta is the part of meta.json the program reads; the rest documents the
// workloads for readers.
type meta struct {
	HTTP struct {
		Rates struct {
			Low  float64 `json:"low"`
			High float64 `json:"high"`
		} `json:"rates_per_s"`
		Ladder      []float64 `json:"ladder_per_s"`
		P90LimitMS  float64   `json:"p90_limit_ms"`
		BacklogMS   float64   `json:"backlog_slack_ms"`
		SampleEvery int       `json:"check_sample_every"`
	} `json:"http-solve"`
	SetupRepeats int `json:"setup_repeats"`
}

func loadMeta() (*meta, error) {
	var m meta
	if err := json.Unmarshal(metaJSON, &m); err != nil {
		return nil, fmt.Errorf("meta.json: %w", err)
	}
	return &m, nil
}

// line is one report row: a metric under its workload's own name, with
// its unit, sample count and a note (for timings, the tail percentile).
type line struct {
	name  string
	value float64
	unit  string
	n     int
	note  string
}

// result is what one workload run measured.
type result struct {
	attempted, failed, wrong int
	ops                      int // completed solves, requests or vectors
	e2e                      map[string]float64
	lines                    []line
	layers                   map[string]float64
	errs                     []string
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layers: map[string]float64{}}
}

func (r *result) addLine(name string, value float64, unit string, n int, note string) {
	r.lines = append(r.lines, line{name, value, unit, n, note})
}

// tailNote formats a summary's tail percentile, e.g. "p99=8.5 ms".
func tailNote(s Summary, unit string) string {
	q := strings.TrimRight(strings.TrimRight(strconv.FormatFloat(s.TailQ*100, 'f', 1, 64), "0"), ".")
	return fmt.Sprintf("p%s=%.4g %s", q, s.Tail, unit)
}

// bench is one workload.
type bench interface {
	// setup builds the system under test and warms every plan the timed
	// phase uses; it is what setup_s times.
	setup() error
	// prepare computes the correctness gate's references, untimed.
	prepare() error
	// e2e runs the timed phase for dur with tracing off and fills the
	// end-to-end metrics.
	e2e(dur time.Duration) *result
	// traced runs the workload's steady load for dur, recording spans on
	// tr when it is non-nil, and returns its end-to-end numbers.
	traced(dur time.Duration, tr *Tracer) *result
	// check runs the correctness checks kept for after the timed phase.
	check(r *result)
	// ladderInputs returns the seeded sample the layer ladder replays.
	ladderInputs() ladderSample
	close()
}

func newBench(workload string, seed uint64, m *meta) (bench, error) {
	switch workload {
	case "solve-dense":
		return newDenseWorkload(seed), nil
	case "http-solve":
		return newHTTPWorkload(seed, m), nil
	case "sparse-stream":
		return newSparseWorkload(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want solve-dense, http-solve or sparse-stream)", workload)
}

func main() {
	workload := flag.String("workload", "", "solve-dense, http-solve or sparse-stream")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 for the traced run with per-layer metrics")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for span files")
	setupChild := flag.Bool("setup-child", false, "time one set-up and print it (used by the parent run)")
	flag.Parse()

	m, err := loadMeta()
	if err != nil {
		fatal(err)
	}
	b, err := newBench(*workload, *seed, m)
	if err != nil {
		fatal(err)
	}
	if *setupChild {
		t0 := time.Now()
		if err := b.setup(); err != nil {
			fatal(err)
		}
		fmt.Println(time.Since(t0).Seconds())
		b.close()
		return
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("--seconds must be positive"))
	}
	dur := time.Duration(*seconds * float64(time.Second))
	printHost()

	var setupS float64
	if *trace == 0 {
		if setupS, err = setupSamples(*workload, *seed, m.SetupRepeats); err != nil {
			fatal(err)
		}
	}
	if err := b.setup(); err != nil {
		fatal(err)
	}
	defer b.close()
	if err := b.prepare(); err != nil {
		fatal(err)
	}

	var res *result
	metrics := map[string]metricOut{}
	if *trace == 0 {
		res = measureE2E(b, dur)
		res.e2e["setup_s"] = setupS
		res.addLine("setup_s", setupS, "s", m.SetupRepeats, "median of cold set-ups in child processes")
		for _, e := range endToEnd {
			metrics[e.name] = metricOut{res.e2e[e.name], e.unit}
		}
	} else {
		res = measureLayers(b, dur, *out, *workload, *seed)
		for _, l := range perLayer {
			metrics[l.name] = metricOut{res.layers[l.name], l.unit}
		}
	}
	res.addLine("fail_ratio", float64(res.failed)/float64(max(res.attempted, 1)), "ratio", res.attempted,
		fmt.Sprintf("%d failed, %d wrong", res.failed, res.wrong))
	printReport(res)
	correct := res.wrong == 0 && res.failed == 0
	emit(correct, res.attempted, res.failed, metrics)
	if !correct {
		os.Exit(1)
	}
}

// measureE2E runs the untraced timed phase between heap and allocation
// snapshots, then the post-phase correctness checks.
func measureE2E(b bench, dur time.Duration) *result {
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	res := b.e2e(dur)
	runtime.ReadMemStats(&ms1)
	runtime.GC()
	heap := liveHeapMB()
	allocs := float64(ms1.Mallocs-ms0.Mallocs) / float64(max(res.ops, 1))
	res.e2e["heap_live_mb"] = heap
	res.addLine("heap_live_mb", heap, "MB", 1, "live heap after a forced GC at the end of the timed phase")
	res.e2e["allocs_per_op"] = allocs
	res.addLine("allocs_per_op", allocs, "count", res.ops, "heap allocations per completed unit, whole process")
	b.check(res)
	return res
}

func liveHeapMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// setupSamples times repeats cold set-ups, each in a fresh child process
// (the plan caches are process-wide, so only a new process sets up cold),
// and returns their median.
func setupSamples(workload string, seed uint64, repeats int) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var xs []float64
	for i := 0; i < repeats; i++ {
		cmd := exec.Command(self, "--setup-child", "--workload", workload, "--seed", strconv.FormatUint(seed, 10))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return 0, fmt.Errorf("set-up child: %w", err)
		}
		fields := strings.Fields(string(out))
		if len(fields) == 0 {
			return 0, fmt.Errorf("set-up child printed nothing")
		}
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			return 0, fmt.Errorf("set-up child: %w", err)
		}
		xs = append(xs, v)
	}
	return median(xs), nil
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricDef struct{ name, unit string }

// endToEnd are the gated metrics printed with --trace 0, in the order of
// BENCHMARK.json.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
	{"sim_steps", "steps"},
	{"heap_live_mb", "MB"},
}

func emit(correct bool, attempted, failed int, metrics map[string]metricOut) {
	b, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{correct, attempted, failed, metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

func printHost() {
	fmt.Printf("# host: nproc=%d GOMAXPROCS=%d %s %s/%s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0),
		runtime.Version(), runtime.GOOS, runtime.GOARCH)
}

func printReport(r *result) {
	for _, l := range r.lines {
		n := ""
		if l.n >= 0 {
			n = fmt.Sprintf("n=%d", l.n)
		}
		fmt.Printf("%-34s %14.6g %-6s %-10s %s\n", l.name, l.value, l.unit, n, l.note)
	}
	for _, e := range r.errs {
		fmt.Println("FAIL:", e)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}
