// Command perfbench is the repository benchmark. It runs one workload
// through the public entry points — the repro facade for batch repairs,
// server.Open + Service.Handler() on a loopback listener for serving —
// checks the outputs, and prints one JSON result line:
//
//	go build -o perfbench . && ./perfbench --workload serve_read --seed 1 --seconds 10 --trace 0
//
// Workloads: paper_batch, serve_read, serve_churn (see README.md for why
// each exists and which layer metric should move which end-to-end metric).
// Every workload reports the same metrics (declare.go). With --trace 0 the
// result holds the end-to-end metrics; with --trace 1 the run measures the
// workload untraced and then traced, reports the per-layer metrics plus
// the tracing overhead, prints the workload's own layer figures on a
// {"workload_layers": …} line before the result, and writes every span to
// .bench_build/traces/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// phaseResult is one measured phase of a workload.
type phaseResult struct {
	e2e       map[string]float64
	layers    map[string]float64
	attempted int
	failed    int
	wrong     []string
}

// workload is one benchmark workload. setup builds a fresh instance (it is
// run setupReps times and timed each time; the last instance is kept),
// measure runs the timed phase, verify checks the outputs afterwards and
// adds the per-layer figures it measures to layers.
type workload interface {
	setupReps() int
	setup(seed int64) error
	measure(d time.Duration, tr *tracer) (*phaseResult, error)
	verify(layers map[string]float64) ([]string, error)
	stamp() (fsync, dataDir string)
	close() error
}

var workloads = map[string]func() workload{
	"paper_batch": func() workload { return &batchWorkload{} },
	"serve_read":  func() workload { return &readWorkload{} },
	"serve_churn": func() workload { return &churnWorkload{} },
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: paper_batch, serve_read or serve_churn")
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 10, "measured seconds per phase")
	traceFlag := flag.Int("trace", 0, "1: also run traced and report per-layer metrics")
	flag.Parse()
	mk, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload paper_batch|serve_read|serve_churn --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	res, err := run(*name, mk(), *seed, time.Duration(*seconds)*time.Second, *traceFlag == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func run(name string, w workload, seed int64, seconds time.Duration, traced bool) (_ *result, err error) {
	defer func() {
		if cerr := w.close(); err == nil {
			err = cerr
		}
	}()
	cpu0, steal0 := cpuTimes()
	var setups []float64
	for i := 0; i < w.setupReps(); i++ {
		runtime.GC() // the previous instance's garbage must not inflate the peak RSS
		t0 := time.Now()
		if err := w.setup(seed); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	d := seconds
	if traced {
		// The traced run splits its time between an untraced and a traced
		// phase, so it costs what an untraced run costs.
		d /= 2
	}
	res := &result{Metrics: map[string]metric{}}
	var phases []*phaseResult
	measure := func(tr *tracer) (*phaseResult, error) {
		ph, err := w.measure(d, tr)
		if err != nil {
			return nil, fmt.Errorf("measure: %w", err)
		}
		phases = append(phases, ph)
		return ph, nil
	}
	layers := map[string]float64{}
	base, err := measure(nil)
	if err != nil {
		return nil, err
	}
	rss := peakRSSMB()
	if !traced {
		for k, v := range base.e2e {
			res.Metrics[k] = metric{v, metricUnits[k]}
		}
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		res.Metrics["peak_rss_mb"] = metric{rss, "MB"}
	} else {
		tr := newTracer()
		ph, err := measure(tr)
		if err != nil {
			return nil, err
		}
		for k, v := range ph.layers {
			layers[k] = v
		}
		for k, v := range ph.e2e {
			layers["trace.overhead_pct."+k] = (v - base.e2e[k]) / base.e2e[k] * 100
		}
		path := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.jsonl", name, seed))
		if err := writeSpans(path, tr.snapshot()); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}

	bad, err := w.verify(layers)
	if err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	// The per-layer figures of this workload alone are printed on a line
	// of their own: the result carries only the declared ones.
	extra := map[string]metric{}
	declared := map[string]bool{}
	for _, k := range declaredMetrics(traced) {
		declared[k] = true
	}
	for k, v := range layers {
		if declared[k] {
			res.Metrics[k] = metric{v, metricUnits[k]}
		} else {
			extra[k] = metric{v, unitOf(k)}
		}
	}
	for _, ph := range phases {
		res.Attempted += ph.attempted
		res.Failed += ph.failed
		bad = append(bad, ph.wrong...)
	}
	// A percentile that falls on failed ops is +Inf, which JSON cannot
	// carry: it reads as the largest float, missing every limit.
	for k, m := range res.Metrics {
		if math.IsInf(m.Value, 0) || math.IsNaN(m.Value) {
			bad = append(bad, fmt.Sprintf("%s is not finite", k))
			m.Value = math.MaxFloat64
			res.Metrics[k] = m
		}
	}
	res.Correct = len(bad) == 0
	for _, b := range bad {
		fmt.Fprintln(os.Stderr, "check failed:", b)
	}
	if err := checkDeclared(name, traced, res.Metrics); err != nil {
		return nil, err
	}

	// The share of the machine's CPU time the hypervisor gave to other
	// guests during the run: high values mark figures to distrust.
	cpu1, steal1 := cpuTimes()
	stealPct := 0.0
	if cpu1 > cpu0 {
		stealPct = (steal1 - steal0) / (cpu1 - cpu0) * 100
	}
	fsync, dir := w.stamp()
	st, _ := json.Marshal(map[string]any{"stamp": map[string]any{
		"workload":    name,
		"seed":        seed,
		"seconds":     seconds.Seconds(),
		"trace":       traced,
		"nproc":       runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"go":          runtime.Version(),
		"fsync":       fsync,
		"data_dir_fs": fsType(dir),
		"setup_s_all": setups,
		"steal_pct":   stealPct,
	}})
	fmt.Println(string(st))
	if traced {
		line, _ := json.Marshal(map[string]any{"workload_layers": extra})
		fmt.Println(string(line))
	}
	return res, nil
}

// unitOf derives the unit of a workload's own per-layer figure from its
// name.
func unitOf(name string) string {
	switch {
	case strings.Contains(name, "_mb"):
		return "MB"
	case strings.Contains(name, "_kb"):
		return "KB"
	case strings.Contains(name, "_ms"):
		return "ms"
	default:
		return "count"
	}
}

// checkDeclared fails the run when the metrics emitted differ from the
// declared ones (declaredMetrics), so BENCHMARK.json and the code cannot
// drift apart silently.
func checkDeclared(name string, traced bool, got map[string]metric) error {
	var missing []string
	for _, k := range declaredMetrics(traced) {
		if _, ok := got[k]; !ok {
			missing = append(missing, k)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("%s does not report %v", name, missing)
	}
	return nil
}
