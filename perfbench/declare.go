package main

// Every workload reports the same metrics, so that each one is measured on
// every workload: with --trace 0 the end-to-end metrics, with --trace 1
// the per-layer metrics. An op is one iteration of a caller's closed loop:
// a facade repair call (paper_batch), a read request (serve_read), or an
// update followed by a read pinned to its version (serve_churn). Every
// name here is declared in BENCHMARK.json with the same unit
// (TestBenchmarkJSONDeclares).

// semMetrics maps the per-semantics end-to-end metrics to the semantics
// each one times; ptime is stage and end together.
var semMetrics = []struct {
	metric string
	sems   []string
}{
	{"independent_ms", []string{"independent"}},
	{"step_ms", []string{"step"}},
	{"ptime_ms", []string{"stage", "end"}},
}

// phaseE2E are the end-to-end metrics a measured phase yields; setup_s and
// peak_rss_mb come from around the phase.
var phaseE2E = []string{"throughput_ops_s", "op_p50_ms", "op_p99_ms", "independent_ms", "step_ms", "ptime_ms"}

var semNames = []string{"independent", "step", "stage", "end"}

// metricUnits is the unit of every declared metric.
var metricUnits = func() map[string]string {
	u := map[string]string{
		"setup_s":          "s",
		"peak_rss_mb":      "MB",
		"throughput_ops_s": "ops/s",
		"op_p50_ms":        "ms",
		"op_p99_ms":        "ms",
		"independent_ms":   "ms",
		"step_ms":          "ms",
		"ptime_ms":         "ms",

		"datalog.prepare_ms":   "ms",
		"datalog.rounds.stage": "count",
		"datalog.rounds.end":   "count",
		"sat.optimal_ratio":    "ratio",
		"go.alloc_kb_per_op":   "KB",
		"go.gc_cpu_ms_per_op":  "ms",
		"client.self_ms":       "ms",
		"self_ms.entry":        "ms",
		"self_ms.core":         "ms",
	}
	for _, s := range semNames {
		u["core.exec_ms."+s] = "ms"
		u["core.deleted."+s] = "count"
		u["entry.unattributed_ms."+s] = "ms"
	}
	for _, m := range phaseE2E {
		u["trace.overhead_pct."+m] = "%"
	}
	return u
}()

// declaredMetrics lists the metrics every workload reports: with traced
// false the end-to-end metrics, with traced true the per-layer metrics.
func declaredMetrics(traced bool) []string {
	if !traced {
		return append([]string{"setup_s", "peak_rss_mb"}, phaseE2E...)
	}
	layers := []string{
		"datalog.prepare_ms", "datalog.rounds.stage", "datalog.rounds.end", "sat.optimal_ratio",
		"go.alloc_kb_per_op", "go.gc_cpu_ms_per_op", "client.self_ms", "self_ms.entry", "self_ms.core",
	}
	for _, p := range []string{"core.exec_ms.", "core.deleted.", "entry.unattributed_ms."} {
		for _, s := range semNames {
			layers = append(layers, p+s)
		}
	}
	for _, m := range phaseE2E {
		layers = append(layers, "trace.overhead_pct."+m)
	}
	return layers
}
