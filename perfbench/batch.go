package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	deltarepair "repro"
	"repro/internal/core"
	"repro/internal/mas"
	"repro/internal/programs"
	"repro/internal/tpch"
)

// paper_batch runs the paper's §6 evaluation as a batch job through the
// facade: every program prepared once, repaired under all four semantics
// on the frozen dataset, one caller, Parallelism = nproc. The seed orders
// the programs within every sweep.
const (
	batchTPCHScale = 0.01
	batchMASScale  = 0.02
	batchMaxNodes  = 150000
	batchMinPasses = 3
)

// The three sweeps a pass times; ptime is stage followed by end, and
// metric is the end-to-end metric timing it. A pass repeats the cheap
// sweeps so that each sweep gets a similar share of the measured time and
// the short ones enough samples for a steady median.
var sweeps = []struct {
	metric string
	sems   []deltarepair.Semantics
	reps   int
}{
	{"independent_ms", []deltarepair.Semantics{deltarepair.Independent}, 1},
	{"step_ms", []deltarepair.Semantics{deltarepair.Step}, 4},
	{"ptime_ms", []deltarepair.Semantics{deltarepair.Stage, deltarepair.End}, 8},
}

// phaseNames are the Fig 8 phases of core.Breakdown, the reported children
// of a facade span.
var phaseNames = []string{"core.eval", "core.process_prov", "core.solve", "core.traverse", "core.update"}

func phaseDurs(b core.Breakdown) []time.Duration {
	return []time.Duration{b.Eval, b.ProcessProv, b.Solve, b.Traverse, b.Update}
}

type batchProg struct {
	label string
	pp    *deltarepair.Prepared
	db    *deltarepair.Database
}

// semPass accumulates one semantics over all programs in one pass.
type semPass struct {
	wall, unattributed time.Duration
	calls              time.Duration // inside the facade calls
	timing             core.Breakdown
	rounds, clauses    int
	graph, deleted     int
	nodes              int64
	optimal            int
	allocBytes         uint64
	gcCPU              float64 // seconds
}

type batchWorkload struct {
	progs    []batchProg
	prepares []float64 // ms to Prepare all programs, per setup
	opts     deltarepair.Options

	// Output checks, filled outside timed regions.
	first    map[string]map[deltarepair.Semantics]*deltarepair.Result
	firstDB  map[string]map[deltarepair.Semantics]*deltarepair.Database
	sizes    map[string]int // label/semantics -> deleted count of the first pass
	mismatch []string
}

func (w *batchWorkload) setupReps() int { return 5 }

// setup prepares the programs in an order drawn from the seed; the
// datasets are fixed instances, like the paper's (datasetSeed).
func (w *batchWorkload) setup(seed int64) error {
	td := tpch.Generate(tpch.Config{Scale: batchTPCHScale, Seed: datasetSeed})
	md := mas.Generate(mas.Config{Scale: batchMASScale, Seed: datasetSeed})
	w.progs = nil
	var prepare time.Duration
	add := func(label, src string, db *deltarepair.Database) error {
		p, err := deltarepair.ParseProgram(src, db.Schema)
		if err != nil {
			return fmt.Errorf("program %s: %w", label, err)
		}
		t0 := time.Now()
		pp, err := deltarepair.Prepare(p, db.Schema)
		prepare += time.Since(t0)
		if err != nil {
			return fmt.Errorf("program %s: %w", label, err)
		}
		w.progs = append(w.progs, batchProg{label: label, pp: pp, db: db})
		return nil
	}
	// Indices 0..5 are T-1..T-6, 6..25 are MAS 1..20.
	for _, i := range rand.New(rand.NewSource(seed)).Perm(26) {
		var label, src string
		var db *deltarepair.Database
		var err error
		if i < 6 {
			label, db = fmt.Sprintf("T-%d", i+1), td.DB
			src, err = programs.TPCHSource(i+1, td)
		} else {
			label, db = fmt.Sprint(i-5), md.DB
			src, err = programs.MASSource(i-5, md)
		}
		if err != nil {
			return err
		}
		if err := add(label, src, db); err != nil {
			return err
		}
	}
	w.prepares = append(w.prepares, ms(prepare))
	td.DB.Freeze()
	md.DB.Freeze()
	w.opts = deltarepair.Options{
		Parallelism: runtime.NumCPU(),
		Independent: deltarepair.IndependentOptions{MaxNodes: batchMaxNodes},
	}
	// Warm-up: the PTIME and step sweeps build the frozen indexes every
	// semantics probes.
	for _, sem := range []deltarepair.Semantics{deltarepair.Step, deltarepair.Stage, deltarepair.End} {
		for _, p := range w.progs {
			if _, _, err := p.pp.RepairWith(p.db, sem, w.opts); err != nil {
				return fmt.Errorf("warm-up %s %s: %w", p.label, sem, err)
			}
		}
	}
	w.first, w.firstDB, w.sizes, w.mismatch = nil, nil, nil, nil
	return nil
}

// batchRec is one repair call's output, kept for the checks.
type batchRec struct {
	prog string
	sem  deltarepair.Semantics
	res  *deltarepair.Result
	db   *deltarepair.Database
}

// runSem repairs every program under sem once, in program order, and
// accumulates the calls into a semPass. Spans are recorded when tr is set.
func (w *batchWorkload) runSem(sem deltarepair.Semantics, id string, tr *tracer) (*semPass, []batchRec, []float64, error) {
	sp := &semPass{}
	recs := make([]batchRec, 0, len(w.progs))
	lat := make([]float64, 0, len(w.progs))
	var rt0 runtimeCounters
	if tr != nil {
		rt0 = readRuntime()
	}
	t0 := time.Now()
	for _, p := range w.progs {
		c0 := time.Now()
		res, repaired, err := p.pp.RepairWith(p.db, sem, w.opts)
		c1 := time.Now()
		if err != nil {
			return nil, nil, nil, fmt.Errorf("program %s %s: %w", p.label, sem, err)
		}
		sp.calls += c1.Sub(c0)
		lat = append(lat, ms(c1.Sub(c0)))
		if tr != nil {
			sid := id + "/" + p.label + "/" + sem.String()
			tr.span(sid, "facade", "", c0, c1)
			tr.reported(sid, "facade", c0, phaseNames, phaseDurs(res.Timing))
		}
		sp.unattributed += c1.Sub(c0) - res.Timing.Total()
		sp.timing.Eval += res.Timing.Eval
		sp.timing.ProcessProv += res.Timing.ProcessProv
		sp.timing.Solve += res.Timing.Solve
		sp.timing.Traverse += res.Timing.Traverse
		sp.timing.Update += res.Timing.Update
		sp.rounds += res.Rounds
		sp.clauses += res.FormulaClauses
		sp.graph += res.GraphAssignments
		sp.deleted += res.Size()
		sp.nodes += res.SolverNodes
		if res.Optimal {
			sp.optimal++
		}
		recs = append(recs, batchRec{p.label, sem, res, repaired})
	}
	sp.wall = time.Since(t0)
	if tr != nil {
		rt1 := readRuntime()
		sp.allocBytes = rt1.allocBytes - rt0.allocBytes
		sp.gcCPU = rt1.gcCPU - rt0.gcCPU
	}
	return sp, recs, lat, nil
}

// record keeps the first output of every (program, semantics) for the
// checks and notes any later output of a different size.
func (w *batchWorkload) record(recs []batchRec) {
	if w.sizes == nil {
		w.sizes = make(map[string]int)
		w.first = make(map[string]map[deltarepair.Semantics]*deltarepair.Result)
		w.firstDB = make(map[string]map[deltarepair.Semantics]*deltarepair.Database)
	}
	for _, r := range recs {
		key := r.prog + "/" + r.sem.String()
		want, seen := w.sizes[key]
		switch {
		case !seen:
			w.sizes[key] = r.res.Size()
			if w.first[r.prog] == nil {
				w.first[r.prog] = make(map[deltarepair.Semantics]*deltarepair.Result)
				w.firstDB[r.prog] = make(map[deltarepair.Semantics]*deltarepair.Database)
			}
			w.first[r.prog][r.sem] = r.res
			w.firstDB[r.prog][r.sem] = r.db
		case want != r.res.Size() && len(w.mismatch) < 5:
			w.mismatch = append(w.mismatch, fmt.Sprintf("%s: size %d, first pass %d", key, r.res.Size(), want))
		}
	}
}

// measure runs whole passes until d has passed and at least
// batchMinPasses passes are done.
func (w *batchWorkload) measure(d time.Duration, tr *tracer) (*phaseResult, error) {
	var passes []map[deltarepair.Semantics]*semPass
	var sweepWall [3][]float64
	var rates, opLat []float64
	var alloc, gcCPU float64
	var loop time.Duration // in the caller, outside the facade calls
	start := time.Now()
	for len(passes) < batchMinPasses || time.Since(start) < d {
		pass := make(map[deltarepair.Semantics]*semPass)
		var recs []batchRec
		var passWall time.Duration
		passCalls := 0
		for si, sw := range sweeps {
			for rep := 0; rep < sw.reps; rep++ {
				var wall time.Duration
				for _, sem := range sw.sems {
					sp, rs, lat, err := w.runSem(sem, fmt.Sprintf("%d.%d", len(passes), rep), tr)
					if err != nil {
						return nil, err
					}
					pass[sem] = sp
					wall += sp.wall
					alloc += float64(sp.allocBytes)
					gcCPU += sp.gcCPU
					loop += sp.wall - sp.calls
					passCalls += len(rs)
					opLat = append(opLat, lat...)
					recs = append(recs, rs...)
				}
				passWall += wall
				// Per repair call, so that the figure reads like the
				// serving workloads' per-request ones.
				sweepWall[si] = append(sweepWall[si], ms(wall)/float64(len(sw.sems)*len(w.progs)))
			}
		}
		passes = append(passes, pass)
		rates = append(rates, float64(passCalls)/passWall.Seconds())
		w.record(recs) // outside the timed sweeps
	}

	out := &phaseResult{attempted: len(opLat), e2e: map[string]float64{}, layers: map[string]float64{}}
	out.e2e["throughput_ops_s"] = median(rates)
	out.e2e["op_p50_ms"] = percentile(opLat, 50)
	out.e2e["op_p99_ms"] = percentile(opLat, 99)
	for si, sw := range sweeps {
		out.e2e[sw.metric] = median(sweepWall[si])
	}
	if tr == nil {
		return out, nil
	}
	perPass := func(f func(map[deltarepair.Semantics]*semPass) float64) float64 {
		xs := make([]float64, len(passes))
		for i, p := range passes {
			xs[i] = f(p)
		}
		return median(xs)
	}
	// The per-layer figures every workload reports are per repair call
	// (median over passes); the rest are sums over one sweep.
	L := out.layers
	n := float64(len(w.progs))
	calls := float64(len(opLat))
	for _, sem := range deltarepair.AllSemantics {
		sem := sem
		name := sem.String()
		L["core.exec_ms."+name] = perPass(func(p map[deltarepair.Semantics]*semPass) float64 { return ms(p[sem].timing.Total()) / n })
		L["core.deleted."+name] = perPass(func(p map[deltarepair.Semantics]*semPass) float64 { return float64(p[sem].deleted) / n })
		L["entry.unattributed_ms."+name] = perPass(func(p map[deltarepair.Semantics]*semPass) float64 { return ms(p[sem].unattributed) / n })
		L["datalog.eval_ms."+name] = perPass(func(p map[deltarepair.Semantics]*semPass) float64 { return ms(p[sem].timing.Eval) })
		L["engine.update_ms."+name] = perPass(func(p map[deltarepair.Semantics]*semPass) float64 { return ms(p[sem].timing.Update) })
		L["go.alloc_mb."+name] = perPass(func(p map[deltarepair.Semantics]*semPass) float64 { return float64(p[sem].allocBytes) / (1 << 20) })
	}
	ind, step := deltarepair.Independent, deltarepair.Step
	L["datalog.rounds.stage"] = perPass(func(p map[deltarepair.Semantics]*semPass) float64 { return float64(p[deltarepair.Stage].rounds) / n })
	L["datalog.rounds.end"] = perPass(func(p map[deltarepair.Semantics]*semPass) float64 { return float64(p[deltarepair.End].rounds) / n })
	L["sat.optimal_ratio"] = perPass(func(p map[deltarepair.Semantics]*semPass) float64 { return float64(p[ind].optimal) / n })
	L["provenance.build_ms.independent"] = perPass(func(p map[deltarepair.Semantics]*semPass) float64 { return ms(p[ind].timing.ProcessProv) })
	L["provenance.clauses"] = perPass(func(p map[deltarepair.Semantics]*semPass) float64 { return float64(p[ind].clauses) })
	L["provenance.build_ms.step"] = perPass(func(p map[deltarepair.Semantics]*semPass) float64 { return ms(p[step].timing.ProcessProv) })
	L["provenance.graph_assignments"] = perPass(func(p map[deltarepair.Semantics]*semPass) float64 { return float64(p[step].graph) })
	L["sat.solve_ms"] = perPass(func(p map[deltarepair.Semantics]*semPass) float64 { return ms(p[ind].timing.Solve) })
	L["sat.nodes"] = perPass(func(p map[deltarepair.Semantics]*semPass) float64 { return float64(p[ind].nodes) })
	L["core.traverse_ms"] = perPass(func(p map[deltarepair.Semantics]*semPass) float64 { return ms(p[step].timing.Traverse) })
	L["go.alloc_kb_per_op"] = alloc / 1024 / calls
	L["go.gc_cpu_ms_per_op"] = gcCPU * 1000 / calls
	L["client.self_ms"] = ms(loop) / calls

	self, _ := selfByName(tr.snapshot())
	var coreSelf time.Duration
	for _, n := range phaseNames {
		coreSelf += self[n]
	}
	L["self_ms.entry"] = ms(self["facade"]) / calls
	L["self_ms.core"] = ms(coreSelf) / calls
	return out, nil
}

// verify runs the paper_batch output checks: the running-example canary,
// Prop 3.20 containments, stability of every repaired database, and sizes
// identical across passes.
func (w *batchWorkload) verify(layers map[string]float64) ([]string, error) {
	layers["datalog.prepare_ms"] = median(w.prepares)
	var bad []string
	if err := runningExampleCanary(); err != nil {
		bad = append(bad, err.Error())
	}
	bad = append(bad, w.mismatch...)
	for _, p := range w.progs {
		rs := w.first[p.label]
		if len(rs) != 4 {
			return nil, fmt.Errorf("program %s: %d semantics recorded", p.label, len(rs))
		}
		c := core.CheckContainment(rs)
		if !c.StageInEnd || !c.StepInEnd {
			bad = append(bad, fmt.Sprintf("%s: Prop 3.20 violated: stage⊆end=%v step⊆end=%v", p.label, c.StageInEnd, c.StepInEnd))
		}
		if rs[deltarepair.Independent].Optimal && (!c.IndLeStep || !c.IndLeStage) {
			bad = append(bad, fmt.Sprintf("%s: optimal independent larger than step or stage", p.label))
		}
		for sem, db := range w.firstDB[p.label] {
			ok, err := p.pp.IsStable(db)
			if err != nil {
				return nil, fmt.Errorf("program %s %s: stability: %w", p.label, sem, err)
			}
			if !ok {
				bad = append(bad, fmt.Sprintf("%s %s: repaired database not stable", p.label, sem))
			}
		}
	}
	return bad, nil
}

// runningExampleCanary checks the paper's running example: independent
// deletes 3 tuples, step 5, stage 7, end 8.
func runningExampleCanary() error {
	db := programs.RunningExampleDB()
	prog, err := programs.RunningExampleProgram()
	if err != nil {
		return err
	}
	want := map[deltarepair.Semantics]int{
		deltarepair.Independent: 3, deltarepair.Step: 5, deltarepair.Stage: 7, deltarepair.End: 8,
	}
	for sem, n := range want {
		res, _, err := deltarepair.Repair(db, prog, sem)
		if err != nil {
			return fmt.Errorf("running example %s: %w", sem, err)
		}
		if res.Size() != n {
			return fmt.Errorf("running example %s: deleted %d, want %d", sem, res.Size(), n)
		}
	}
	return nil
}

func (w *batchWorkload) stamp() (string, string) { return "none (no WAL)", "." }

func (w *batchWorkload) close() error { return nil }
