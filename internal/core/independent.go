package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/datalog"
	"repro/internal/engine"
	"repro/internal/provenance"
	"repro/internal/sat"
)

// IndependentOptions configures Algorithm 1.
type IndependentOptions struct {
	// MaxNodes is the Min-Ones-SAT node budget (0 = solver default). When
	// the budget is exhausted the best satisfying assignment found is used:
	// it still yields a stabilizing set, just without a minimality proof —
	// mirroring the paper's remark that any satisfying assignment
	// stabilizes the database.
	MaxNodes int64
	// MaxClauses caps the number of distinct CNF clauses the provenance
	// sweep hands the solver (the count Result.FormulaClauses reports); 0
	// means DefaultMaxClauses. Exceeding the cap is an error (the
	// positivized join blew up; rescale the workload).
	MaxClauses int
	// DisablePreferDerivable turns off the tie-breaking preference for
	// end-derivable tuples. With the preference on (default), when several
	// minimum repairs exist the solver steers toward tuples that other
	// semantics can also delete, maximizing Ind ⊆ Step/Stage containment
	// (the configuration the paper's tables reflect).
	DisablePreferDerivable bool
	// Weight, when non-nil, turns the objective from minimum cardinality
	// into minimum total weight: deleting tuple t costs Weight(t) (values
	// < 1 count as 1). This generalizes the paper's minimum-cardinality
	// metric to tuples of unequal importance — e.g. penalize deleting
	// master-data rows over link rows.
	Weight func(*engine.Tuple) int64
}

// DefaultMaxClauses bounds the provenance CNF of Algorithm 1.
const DefaultMaxClauses = 5_000_000

// RunIndependent computes Ind(P, D) with Algorithm 1: store the DNF
// provenance of every *possible* delta tuple (delta body atoms range over
// all base tuples, not just derivable ones), negate into CNF over "tuple
// deleted" variables, and find a satisfying assignment setting the minimum
// number of variables true. The deleted-variable set is the repair.
//
// The returned database is the repaired instance; Result.Optimal reports
// whether the solver proved minimality.
func RunIndependent(db *engine.Database, p *datalog.Program, opts IndependentOptions) (*Result, *engine.Database, error) {
	prep, err := datalog.Prepare(p, db.Schema)
	if err != nil {
		return nil, nil, err
	}
	return runIndependent(nil, db, prep, opts)
}

// indCNF is the compiled Algorithm 1 instance — the positivized provenance
// formula negated into CNF over deletion variables, plus the solver
// steering derived from it. It is shared between the single-repair solver
// (runIndependent) and the repair-space enumerator (enumerateRepairs): both
// must see the byte-identical formula so their first solutions agree.
type indCNF struct {
	cnf        *sat.Formula
	clauses    int              // distinct clauses handed to the solver, before any blocking clause
	ids        []engine.TupleID // SAT variable v names tuple ids[v-1]
	varOf      map[engine.TupleID]int
	preDeleted map[engine.TupleID]bool
	prefer     []int
	weights    []int64
	evalDur    time.Duration
	ppDur      time.Duration
}

// buildIndependentCNF runs phases 1–2 of Algorithm 1 (Eval + ProcessProv)
// and assembles the solver inputs. Eval covers the provenance sweep, which
// negates each assignment into the CNF as it is emitted; ProcessProv covers
// the forced pre-deletions and the solver's tie preference.
func buildIndependentCNF(ctx context.Context, db *engine.Database, prep *datalog.Prepared, opts IndependentOptions) (*indCNF, error) {
	maxClauses := opts.MaxClauses
	if maxClauses <= 0 {
		maxClauses = DefaultMaxClauses
	}
	evalStart := time.Now()
	ic := &indCNF{cnf: sat.NewFormula(0), varOf: make(map[engine.TupleID]int)}
	if err := ic.addProvenance(ctx, db, prep, maxClauses); err != nil {
		return nil, err
	}
	ic.evalDur = time.Since(evalStart)

	ppStart := time.Now()
	// Pre-existing deletions are facts, not choices: force their
	// variables true so the stability clauses respect them.
	ic.preDeleted = make(map[engine.TupleID]bool)
	var unitErr error
	for _, rs := range db.Schema.Relations {
		db.Delta(rs.Name).Scan(func(t *engine.Tuple) bool {
			ic.preDeleted[t.TID] = true
			if v, ok := ic.varOf[t.TID]; ok {
				unitErr = ic.cnf.AddClause(v)
			}
			return unitErr == nil
		})
		if unitErr != nil {
			return nil, unitErr
		}
	}
	ic.clauses = ic.cnf.NumClauses()
	if ic.clauses > maxClauses {
		return nil, errTooManyClauses(maxClauses)
	}

	// Tie preference: try end-derivable tuples first (deepest layer first,
	// derivation order within a layer), steering equal-cost optima toward
	// sets other semantics contain. The layer of an end-derivable tuple is
	// the derivation round it first appears in, so the uncaptured run's
	// round boundaries are all the preference needs. derive does not list
	// tuples that were deltas before the run; their variables are forced
	// true by the unit clauses above, so their rank is never consulted.
	if !opts.DisablePreferDerivable {
		var ends []int
		if derived, _, err := derive(db.Fork(), prep, deriveConfig{ctx: ctx, roundEnds: &ends}); err == nil {
			for r := len(ends) - 1; r >= 0; r-- {
				lo := 0
				if r > 0 {
					lo = ends[r-1]
				}
				for _, t := range derived[lo:ends[r]] {
					if v, ok := ic.varOf[t.TID]; ok {
						ic.prefer = append(ic.prefer, v)
					}
				}
			}
		}
	}
	ic.ppDur = time.Since(ppStart)

	// Optional weighted objective: minimum total weight instead of
	// minimum cardinality.
	if opts.Weight != nil {
		ic.weights = make([]int64, len(ic.ids)+1)
		for i, id := range ic.ids {
			t := db.LookupID(id)
			w := int64(1)
			if t != nil {
				if tw := opts.Weight(t); tw > 1 {
					w = tw
				}
			}
			ic.weights[i+1] = w
		}
	}
	return ic, nil
}

// addProvenance is the provenance sweep of all possible delta tuples
// (line 1 of Algorithm 1), negated into CNF over deletion variables (lines
// 2–4) as each assignment is emitted (see provenance.NegatedClause). Delta
// atoms range over every *possible* deletion: all live base tuples plus any
// tuples already deleted before this run (the §3.6 "user deletes a specific
// set of tuples" initialization). SAT variables map 1:1 to interned tuple
// IDs, numbered on first sight, and the store keeps one copy of each
// distinct clause.
func (ic *indCNF) addProvenance(ctx context.Context, db *engine.Database, prep *datalog.Prepared, maxClauses int) error {
	varFor := func(id engine.TupleID) int {
		v, ok := ic.varOf[id]
		if !ok {
			v = ic.cnf.AddVar()
			ic.varOf[id] = v
			ic.ids = append(ic.ids, id)
		}
		return v
	}
	var lits []int
	var addErr error
	ec := prep.AcquireContext()
	defer prep.ReleaseContext(ec)
	for _, pr := range prep.Rules {
		if err := ctxErr(ctx); err != nil {
			return err
		}
		emitted := 0
		err := pr.EvalFromBase(db, true, ec, func(asn *datalog.Assignment) bool {
			lits = provenance.NegatedClause(lits[:0], asn, varFor)
			if addErr = ic.cnf.AddClause(lits...); addErr != nil {
				return false
			}
			if ic.cnf.NumClauses() > maxClauses {
				addErr = errTooManyClauses(maxClauses)
				return false
			}
			emitted++
			return emitted%evalCheckEvery != 0 || ctxErr(ctx) == nil
		})
		if err != nil {
			return err
		}
		if addErr != nil {
			return addErr
		}
	}
	return ctxErr(ctx)
}

func errTooManyClauses(maxClauses int) error {
	return fmt.Errorf("core: provenance formula exceeded %d clauses", maxClauses)
}

// satOptions assembles the solver options for one Min-Ones search over the
// compiled CNF.
func (ic *indCNF) satOptions(ctx context.Context, opts IndependentOptions) sat.Options {
	var cancel func() bool
	if ctx != nil {
		cancel = func() bool { return ctx.Err() != nil }
	}
	return sat.Options{MaxNodes: opts.MaxNodes, Prefer: ic.prefer, Weights: ic.weights, Cancel: cancel}
}

// materialize turns a satisfying assignment into the deleted-tuple set and
// the repaired fork, verifying stabilization (correctness of Algorithm 1):
// fail loudly rather than return a bad repair.
func (ic *indCNF) materialize(ctx context.Context, db *engine.Database, prep *datalog.Prepared, assignment []bool) ([]*engine.Tuple, *engine.Database, error) {
	work := db.Fork()
	var deleted []*engine.Tuple
	for i, id := range ic.ids {
		if assignment[i+1] && !ic.preDeleted[id] {
			t := db.LookupID(id)
			if t == nil || !work.DeleteTupleToDelta(t) {
				return nil, nil, fmt.Errorf("core: solver selected unknown tuple t%d", id)
			}
			deleted = append(deleted, t)
		}
	}
	stable, err := CheckStableP(ctx, work, prep, nil)
	if err != nil {
		return nil, nil, err
	}
	if !stable {
		return nil, nil, fmt.Errorf("core: independent repair failed to stabilize (internal error)")
	}
	return deleted, work, nil
}

func runIndependent(ctx context.Context, db *engine.Database, prep *datalog.Prepared, opts IndependentOptions) (*Result, *engine.Database, error) {
	ic, err := buildIndependentCNF(ctx, db, prep, opts)
	if err != nil {
		return nil, nil, err
	}

	// Phase 3 (Solve): Min-Ones-SAT (line 5).
	solveStart := time.Now()
	solved := sat.MinOnes(ic.cnf, ic.satOptions(ctx, opts))
	solveDur := time.Since(solveStart)
	if err := ctxErr(ctx); err != nil {
		return nil, nil, err
	}
	if !solved.Satisfiable {
		// Cannot happen: every clause has a positive literal (the self
		// atom), so the all-true assignment satisfies the CNF.
		return nil, nil, fmt.Errorf("core: provenance CNF unexpectedly unsatisfiable")
	}

	// Output (line 6): tuples whose deletion variable is true.
	updStart := time.Now()
	deleted, work, err := ic.materialize(ctx, db, prep, solved.Assignment)
	if err != nil {
		return nil, nil, err
	}
	updDur := time.Since(updStart)

	res := newResult(SemIndependent, deleted)
	res.Optimal = solved.Optimal
	res.SolverNodes = solved.Nodes
	res.FormulaClauses = ic.clauses
	res.RepairCost = solved.WeightedCost
	res.Timing = Breakdown{Eval: ic.evalDur, ProcessProv: ic.ppDur, Solve: solveDur, Update: updDur}
	return res, work, nil
}
