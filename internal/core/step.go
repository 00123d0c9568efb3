package core

import (
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"repro/internal/datalog"
	"repro/internal/engine"
)

// RunStepGreedy computes a step-semantics stabilizing set with Algorithm 2:
// build the provenance graph of the end-semantics run, compute each tuple's
// benefit (assignments it participates in minus assignments its delta
// participates in), then traverse the graph layer by layer greedily adding
// the highest-benefit tuple and pruning delta tuples that can no longer be
// derived.
//
// Finding Step(P, D) — the minimum over all step executions — is NP-hard
// (Prop. 4.2); the greedy output is a stabilizing set realizable by a step
// execution, matching the paper's heuristic. The returned database is the
// repaired instance.
func RunStepGreedy(db *engine.Database, p *datalog.Program) (*Result, *engine.Database, error) {
	return RunStepGreedyWithOptions(db, p, StepGreedyOptions{})
}

// StepGreedyOptions configures Algorithm 2.
type StepGreedyOptions struct {
	// IgnoreBenefits disables the benefit-ordered selection: tuples are
	// picked in derivation order within each layer instead. Exists for the
	// benefit-heuristic ablation; the output is still a valid stabilizing
	// set, typically larger.
	IgnoreBenefits bool
}

// RunStepGreedyWithOptions is RunStepGreedy with explicit options.
func RunStepGreedyWithOptions(db *engine.Database, p *datalog.Program, opts StepGreedyOptions) (*Result, *engine.Database, error) {
	prep, err := datalog.Prepare(p, db.Schema)
	if err != nil {
		return nil, nil, err
	}
	return runStepGreedy(nil, db, prep, opts)
}

func runStepGreedy(ctx context.Context, db *engine.Database, prep *datalog.Prepared, opts StepGreedyOptions) (*Result, *engine.Database, error) {
	// Phase 1 (Eval): end run with provenance capture.
	endRes, _, graph, err := runEndCaptured(ctx, db, prep, true)
	if err != nil {
		return nil, nil, err
	}
	if err := ctxErr(ctx); err != nil {
		return nil, nil, err
	}

	// Phase 2 (ProcessProv): occurrence lists, benefits and the per-layer
	// selection order, all over the graph's dense node numbers; no maps and
	// no content keys exist on this path.
	ppStart := time.Now()
	nodes, nc := graph.NumNodes(), graph.NumClauses()
	alive := make([]int32, nodes) // head node -> clauses deriving it that are not void
	posOcc := newOccurrences(nodes)
	negOcc := newOccurrences(nodes)
	for c := range nc {
		h := graph.ClauseHead(c)
		alive[h]++
		pos, neg := graph.Clause(c)
		for _, v := range pos {
			if v != h {
				posOcc.count(v)
			}
		}
		for _, v := range neg {
			negOcc.count(v)
		}
	}
	posOcc.alloc()
	negOcc.alloc()
	for c := range nc {
		h := graph.ClauseHead(c)
		pos, neg := graph.Clause(c)
		for _, v := range pos {
			if v != h {
				posOcc.add(v, int32(c))
			}
		}
		for _, v := range neg {
			negOcc.add(v, int32(c))
		}
	}
	benefits := graph.Benefits()

	// Visit order: layer by layer; within a layer by benefit, descending
	// (unless ablated), then derivation order — the sort is stable and the
	// heads start in derivation order.
	byLayer := slices.Clone(graph.Heads())
	slices.SortStableFunc(byLayer, func(a, b int32) int {
		if c := cmp.Compare(graph.Layer(a), graph.Layer(b)); c != 0 || opts.IgnoreBenefits {
			return c
		}
		return cmp.Compare(benefits[b], benefits[a])
	})
	ppDur := time.Since(ppStart)
	if err := ctxErr(ctx); err != nil {
		return nil, nil, err
	}

	// Phase 3 (Traverse): greedy selection with cascading pruning.
	trStart := time.Now()
	inS := make([]bool, nodes)
	removed := make([]bool, nodes)
	void := make([]bool, nc)
	var order []int32

	var voidClause func(c int32)
	var removeHead func(h int32)
	voidClause = func(c int32) {
		if void[c] {
			return
		}
		void[c] = true
		h := graph.ClauseHead(int(c))
		alive[h]--
		if alive[h] == 0 && !inS[h] && !removed[h] {
			removeHead(h)
		}
	}
	removeHead = func(h int32) {
		removed[h] = true
		// Clauses requiring ∆(h) as a delta dependency are now void
		// (h was neither deleted nor remains derivable).
		for _, c := range negOcc.of(h) {
			voidClause(c)
		}
	}
	addToS := func(t int32) {
		inS[t] = true
		order = append(order, t)
		// Deleting t voids every assignment using t positively (other than
		// deriving ∆(t) itself).
		for _, c := range posOcc.of(t) {
			voidClause(c)
		}
	}

	for _, h := range byLayer {
		if !inS[h] && !removed[h] {
			addToS(h)
		}
	}
	trDur := time.Since(trStart)

	// Materialize the result and the repaired database. Tuples resolve by
	// ID against the input database; the fork shares tuple pointers.
	updStart := time.Now()
	work := db.Fork()
	deleted := make([]*engine.Tuple, 0, len(order))
	for _, v := range order {
		id := graph.TupleID(v)
		t := db.LookupID(id)
		if t == nil || !work.DeleteTupleToDelta(t) {
			return nil, nil, fmt.Errorf("core: step semantics selected unknown tuple t%d", id)
		}
		deleted = append(deleted, t)
	}
	updDur := time.Since(updStart)

	res := newResult(SemStep, deleted)
	res.Rounds = graph.NumLayers()
	res.GraphAssignments = nc
	res.Timing = Breakdown{
		Eval:        endRes.Timing.Eval,
		ProcessProv: ppDur,
		Traverse:    trDur,
		Update:      updDur,
	}
	return res, work, nil
}

// occurrences lists, per graph node, the clauses the node occurs in, in
// clause order: node v's clauses are list[start[v]:start[v+1]]. Build it in
// two passes over the same occurrences: count each, alloc, then add each.
type occurrences struct {
	start, list, fill []int32
}

func newOccurrences(nodes int) *occurrences {
	return &occurrences{start: make([]int32, nodes+1)}
}

func (o *occurrences) count(v int32) { o.start[v+1]++ }

func (o *occurrences) alloc() {
	for v := 1; v < len(o.start); v++ {
		o.start[v] += o.start[v-1]
	}
	o.list = make([]int32, o.start[len(o.start)-1])
	o.fill = slices.Clone(o.start)
}

func (o *occurrences) add(v, c int32) {
	o.list[o.fill[v]] = c
	o.fill[v]++
}

func (o *occurrences) of(v int32) []int32 { return o.list[o.start[v]:o.start[v+1]] }

// StepExhaustiveOptions bounds the exhaustive search.
type StepExhaustiveOptions struct {
	// MaxStates caps the number of distinct deletion states explored;
	// 0 means DefaultMaxStepStates. Exceeding the cap returns an error.
	MaxStates int
	// Ctx, when non-nil, cancels the search: it is checked once per
	// explored state.
	Ctx context.Context
}

// DefaultMaxStepStates is the exhaustive search's default state budget.
const DefaultMaxStepStates = 250_000

// stateSig condenses a sorted deletion set into a 64-bit signature for
// visited-state dedup, mixing each tuple ID through an FNV-1a/avalanche
// round. Compared with the former binary-string key this removes the
// per-candidate string allocation and shrinks the visited set by ~an order
// of magnitude. The signature is a hash, not an exact key: two distinct
// states collide with probability ~n²/2⁶⁴ — about 10⁻⁹ at the default
// 250 000-state budget — which is negligible for the small validation
// instances the exhaustive search exists for.
func stateSig(tuples []*engine.Tuple) uint64 {
	h := uint64(14695981039346656037) // FNV-1a offset basis
	for _, t := range tuples {
		h ^= uint64(t.TID)
		h *= 1099511628211 // FNV-1a prime
	}
	// Final avalanche (splitmix64 tail) so near-identical sets spread.
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// RunStepExhaustive computes the true Step(P, D): the minimum-size deletion
// set over all step executions (Def. 3.5), by breadth-first search over
// deletion states. Exponential — only usable on small databases; it exists
// to validate the greedy Algorithm 2 and for the paper's small examples.
func RunStepExhaustive(db *engine.Database, p *datalog.Program, opts StepExhaustiveOptions) (*Result, *engine.Database, error) {
	maxStates := opts.MaxStates
	if maxStates <= 0 {
		maxStates = DefaultMaxStepStates
	}
	prep, err := datalog.Prepare(p, db.Schema)
	if err != nil {
		return nil, nil, err
	}
	ctx := prep.AcquireContext()
	defer prep.ReleaseContext(ctx)

	type state struct {
		tuples []*engine.Tuple // deletion set, sorted by TupleID
	}

	start := time.Now()
	// Freeze the input once; each explored state then forks the shared
	// frozen base and replays its deletion set, costing O(deletions so
	// far) instead of the former O(database) deep clone per state — the
	// per-state indexes are the snapshot's warm ones, built once.
	snap := db.Freeze()
	visited := map[uint64]bool{stateSig(nil): true}
	frontier := []state{{}}

	for len(frontier) > 0 {
		var next []state
		for _, st := range frontier {
			if err := ctxErr(opts.Ctx); err != nil {
				return nil, nil, err
			}
			// Rebuild the database at this state. Tuple pointers are shared
			// between db and its forks, so the set applies to any fork.
			work := snap.Fork()
			for _, t := range st.tuples {
				work.DeleteTupleToDelta(t)
			}
			// Enumerate all current assignments; collect candidate heads.
			headSet := make(map[engine.TupleID]bool)
			var heads []*engine.Tuple
			for _, pr := range prep.Rules {
				err := pr.EvalOperational(work, ctx, func(a *datalog.Assignment) bool {
					h := a.Head()
					if !headSet[h.TID] {
						headSet[h.TID] = true
						heads = append(heads, h)
					}
					return true
				})
				if err != nil {
					return nil, nil, err
				}
			}
			if len(heads) == 0 {
				// Stable: BFS guarantees minimal |S| among step executions.
				res := newResult(SemStep, append([]*engine.Tuple(nil), st.tuples...))
				res.Optimal = true
				res.Rounds = len(st.tuples)
				res.Timing = Breakdown{Eval: time.Since(start)}
				return res, work, nil
			}
			for _, h := range heads {
				tuples := make([]*engine.Tuple, 0, len(st.tuples)+1)
				tuples = append(tuples, st.tuples...)
				tuples = append(tuples, h)
				slices.SortFunc(tuples, func(a, b *engine.Tuple) int {
					return cmp.Compare(a.TID, b.TID)
				})
				cand := state{tuples: tuples}
				sk := stateSig(cand.tuples)
				if visited[sk] {
					continue
				}
				if len(visited) >= maxStates {
					return nil, nil, fmt.Errorf("core: exhaustive step search exceeded %d states", maxStates)
				}
				visited[sk] = true
				next = append(next, cand)
			}
		}
		frontier = next
	}
	return nil, nil, fmt.Errorf("core: exhaustive step search exhausted without finding a stable state")
}

// RunStepRandom simulates one nondeterministic step execution (Def. 3.5):
// repeatedly pick a uniformly random satisfying assignment, delete its head,
// update the database, and continue until stable. Models what an arbitrary
// trigger-firing order can produce; the result is a stabilizing set but not
// necessarily a small one.
func RunStepRandom(db *engine.Database, p *datalog.Program, seed int64) (*Result, *engine.Database, error) {
	prep, err := datalog.Prepare(p, db.Schema)
	if err != nil {
		return nil, nil, err
	}
	ctx := prep.AcquireContext()
	defer prep.ReleaseContext(ctx)
	rng := rand.New(rand.NewSource(seed))
	work := db.Fork()
	start := time.Now()
	var deleted []*engine.Tuple
	for steps := 0; ; steps++ {
		if steps > db.TotalTuples()+1 {
			return nil, nil, fmt.Errorf("core: random step execution did not terminate")
		}
		var heads []*engine.Tuple
		headSet := make(map[engine.TupleID]bool)
		for _, pr := range prep.Rules {
			err := pr.EvalOperational(work, ctx, func(a *datalog.Assignment) bool {
				h := a.Head()
				if !headSet[h.TID] {
					headSet[h.TID] = true
					heads = append(heads, h)
				}
				return true
			})
			if err != nil {
				return nil, nil, err
			}
		}
		if len(heads) == 0 {
			break
		}
		h := heads[rng.Intn(len(heads))]
		deleted = append(deleted, h)
		work.DeleteTupleToDelta(h)
	}
	res := newResult(SemStep, deleted)
	res.Rounds = len(deleted)
	res.Timing = Breakdown{Eval: time.Since(start)}
	return res, work, nil
}
