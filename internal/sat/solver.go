package sat

// Options configures the Min-Ones search.
type Options struct {
	// MaxNodes bounds the number of search nodes; 0 means a generous
	// default. When the budget is exhausted the best solution found so far
	// is returned with Optimal=false.
	MaxNodes int64
	// Prefer ranks variables for tie-breaking: when branching must set some
	// variable true, lower-ranked (earlier) preferred variables are tried
	// first, steering which of several equally-sized optima is found.
	// Variables absent from Prefer rank after all present ones.
	Prefer []int
	// Weights assigns a positive cost to setting each variable true
	// (1-based; index 0 unused). Nil means uniform weight 1, i.e. classic
	// Min-Ones. The search minimizes total weight; Result.Cost still
	// counts true variables while Result.WeightedCost is the objective.
	Weights []int64
	// Cancel, when non-nil, is polled every cancelCheckEvery search nodes;
	// returning true aborts the search as if the node budget were
	// exhausted (the best solution found so far is returned with
	// Optimal=false). Used to thread request cancellation into the solver.
	Cancel func() bool
}

// cancelCheckEvery is the node interval between Options.Cancel polls.
const cancelCheckEvery = 256

// DefaultMaxNodes is the search budget used when Options.MaxNodes is 0.
// The greedy descent seeds a good solution before the search starts, so an
// exhausted budget still returns a high-quality (if unproven) answer.
const DefaultMaxNodes = 400_000

// Result reports the outcome of a Min-Ones search.
type Result struct {
	// Satisfiable reports whether any satisfying assignment was found.
	Satisfiable bool
	// Assignment holds variable values (index 1..NumVars; index 0 unused).
	Assignment []bool
	// Cost is the number of true variables in Assignment.
	Cost int
	// WeightedCost is the minimized objective: the total weight of true
	// variables (equal to Cost under uniform weights).
	WeightedCost int64
	// Optimal reports whether the search proved minimality.
	Optimal bool
	// Nodes is the number of search nodes explored.
	Nodes int64
}

// MinOnes finds a satisfying assignment with as few true variables as the
// search budget allows; it is exact (Optimal=true) when the budget is not
// exhausted. The search is fully deterministic.
func MinOnes(f *Formula, opts Options) Result {
	s := newSolver(f, opts)
	return s.solve()
}

type solver struct {
	f        *Formula
	maxNodes int64

	state      []int8  // per var: 0 unknown, +1 true, -1 false
	satisfied  []bool  // per clause
	unassigned []int32 // per clause: count of unassigned literals
	occPos     [][]int32
	occNeg     [][]int32
	posCount   []int32 // static +v occurrence count, for branch ordering
	prefRank   []int32

	trail    []int32 // assigned vars in order
	satTrail []int32 // clauses satisfied in order

	// usedStamp/usedEpoch implement the zero-allocation disjointness set for
	// lowerBound: a variable is "used" iff its stamp equals the current
	// epoch, and bumping the epoch clears the whole set in O(1). lowerBound
	// runs at every search node, so a per-call map here dominated the
	// solver's allocation and hash-probe cost.
	usedStamp []int64
	usedEpoch int64

	// litsStack holds per-depth branching-literal scratch, reused across
	// the whole search (recursion depth d always reuses slot d).
	litsStack [][]int32

	cancel    func() bool
	weights   []int64
	costNow   int64
	bestCost  int64
	bestAsn   []bool
	foundAny  bool
	nodes     int64
	work      int64 // clause-visit counter; bounds per-node scan cost
	maxWork   int64
	exhausted bool

	firstUnsat int // scan hint: all clauses before it are satisfied
}

// workPerNode converts the node budget into a clause-visit budget, so huge
// formulas exhaust proportionally sooner than small ones (a node on a
// 100K-clause formula is far more expensive than on a 100-clause one).
const workPerNode = 64

func newSolver(f *Formula, opts Options) *solver {
	n := f.numVars
	s := &solver{
		f:          f,
		maxNodes:   opts.MaxNodes,
		state:      make([]int8, n+1),
		satisfied:  make([]bool, f.NumClauses()),
		unassigned: make([]int32, f.NumClauses()),
		occPos:     make([][]int32, n+1),
		occNeg:     make([][]int32, n+1),
		posCount:   make([]int32, n+1),
		prefRank:   make([]int32, n+1),
		usedStamp:  make([]int64, n+1),
	}
	if s.maxNodes <= 0 {
		s.maxNodes = DefaultMaxNodes
	}
	s.cancel = opts.Cancel
	s.maxWork = s.maxNodes * workPerNode
	if opts.Weights != nil {
		s.weights = make([]int64, n+1)
		for v := 1; v <= n; v++ {
			w := int64(1)
			if v < len(opts.Weights) && opts.Weights[v] > 0 {
				w = opts.Weights[v]
			}
			s.weights[v] = w
		}
	}
	for ci := range f.NumClauses() {
		c := f.Clause(ci)
		s.unassigned[ci] = int32(len(c))
		for _, l := range c {
			if l > 0 {
				s.occPos[l] = append(s.occPos[l], int32(ci))
				s.posCount[l]++
			} else {
				s.occNeg[-l] = append(s.occNeg[-l], int32(ci))
			}
		}
	}
	for v := range s.prefRank {
		s.prefRank[v] = int32(n + 1)
	}
	for i, v := range opts.Prefer {
		if v >= 1 && v <= n && s.prefRank[v] == int32(n+1) {
			s.prefRank[v] = int32(i)
		}
	}
	return s
}

func (s *solver) solve() Result {
	// An empty clause is immediately unsatisfiable.
	for ci := range s.f.NumClauses() {
		if len(s.f.Clause(ci)) == 0 {
			return Result{Satisfiable: false, Nodes: 0, Optimal: true}
		}
	}
	// Root simplification: assign pure-negative variables false (free), and
	// propagate root units.
	conflict := false
	for v := 1; v <= s.f.numVars; v++ {
		if s.state[v] == 0 && len(s.occPos[v]) == 0 && len(s.occNeg[v]) > 0 {
			if !s.assignAndPropagate(v, false) {
				conflict = true
				break
			}
		}
	}
	if !conflict {
		for ci := range s.f.NumClauses() {
			if !s.satisfied[ci] && s.unassigned[ci] == 1 {
				if !s.propagateClause(int32(ci)) {
					conflict = true
					break
				}
			}
		}
	}
	if !conflict {
		// Seed the bound with a greedy max-coverage solution: it both makes
		// branch-and-bound prune aggressively and guarantees a good answer
		// if the node budget runs out mid-search.
		s.greedyDescent()
		s.search(0)
	}
	res := Result{
		Satisfiable: s.foundAny,
		Nodes:       s.nodes,
		Optimal:     !s.exhausted,
	}
	if s.foundAny {
		res.Assignment = s.bestAsn
		res.Cost = CountOnes(res.Assignment)
		res.WeightedCost = s.bestCost
	}
	return res
}

// assign sets v to val, updating clause states. It reports false on
// conflict (an unsatisfied clause ran out of literals). All bookkeeping is
// reversible via undoTo regardless of conflicts.
func (s *solver) assign(v int, val bool) bool {
	if val {
		s.state[v] = 1
		s.costNow += s.weight(v)
	} else {
		s.state[v] = -1
	}
	s.trail = append(s.trail, int32(v))

	trueOcc, falseOcc := s.occPos[v], s.occNeg[v]
	if !val {
		trueOcc, falseOcc = falseOcc, trueOcc
	}
	for _, ci := range trueOcc {
		s.unassigned[ci]--
		if !s.satisfied[ci] {
			s.satisfied[ci] = true
			s.satTrail = append(s.satTrail, ci)
		}
	}
	ok := true
	for _, ci := range falseOcc {
		s.unassigned[ci]--
		if !s.satisfied[ci] && s.unassigned[ci] == 0 {
			ok = false
		}
	}
	return ok
}

// propagateClause resolves a unit clause: find its sole unassigned literal
// and assign it satisfying the clause, then chain propagation.
func (s *solver) propagateClause(ci int32) bool {
	if s.satisfied[ci] {
		return true
	}
	for _, l := range s.f.Clause(int(ci)) {
		if v := abs(l); s.state[v] == 0 {
			return s.assignAndPropagate(v, l > 0)
		}
	}
	// No unassigned literal left in an unsatisfied clause: conflict.
	return false
}

// assignAndPropagate assigns and then resolves any unit clauses created.
func (s *solver) assignAndPropagate(v int, val bool) bool {
	if !s.assign(v, val) {
		return false
	}
	falseOcc := s.occNeg[v]
	if !val {
		falseOcc = s.occPos[v]
	}
	for _, ci := range falseOcc {
		if !s.satisfied[ci] && s.unassigned[ci] == 1 {
			if !s.propagateClause(ci) {
				return false
			}
		}
	}
	return true
}

type checkpoint struct {
	trailLen, satLen int
	firstUnsat       int
}

func (s *solver) mark() checkpoint {
	return checkpoint{len(s.trail), len(s.satTrail), s.firstUnsat}
}

func (s *solver) undoTo(cp checkpoint) {
	s.firstUnsat = cp.firstUnsat
	for len(s.satTrail) > cp.satLen {
		ci := s.satTrail[len(s.satTrail)-1]
		s.satTrail = s.satTrail[:len(s.satTrail)-1]
		s.satisfied[ci] = false
	}
	for len(s.trail) > cp.trailLen {
		v := s.trail[len(s.trail)-1]
		s.trail = s.trail[:len(s.trail)-1]
		if s.state[v] == 1 {
			s.costNow -= s.weight(int(v))
		}
		s.state[v] = 0
		for _, ci := range s.occPos[v] {
			s.unassigned[ci]++
		}
		for _, ci := range s.occNeg[v] {
			s.unassigned[ci]++
		}
	}
}

// lowerBound counts variable-disjoint unsatisfied clauses whose remaining
// literals are all positive: each such clause forces at least one more true
// variable. Scanning stops as soon as the bound suffices to prune, and the
// scan is charged against the work budget (an early abort just returns a
// weaker — still valid — bound).
func (s *solver) lowerBound(enough int64) int64 {
	if enough <= 0 {
		return 0
	}
	s.usedEpoch++
	epoch := s.usedEpoch
	var lb int64
	lits, off := s.f.lits, s.f.off
	for ci := s.firstUnsat; ci < len(off)-1; ci++ {
		s.work++
		if s.satisfied[ci] {
			continue
		}
		c := lits[off[ci]:off[ci+1]]
		allPos, disjoint := true, true
		for _, l := range c {
			if l < 0 {
				if s.state[-l] == 0 {
					allPos = false
					break
				}
				continue
			}
			if s.state[l] != 0 {
				continue
			}
			if s.usedStamp[l] == epoch {
				disjoint = false
			}
		}
		if !allPos || !disjoint {
			continue
		}
		// The clause forces at least its cheapest unassigned literal.
		minW := int64(1 << 62)
		for _, l := range c {
			if l > 0 && s.state[l] == 0 {
				if w := s.weight(int(l)); w < minW {
					minW = w
				}
			}
		}
		lb += minW
		if lb >= enough {
			return lb
		}
		for _, l := range c {
			if l > 0 && s.state[l] == 0 {
				s.usedStamp[l] = epoch
			}
		}
	}
	return lb
}

// weight returns the cost of setting v true (1 under uniform weights).
func (s *solver) weight(v int) int64 {
	if s.weights == nil {
		return 1
	}
	return s.weights[v]
}

// pickClause chooses an unsatisfied clause to branch on; returns -1 when
// every clause is satisfied. It scans from the firstUnsat hint (advancing
// the hint over the satisfied prefix — restored on undo via checkpoints)
// and picks the clause with the fewest unassigned literals within a small
// lookahead window past the first unsatisfied one, bounding per-node cost.
func (s *solver) pickClause() int {
	for s.firstUnsat < s.f.NumClauses() && s.satisfied[s.firstUnsat] {
		s.firstUnsat++
		s.work++
	}
	if s.firstUnsat >= s.f.NumClauses() {
		return -1
	}
	const lookahead = 128
	bestCi := s.firstUnsat
	bestN := s.unassigned[bestCi]
	end := s.firstUnsat + lookahead
	if end > s.f.NumClauses() {
		end = s.f.NumClauses()
	}
	for ci := s.firstUnsat + 1; ci < end && bestN > 2; ci++ {
		s.work++
		if s.satisfied[ci] {
			continue
		}
		if n := s.unassigned[ci]; n < bestN {
			bestCi, bestN = ci, n
		}
	}
	return bestCi
}

// greedyDescent runs one greedy pass from the current (root-propagated)
// state: repeatedly satisfy the tightest unsatisfied clause, using a free
// negative literal when available and otherwise the positive variable
// covering the most currently-unsatisfied clauses (set-cover greedy).
// Preference ranks break coverage ties. The resulting solution seeds the
// branch-and-bound's best bound; all assignments are undone afterwards.
func (s *solver) greedyDescent() {
	cp := s.mark()
	defer s.undoTo(cp)
	for {
		ci := s.pickClause()
		if ci < 0 {
			s.record()
			return
		}
		// Free move: a negative unassigned literal satisfies the clause at
		// zero cost.
		var bestVar int
		bestCover := -1
		for _, l := range s.f.Clause(ci) {
			v := abs(l)
			if s.state[v] != 0 {
				continue
			}
			if l < 0 {
				if !s.assignAndPropagate(v, false) {
					return // greedy dead end: give up, search() will handle it
				}
				bestVar = 0
				break
			}
			cover := 0
			for _, cj := range s.occPos[v] {
				if !s.satisfied[cj] {
					cover++
				}
			}
			// Maximize coverage per unit weight (cover/w), comparing as
			// cross products to stay in integers; prefRank breaks ties.
			better := bestCover < 0 ||
				int64(cover)*s.weight(bestVar) > int64(bestCover)*s.weight(v) ||
				(int64(cover)*s.weight(bestVar) == int64(bestCover)*s.weight(v) && s.prefRank[v] < s.prefRank[bestVar])
			if better {
				bestCover, bestVar = cover, v
			}
		}
		if bestCover >= 0 && bestVar != 0 {
			if !s.assignAndPropagate(bestVar, true) {
				return
			}
		} else if bestCover < 0 && bestVar == 0 {
			continue // clause got satisfied by the negative-literal move
		}
	}
}

func (s *solver) record() {
	cost := s.costNow
	if s.foundAny && cost >= s.bestCost {
		return
	}
	s.foundAny = true
	s.bestCost = cost
	asn := make([]bool, s.f.numVars+1)
	for v := 1; v <= s.f.numVars; v++ {
		asn[v] = s.state[v] == 1 // unassigned vars default to false
	}
	s.bestAsn = asn
}

// litLess orders branching literals: negative (free) first, then positive
// by preference rank, then by weight, then by static occurrence
// (descending), then by variable index.
func (s *solver) litLess(li, lj int32) bool {
	ni, nj := li < 0, lj < 0
	if ni != nj {
		return ni
	}
	vi, vj := abs(li), abs(lj)
	if !ni { // both positive
		if s.prefRank[vi] != s.prefRank[vj] {
			return s.prefRank[vi] < s.prefRank[vj]
		}
		if s.weights != nil && s.weight(vi) != s.weight(vj) {
			return s.weight(vi) < s.weight(vj)
		}
		if s.posCount[vi] != s.posCount[vj] {
			return s.posCount[vi] > s.posCount[vj]
		}
	}
	return vi < vj
}

func (s *solver) search(depth int) {
	s.nodes++
	if s.nodes > s.maxNodes || s.work > s.maxWork {
		s.exhausted = true
		return
	}
	if s.cancel != nil && s.nodes%cancelCheckEvery == 0 && s.cancel() {
		s.exhausted = true
		return
	}
	if s.foundAny {
		margin := s.bestCost - s.costNow
		if margin <= 0 {
			return
		}
		if s.lowerBound(margin) >= margin {
			return
		}
	}
	ci := s.pickClause()
	if ci < 0 {
		s.record()
		return
	}
	// Collect the clause's unassigned literals into this depth's reusable
	// scratch slot (clauses are short, so the insertion sort below beats a
	// sort.Slice call — and neither allocates).
	if depth >= len(s.litsStack) {
		s.litsStack = append(s.litsStack, nil)
	}
	lits := s.litsStack[depth][:0]
	for _, l := range s.f.Clause(ci) {
		if s.state[abs(l)] == 0 {
			lits = append(lits, l)
		}
	}
	for i := 1; i < len(lits); i++ {
		for j := i; j > 0 && s.litLess(lits[j], lits[j-1]); j-- {
			lits[j], lits[j-1] = lits[j-1], lits[j]
		}
	}
	s.litsStack[depth] = lits
	// Branch: literal i true, literals 0..i-1 false.
	for i, l := range lits {
		cp := s.mark()
		ok := true
		for _, prev := range lits[:i] {
			v, val := abs(prev), prev < 0 // falsify prev: v=true if prev was negative
			if s.state[v] != 0 {
				if (s.state[v] == 1) != val {
					ok = false
				}
			} else if !s.assignAndPropagate(v, val) {
				ok = false
			}
			if !ok {
				break
			}
		}
		if ok {
			v, val := abs(l), l > 0
			if s.state[v] != 0 {
				ok = (s.state[v] == 1) == val
			} else {
				ok = s.assignAndPropagate(v, val)
			}
			if ok {
				s.search(depth + 1)
			}
		}
		s.undoTo(cp)
		if s.exhausted {
			return
		}
	}
}

// abs returns the variable of a literal.
func abs(l int32) int {
	if l < 0 {
		return int(-l)
	}
	return int(l)
}
