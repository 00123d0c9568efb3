package provenance

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"repro/internal/datalog"
	"repro/internal/engine"
)

// Graph is the provenance graph of §5.2: for every derived delta tuple ∆(t)
// it stores all assignments deriving it (as clauses), and the layer at
// which ∆(t) is first derived (the round of the End-semantics evaluation;
// cf. Figure 5 of the paper). Algorithm 2 traverses the graph layer by
// layer, choosing tuples by benefit.
//
// The graph is one flat, ID-dense store. Every tuple it touches is a node,
// numbered 0, 1, … on first sight; TupleID and Node map between the two.
// A clause is the provenance of one assignment α: the nodes α binds to
// non-delta body atoms (pos, "must be present") followed by the nodes α
// binds to delta atoms (neg, "must have been deleted"), each run in body
// order without repeats, stored back to back in one []int32. In formula
// terms the clause is t₁ ∧ … ∧ tₖ ∧ ¬d₁ ∧ … ∧ ¬dₘ (§5.1). The head's own
// tuple is always among the positives (the self atom of Def. 3.1). A tuple
// bound both positively and as a delta appears in both runs.
//
// Clauses equal up to the order of each run are stored once per head; the
// dedup is an open-addressing table over clause indexes that hashes the
// stored literals in place, so recording an assignment allocates nothing
// beyond amortized growth of the store.
type Graph struct {
	ids    []engine.TupleID         // node → tuple
	nodeOf map[engine.TupleID]int32 // tuple → node
	layer  []int32                  // node → 1-based first-derivation layer; 0 = not a head
	first  []int32                  // node → its first clause as a head; -1 = none
	last   []int32                  // node → its latest clause as a head
	heads  []int32                  // head nodes in first-derivation order

	numLayers int

	lits  []int32 // clause literals (nodes), back to back
	off   []int32 // clause c is lits[off[c]:off[c+1]]; len is NumClauses()+1
	split []int32 // clause c's negatives start at lits[split[c]]
	head  []int32 // clause → head node
	next  []int32 // clause → the head's next clause in emission order; -1 = none
	slots []int32 // dedup table: clause index+1, 0 = empty; len is a power of two
}

// NewGraph creates an empty provenance graph.
func NewGraph() *Graph {
	return &Graph{nodeOf: make(map[engine.TupleID]int32), off: []int32{0}}
}

// NumNodes returns the number of tuples the graph mentions.
func (g *Graph) NumNodes() int { return len(g.ids) }

// TupleID returns the tuple node n stands for.
func (g *Graph) TupleID(n int32) engine.TupleID { return g.ids[n] }

// Node returns the node of a tuple, if the graph mentions it.
func (g *Graph) Node(id engine.TupleID) (int32, bool) {
	n, ok := g.nodeOf[id]
	return n, ok
}

// Heads returns the derived delta tuples' nodes in first-derivation order
// (a view into the store; do not mutate).
func (g *Graph) Heads() []int32 { return g.heads }

// Layer returns the 1-based layer at which ∆(node) is first derived, or 0
// when the node is not a head.
func (g *Graph) Layer(n int32) int { return int(g.layer[n]) }

// NumLayers returns the maximum layer.
func (g *Graph) NumLayers() int { return g.numLayers }

// NumClauses returns the number of recorded (distinct) assignments.
func (g *Graph) NumClauses() int { return len(g.off) - 1 }

// Clause returns clause c's positive and negative nodes (views into the
// store; do not mutate).
func (g *Graph) Clause(c int) (pos, neg []int32) {
	return g.lits[g.off[c]:g.split[c]], g.lits[g.split[c]:g.off[c+1]]
}

// ClauseHead returns the head node clause c derives.
func (g *Graph) ClauseHead(c int) int32 { return g.head[c] }

// HeadClauses returns the clauses deriving ∆(n), in emission order; none
// when n is not a head.
func (g *Graph) HeadClauses(n int32) []int32 {
	var out []int32
	for c := g.first[n]; c >= 0; c = g.next[c] {
		out = append(out, c)
	}
	return out
}

// Benefits computes the benefit b_t of every node t: the number of
// assignments t participates in (positively) minus the number of
// assignments ∆(t) participates in (as a delta dependency). This is exactly
// the greedy score of Algorithm 2 — deleting a high-benefit tuple voids many
// derivations while enabling few.
func (g *Graph) Benefits() []int32 {
	b := make([]int32, len(g.ids))
	for c := range g.NumClauses() {
		pos, neg := g.Clause(c)
		for _, n := range pos {
			b[n]++
		}
		for _, n := range neg {
			b[n]--
		}
	}
	return b
}

// AddDerivation records that assignment asn derives ∆(asn.Head()) at the
// given 1-based layer: tuples bound to non-delta body atoms are the
// clause's positives, tuples bound to delta atoms its negatives. The layer
// is retained only for the first derivation of a head; a clause already
// recorded for the head is dropped. It reports whether the clause was
// recorded.
func (g *Graph) AddDerivation(layer int, asn *datalog.Assignment) bool {
	start := len(g.lits)
	var head int32
	for i, tp := range asn.Tuples {
		if !asn.Rule.Body[i].Delta {
			n := g.addLit(start, tp.TID)
			if i == asn.Rule.SelfIdx {
				head = n
			}
		}
	}
	split := len(g.lits)
	for i, tp := range asn.Tuples {
		if asn.Rule.Body[i].Delta {
			g.addLit(split, tp.TID)
		}
	}
	return g.commit(head, layer, start, split)
}

// node returns id's node, numbering it on first sight.
func (g *Graph) node(id engine.TupleID) int32 {
	n, ok := g.nodeOf[id]
	if !ok {
		n = int32(len(g.ids))
		g.nodeOf[id] = n
		g.ids = append(g.ids, id)
		g.layer = append(g.layer, 0)
		g.first = append(g.first, -1)
		g.last = append(g.last, -1)
	}
	return n
}

// addLit appends id's node to the run that starts at lits[from] unless the
// run already holds it, and returns the node. Rule bodies are short, so the
// repeat check is a scan of the run.
func (g *Graph) addLit(from int, id engine.TupleID) int32 {
	n := g.node(id)
	if !slices.Contains(g.lits[from:], n) {
		g.lits = append(g.lits, n)
	}
	return n
}

// commit registers head at layer if it is new, then keeps the clause just
// appended at lits[start:] (negatives from split) unless the head already
// has it.
func (g *Graph) commit(head int32, layer, start, split int) bool {
	if g.layer[head] == 0 {
		g.heads = append(g.heads, head)
		g.layer[head] = int32(layer)
		g.numLayers = max(g.numLayers, layer)
	}
	if len(g.off) > len(g.slots)/2 {
		g.grow()
	}
	pos, neg := g.lits[start:split], g.lits[split:]
	mask := len(g.slots) - 1
	for s := int(hashClause(head, pos, neg)) & mask; ; s = (s + 1) & mask {
		ci := g.slots[s]
		if ci == 0 {
			c := int32(g.NumClauses())
			g.slots[s] = c + 1
			g.off = append(g.off, int32(len(g.lits)))
			g.split = append(g.split, int32(split))
			g.head = append(g.head, head)
			g.next = append(g.next, -1)
			if g.first[head] < 0 {
				g.first[head] = c
			} else {
				g.next[g.last[head]] = c
			}
			g.last[head] = c
			return true
		}
		if c := int(ci - 1); g.head[c] == head {
			if cp, cn := g.Clause(c); sameSet(cp, pos) && sameSet(cn, neg) {
				g.lits = g.lits[:start]
				return false // duplicate clause
			}
		}
	}
}

// grow doubles the dedup table and re-inserts every stored clause.
func (g *Graph) grow() {
	n := 16
	for n < 4*len(g.off) {
		n *= 2
	}
	g.slots = make([]int32, n)
	mask := n - 1
	for c := range g.NumClauses() {
		pos, neg := g.Clause(c)
		s := int(hashClause(g.head[c], pos, neg)) & mask
		for g.slots[s] != 0 {
			s = (s + 1) & mask
		}
		g.slots[s] = int32(c + 1)
	}
}

// hashClause hashes a clause independently of the order within each run:
// the per-node mixes are summed, with the run a node belongs to mixed in.
func hashClause(head int32, pos, neg []int32) uint64 {
	h := mix(uint64(uint32(head)) << 2)
	for _, n := range pos {
		h += mix(uint64(uint32(n))<<2 | 1)
	}
	for _, n := range neg {
		h += mix(uint64(uint32(n))<<2 | 2)
	}
	return h ^ h>>29
}

// mix is the splitmix64 finalizer.
func mix(x uint64) uint64 {
	x *= 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// sameSet reports whether two repeat-free runs hold the same nodes.
func sameSet(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for _, n := range a {
		if !slices.Contains(b, n) {
			return false
		}
	}
	return true
}

// String renders a per-layer summary for debugging, e.g.
// "layer 1: t12[1]" (tuple ID and clause count per head). Resolve IDs
// through the database for content keys.
func (g *Graph) String() string {
	var b strings.Builder
	for l := 1; l <= g.numLayers; l++ {
		fmt.Fprintf(&b, "layer %d:", l)
		var heads []int32
		for _, h := range g.heads {
			if int(g.layer[h]) == l {
				heads = append(heads, h)
			}
		}
		slices.SortFunc(heads, func(x, y int32) int { return cmp.Compare(g.ids[x], g.ids[y]) })
		for _, h := range heads {
			fmt.Fprintf(&b, " t%d[%d]", g.ids[h], len(g.HeadClauses(h)))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
