package provenance

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/datalog"
	"repro/internal/engine"
)

func simpleSchema() *engine.Schema {
	s := engine.NewSchema()
	s.MustAddRelation("R", "r", "a")
	s.MustAddRelation("S", "s", "a")
	return s
}

// tuples resolves nodes back to tuple IDs.
func tuples(g *Graph, nodes []int32) []engine.TupleID {
	out := make([]engine.TupleID, len(nodes))
	for i, n := range nodes {
		out[i] = g.TupleID(n)
	}
	return out
}

// add records ∆(head) derived at layer from the positives pos and the delta
// dependencies neg, the way AddDerivation records an assignment.
func add(g *Graph, head engine.TupleID, layer int, pos, neg []engine.TupleID) bool {
	start := len(g.lits)
	for _, id := range pos {
		g.addLit(start, id)
	}
	split := len(g.lits)
	for _, id := range neg {
		g.addLit(split, id)
	}
	return g.commit(g.node(head), layer, start, split)
}

// benefitOf is the benefit of a tuple (0 when the graph never mentions it).
func benefitOf(g *Graph, b []int32, id engine.TupleID) int {
	n, ok := g.Node(id)
	if !ok {
		return 0
	}
	return int(b[n])
}

func TestClauseOfSeparatesPosAndNeg(t *testing.T) {
	s := simpleSchema()
	db := engine.NewDatabase(s)
	r1 := db.MustInsert("R", engine.Int(1))
	s1 := db.MustInsert("S", engine.Int(1))
	db.DeleteTupleToDelta(s1)

	p, err := datalog.ParseAndValidate("Delta_R(x) :- R(x), Delta_S(x).", s)
	if err != nil {
		t.Fatal(err)
	}
	g := NewGraph()
	if err := datalog.EvalRuleOnDB(db, p.Rules[0], func(a *datalog.Assignment) bool {
		g.AddDerivation(1, a)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if g.NumClauses() != 1 {
		t.Fatalf("clauses = %d, want 1", g.NumClauses())
	}
	pos, neg := g.Clause(0)
	if got := tuples(g, pos); !slices.Equal(got, []engine.TupleID{r1.TID}) {
		t.Fatalf("pos = %v, want [%d]", got, r1.TID)
	}
	if got := tuples(g, neg); !slices.Equal(got, []engine.TupleID{s1.TID}) {
		t.Fatalf("neg = %v, want [%d]", got, s1.TID)
	}
	if h := g.ClauseHead(0); g.TupleID(h) != r1.TID || g.Layer(h) != 1 {
		t.Fatalf("head = t%d at layer %d, want t%d at layer 1", g.TupleID(h), g.Layer(h), r1.TID)
	}
	if n, _ := g.Node(s1.TID); g.Layer(n) != 0 {
		t.Fatal("a delta dependency is not a head")
	}
}

func TestClauseOfDeduplicatesRepeatedTuples(t *testing.T) {
	s := simpleSchema()
	db := engine.NewDatabase(s)
	db.MustInsert("R", engine.Int(1))
	// Rule with the same atom twice: R(x), R(x) binds the same tuple.
	p, err := datalog.ParseAndValidate("Delta_R(x) :- R(x), R(x).", s)
	if err != nil {
		t.Fatal(err)
	}
	g := NewGraph()
	datalog.EvalRuleOnDB(db, p.Rules[0], func(a *datalog.Assignment) bool {
		g.AddDerivation(1, a)
		return false
	})
	if pos, _ := g.Clause(0); len(pos) != 1 {
		t.Fatalf("pos = %v, want single deduplicated entry", pos)
	}
}

func TestClauseSigOrderInsensitive(t *testing.T) {
	ids := func(xs ...engine.TupleID) []engine.TupleID { return xs }
	g := NewGraph()
	if !add(g, 9, 1, ids(9, 1, 2), ids(3)) {
		t.Fatal("first derivation should be recorded")
	}
	if add(g, 9, 1, ids(2, 9, 1), ids(3)) {
		t.Fatal("dedup should ignore positive order")
	}
	if !add(g, 9, 1, ids(9, 1), ids(2, 3)) {
		t.Fatal("different clauses must both be recorded")
	}
	if add(g, 9, 1, ids(1, 9), ids(3, 2)) {
		t.Fatal("dedup should ignore negative order")
	}
	// Positive vs negative placement matters.
	if !add(g, 9, 1, ids(9, 1, 2, 3), nil) {
		t.Fatal("sign placement must be part of the key")
	}
	// The head is part of the key.
	if !add(g, 8, 1, ids(9, 1, 2), ids(3)) {
		t.Fatal("head must be part of the key")
	}
	if g.NumClauses() != 4 {
		t.Fatalf("NumClauses = %d, want 4", g.NumClauses())
	}
	// Emission order per head survives the dedup.
	n9, _ := g.Node(9)
	if got := g.HeadClauses(n9); !slices.Equal(got, []int32{0, 1, 2}) {
		t.Fatalf("clauses of t9 = %v, want [0 1 2]", got)
	}
	// The stored runs keep their first-seen order.
	if pos, _ := g.Clause(0); !slices.Equal(tuples(g, pos), ids(9, 1, 2)) {
		t.Fatalf("clause 0 positives = %v", tuples(g, pos))
	}
}

// TestGraphDedupAcrossGrowth records enough distinct clauses to grow the
// dedup table several times, then replays them all with each run reversed:
// every replay must be recognised as a duplicate.
func TestGraphDedupAcrossGrowth(t *testing.T) {
	g := NewGraph()
	const n = 500
	for i := range engine.TupleID(n) {
		if !add(g, i%7, 1, []engine.TupleID{i % 7, 1000 + i, 2000 + i}, []engine.TupleID{3000 + i%3, 4000 + i}) {
			t.Fatalf("clause %d not recorded", i)
		}
	}
	for i := range engine.TupleID(n) {
		if add(g, i%7, 2, []engine.TupleID{2000 + i, 1000 + i, i % 7}, []engine.TupleID{4000 + i, 3000 + i%3}) {
			t.Fatalf("reordered clause %d recorded twice", i)
		}
	}
	if g.NumClauses() != n || g.NumLayers() != 1 || len(g.Heads()) != 7 {
		t.Fatalf("clauses %d layers %d heads %d", g.NumClauses(), g.NumLayers(), len(g.Heads()))
	}
}

func TestGraphLayersAndBenefits(t *testing.T) {
	// IDs: g=1, a4=2, ag4=3, a5=4, ag5=5.
	const g, a4, ag4, a5, ag5 = 1, 2, 3, 4, 5
	ids := func(xs ...engine.TupleID) []engine.TupleID { return xs }
	gr := NewGraph()
	// Layer 1: ∆(g) via {g}; layer 2: ∆(a) via {a, ag, ¬g}.
	if !add(gr, g, 1, ids(g), nil) {
		t.Fatal("first derivation should record")
	}
	add(gr, a4, 2, ids(a4, ag4), ids(g))
	add(gr, a5, 2, ids(a5, ag5), ids(g))
	// Duplicate clause for a4 dropped.
	if add(gr, a4, 3, ids(a4, ag4), ids(g)) {
		t.Fatal("duplicate clause should be dropped")
	}
	// Layer is fixed by the first derivation.
	if n, _ := gr.Node(a4); gr.Layer(n) != 2 {
		t.Fatalf("layer = %d, want 2", gr.Layer(n))
	}
	if gr.NumLayers() != 2 {
		t.Fatalf("NumLayers = %d, want 2", gr.NumLayers())
	}
	if got := tuples(gr, gr.Heads()); !slices.Equal(got, ids(g, a4, a5)) {
		t.Fatalf("heads = %v", got)
	}
	if gr.NumClauses() != 3 {
		t.Fatalf("NumClauses = %d, want 3", gr.NumClauses())
	}
	b := gr.Benefits()
	// g: +1 (own assignment) -2 (delta dep of two a assignments) = -1.
	if benefitOf(gr, b, g) != -1 {
		t.Fatalf("benefit[g] = %d, want -1", benefitOf(gr, b, g))
	}
	// a4: +1; ag4: +1.
	if benefitOf(gr, b, a4) != 1 || benefitOf(gr, b, ag4) != 1 {
		t.Fatalf("benefits = %v", b)
	}
	if s := gr.String(); !strings.Contains(s, "layer 1: t1[1]") || !strings.Contains(s, "layer 2: t2[1] t4[1]") {
		t.Fatalf("String = %q", s)
	}
}

// TestGraphMatchesPaperFigure5 rebuilds the running example's provenance
// graph and checks the benefits annotated in Figure 5: w1:3, p1:1, a2:-1,
// g2:-1, a3:-1, p2:2(*), w2:3, c:1, ag2/ag3 not derived (∅ benefit in the
// figure because they have no delta node; they participate in assignments).
func TestGraphMatchesPaperFigure5(t *testing.T) {
	// Tuple IDs standing in for the paper's named tuples.
	const g2, a2, ag2, a3, ag3, p1, w1, p2, w2, c = 1, 2, 3, 4, 5, 6, 7, 8, 9, 10
	ids := func(xs ...engine.TupleID) []engine.TupleID { return xs }
	g := NewGraph()
	// Rule (0): ∆(g2) from {g2}.
	add(g, g2, 1, ids(g2), nil)
	// Rule (1): ∆(a2) from {a2, ag2, ¬g2}; ∆(a3) from {a3, ag3, ¬g2}.
	add(g, a2, 2, ids(a2, ag2), ids(g2))
	add(g, a3, 2, ids(a3, ag3), ids(g2))
	// Rules (2)/(3): ∆(p1), ∆(w1) from {p1, w1, ¬a2}; ∆(p2), ∆(w2) from {p2, w2, ¬a3}.
	add(g, p1, 3, ids(p1, w1), ids(a2))
	add(g, w1, 3, ids(p1, w1), ids(a2))
	add(g, p2, 3, ids(p2, w2), ids(a3))
	add(g, w2, 3, ids(p2, w2), ids(a3))
	// Rule (4): ∆(c) from {c, w1, w2, ¬p1}.
	add(g, c, 4, ids(c, w1, w2), ids(p1))

	b := g.Benefits()
	want := map[engine.TupleID]int{
		g2: 1 - 2, // own + delta-dep of a2, a3
		a2: 1 - 2, // own + delta-dep of p1/w1 clause (two clauses)
		a3: 1 - 2,
		w1: 3, // p1 clause, w1 clause, c clause
		w2: 3,
		p1: 2 - 1, // p1+w1 clauses positively, delta-dep of c
		p2: 2,
		c:  1,
	}
	for k, wv := range want {
		if got := benefitOf(g, b, k); got != wv {
			t.Errorf("benefit[t%d] = %d, want %d", k, got, wv)
		}
	}
	if g.NumLayers() != 4 {
		t.Fatalf("NumLayers = %d, want 4", g.NumLayers())
	}
}
