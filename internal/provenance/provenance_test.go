package provenance

import (
	"fmt"
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
	var clauses []Clause
	if err := datalog.EvalRuleOnDB(db, p.Rules[0], func(a *datalog.Assignment) bool {
		clauses = append(clauses, ClauseOf(a))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(clauses) != 1 {
		t.Fatalf("clauses = %d, want 1", len(clauses))
	}
	c := clauses[0]
	if len(c.Pos) != 1 || c.Pos[0] != r1.TID {
		t.Fatalf("Pos = %v, want [%d]", c.Pos, r1.TID)
	}
	if len(c.Neg) != 1 || c.Neg[0] != s1.TID {
		t.Fatalf("Neg = %v, want [%d]", c.Neg, s1.TID)
	}
	if !strings.Contains(c.String(), fmt.Sprintf("¬t%d", s1.TID)) {
		t.Fatalf("String = %q missing negation", c.String())
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
	var c Clause
	datalog.EvalRuleOnDB(db, p.Rules[0], func(a *datalog.Assignment) bool {
		c = ClauseOf(a)
		return false
	})
	if len(c.Pos) != 1 {
		t.Fatalf("Pos = %v, want single deduplicated entry", c.Pos)
	}
}

func TestClauseSigOrderInsensitive(t *testing.T) {
	a := Clause{Pos: []engine.TupleID{1, 2}, Neg: []engine.TupleID{3}}
	g := NewGraph()
	if !g.AddDerivation(9, 1, a) {
		t.Fatal("first derivation should be recorded")
	}
	if g.AddDerivation(9, 1, Clause{Pos: []engine.TupleID{2, 1}, Neg: []engine.TupleID{3}}) {
		t.Fatal("canonical sigs should ignore Pos order")
	}
	if !g.AddDerivation(9, 1, Clause{Pos: []engine.TupleID{1}, Neg: []engine.TupleID{2, 3}}) {
		t.Fatal("different clauses must have different sigs")
	}
	// Pos vs Neg placement matters.
	if !g.AddDerivation(9, 1, Clause{Pos: []engine.TupleID{1, 2, 3}}) {
		t.Fatal("sign placement must be part of the sig")
	}
	// The head is part of the sig.
	if !g.AddDerivation(8, 1, a) {
		t.Fatal("head must be part of the sig")
	}
	if g.NumAssignments() != 4 {
		t.Fatalf("NumAssignments = %d, want 4", g.NumAssignments())
	}
}

func TestGraphLayersAndBenefits(t *testing.T) {
	// IDs: g=1, a4=2, ag4=3, a5=4, ag5=5.
	const g, a4, ag4, a5, ag5 = 1, 2, 3, 4, 5
	gr := NewGraph()
	// Layer 1: ∆(g) via {g}; layer 2: ∆(a) via {a, ag, ¬g} twice-ish.
	if !gr.AddDerivation(g, 1, Clause{Pos: []engine.TupleID{g}}) {
		t.Fatal("first derivation should record")
	}
	gr.AddDerivation(a4, 2, Clause{Pos: []engine.TupleID{a4, ag4}, Neg: []engine.TupleID{g}})
	gr.AddDerivation(a5, 2, Clause{Pos: []engine.TupleID{a5, ag5}, Neg: []engine.TupleID{g}})
	// Duplicate clause for a4 dropped.
	if gr.AddDerivation(a4, 3, Clause{Pos: []engine.TupleID{a4, ag4}, Neg: []engine.TupleID{g}}) {
		t.Fatal("duplicate clause should be dropped")
	}
	// Layer is fixed by the first derivation.
	if gr.Layer[a4] != 2 {
		t.Fatalf("layer = %d, want 2", gr.Layer[a4])
	}
	if gr.NumLayers != 2 {
		t.Fatalf("NumLayers = %d, want 2", gr.NumLayers)
	}
	if heads := gr.LayerHeads(2); len(heads) != 2 {
		t.Fatalf("layer-2 heads = %v", heads)
	}
	if gr.NumAssignments() != 3 {
		t.Fatalf("NumAssignments = %d, want 3", gr.NumAssignments())
	}
	b := gr.Benefits()
	// g: +1 (own assignment) -2 (delta dep of two a assignments) = -1.
	if b[g] != -1 {
		t.Fatalf("benefit[g] = %d, want -1", b[g])
	}
	// a4: +1; ag4: +1.
	if b[a4] != 1 || b[ag4] != 1 {
		t.Fatalf("benefits = %v", b)
	}
	if s := gr.String(); !strings.Contains(s, "layer 1:") || !strings.Contains(s, "layer 2:") {
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
	g.AddDerivation(g2, 1, Clause{Pos: ids(g2)})
	// Rule (1): ∆(a2) from {a2, ag2, ¬g2}; ∆(a3) from {a3, ag3, ¬g2}.
	g.AddDerivation(a2, 2, Clause{Pos: ids(a2, ag2), Neg: ids(g2)})
	g.AddDerivation(a3, 2, Clause{Pos: ids(a3, ag3), Neg: ids(g2)})
	// Rules (2)/(3): ∆(p1), ∆(w1) from {p1, w1, ¬a2}; ∆(p2), ∆(w2) from {p2, w2, ¬a3}.
	g.AddDerivation(p1, 3, Clause{Pos: ids(p1, w1), Neg: ids(a2)})
	g.AddDerivation(w1, 3, Clause{Pos: ids(p1, w1), Neg: ids(a2)})
	g.AddDerivation(p2, 3, Clause{Pos: ids(p2, w2), Neg: ids(a3)})
	g.AddDerivation(w2, 3, Clause{Pos: ids(p2, w2), Neg: ids(a3)})
	// Rule (4): ∆(c) from {c, w1, w2, ¬p1}.
	g.AddDerivation(c, 4, Clause{Pos: ids(c, w1, w2), Neg: ids(p1)})

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
		if b[k] != wv {
			t.Errorf("benefit[t%d] = %d, want %d", k, b[k], wv)
		}
	}
	if g.NumLayers != 4 {
		t.Fatalf("NumLayers = %d, want 4", g.NumLayers)
	}
}
