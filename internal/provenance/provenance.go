// Package provenance implements the provenance of §5 of the paper: the
// layered provenance graph with tuple benefits used by Algorithm 2 for step
// semantics (Graph), and the negation of one assignment's provenance into a
// CNF clause for Algorithm 1 (NegatedClause), which feeds the SAT solver's
// clause store (internal/sat) directly.
//
// The graph is a flat, ID-dense store in the manner of sat.Formula: tuples
// are numbered on first sight, every clause's literals sit back to back in
// one []int32 with a positive/negative split and a head per clause, and
// repeated clauses are dropped by an in-place hash table, so capturing an
// assignment allocates nothing. Tuples enter by their interned
// engine.TupleID; a delta tuple ∆(t) is identified by t's ID — delta
// relations share tuples with their base relations, so no separate ID space
// is needed. Rendering IDs back to readable content keys is the caller's
// concern (resolve through the database; see internal/viz and core's
// Explainer).
package provenance

import (
	"repro/internal/datalog"
	"repro/internal/engine"
)

// NegatedClause appends the CNF clause of Algorithm 1 for asn to lits and
// returns the grown slice: the provenance (t₁ ∧ … ∧ ¬d₁ ∧ …) negates to
// (x_t₁ ∨ … ∨ ¬x_d₁ ∨ …), where x_t means "t is deleted" and varFor maps a
// tuple to its SAT variable. Positive atoms come before delta atoms, each
// in body order, so a varFor that numbers tuples on first sight numbers
// them in the order Graph.AddDerivation stores them. Repeated literals are
// left for the clause store to drop.
func NegatedClause(lits []int, asn *datalog.Assignment, varFor func(engine.TupleID) int) []int {
	for i, tp := range asn.Tuples {
		if !asn.Rule.Body[i].Delta {
			lits = append(lits, varFor(tp.TID))
		}
	}
	for i, tp := range asn.Tuples {
		if asn.Rule.Body[i].Delta {
			lits = append(lits, -varFor(tp.TID))
		}
	}
	return lits
}
