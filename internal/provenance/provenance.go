// Package provenance implements the provenance of §5 of the paper: the
// per-assignment clause (ClauseOf) and the layered provenance graph with
// tuple benefits used by Algorithm 2 for step semantics. Algorithm 1 negates
// assignments straight into the SAT solver's clause store (internal/sat)
// and keeps no provenance formula of its own.
//
// Throughout, tuples are identified by their interned engine.TupleID; a
// delta tuple ∆(t) is identified by t's ID — delta relations share tuples
// with their base relations, so no separate ID space is needed. Rendering
// IDs back to readable content keys is the caller's concern (resolve
// through the database; see internal/viz and core's Explainer).
package provenance

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/datalog"
	"repro/internal/engine"
)

// Clause is the provenance of one assignment α: the conjunction of the base
// tuples α binds positively (Pos, "must be present") and the base
// counterparts of the delta tuples α binds (Neg, "must have been deleted").
// In formula terms the clause is  t₁ ∧ … ∧ tₖ ∧ ¬d₁ ∧ … ∧ ¬dₘ  where
// negated variables stand for deleted tuples (§5.1).
type Clause struct {
	Pos []engine.TupleID
	Neg []engine.TupleID
}

// ClauseOf extracts the provenance clause of an assignment: tuples bound to
// non-delta body atoms go to Pos, tuples bound to delta atoms to Neg.
// Duplicates (the same tuple bound by several atoms) are removed, and a
// tuple bound both positively and as a delta yields both entries (the
// clause is then unsatisfiable in any consistent state, but Algorithm 1's
// negation handles it soundly). Rule bodies are short, so dedup is a linear
// scan over the slices themselves — no maps, no allocation beyond the
// clause.
func ClauseOf(asn *datalog.Assignment) Clause {
	var c Clause
	for i, tp := range asn.Tuples {
		id := tp.TID
		if asn.Rule.Body[i].Delta {
			if !slices.Contains(c.Neg, id) {
				c.Neg = append(c.Neg, id)
			}
		} else if !slices.Contains(c.Pos, id) {
			c.Pos = append(c.Pos, id)
		}
	}
	return c
}

// NegatedClause appends the CNF clause of Algorithm 1 for asn to lits and
// returns the grown slice: the provenance (t₁ ∧ … ∧ ¬d₁ ∧ …) negates to
// (x_t₁ ∨ … ∨ ¬x_d₁ ∨ …), where x_t means "t is deleted" and varFor maps a
// tuple to its SAT variable. Positive atoms come before delta atoms, each
// in body order, so a varFor that numbers tuples on first sight numbers
// them as ClauseOf lists them. Repeated literals are left for the clause
// store to drop.
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

// appendID appends one TupleID as 8 little-endian bytes.
func appendID(buf []byte, id engine.TupleID) []byte {
	return append(buf,
		byte(id), byte(id>>8), byte(id>>16), byte(id>>24),
		byte(id>>32), byte(id>>40), byte(id>>48), byte(id>>56))
}

// appendSig appends the canonical dedup key "head | clause content" to
// buf: the head ID, sorted Pos IDs, a separator, sorted Neg IDs, each ID
// as 8 little-endian bytes. scratch is reused for sorting the ID runs;
// both grown slices are returned so callers can recycle them — dedup
// lookups run once per enumerated assignment, so the key must not allocate
// on the hit path.
func appendSig(buf []byte, scratch []engine.TupleID, head engine.TupleID, c Clause) ([]byte, []engine.TupleID) {
	buf = appendID(buf, head)
	appendIDs := func(ids []engine.TupleID) {
		scratch = append(scratch[:0], ids...)
		slices.Sort(scratch)
		for _, id := range scratch {
			buf = appendID(buf, id)
		}
	}
	appendIDs(c.Pos)
	// Single-byte Pos/Neg separator. Re-parsing ambiguity would need an
	// ID whose encoding straddles the separator position, i.e. an ID of
	// at least 0xfe<<56 — unreachable for the sequential intern counter.
	buf = append(buf, 0xfe)
	appendIDs(c.Neg)
	return buf, scratch
}

// String renders the clause as a conjunction of tuple IDs, e.g.
// "t3 ∧ ¬t7" (debugging; resolve IDs through the database for readable
// content keys).
func (c Clause) String() string {
	var parts []string
	for _, id := range c.Pos {
		parts = append(parts, fmt.Sprintf("t%d", id))
	}
	for _, id := range c.Neg {
		parts = append(parts, fmt.Sprintf("¬t%d", id))
	}
	return strings.Join(parts, " ∧ ")
}
