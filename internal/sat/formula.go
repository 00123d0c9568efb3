// Package sat implements a deterministic Min-Ones-SAT solver: given a CNF
// formula, find a satisfying assignment mapping the minimum number of
// variables to true.
//
// The paper's Algorithm 1 negates the provenance formula of all possible
// delta tuples and feeds it to the Z3 optimizing SMT solver; this package is
// the offline substitution. It is exact when the branch-and-bound search
// completes within its node budget; when the budget runs out it returns the
// best satisfying assignment found so far (which still yields a stabilizing
// set, per the paper's remark that any satisfying assignment stabilizes the
// database).
package sat

import (
	"fmt"
	"slices"
	"strings"
)

// Formula is a CNF formula over variables 1..NumVars, stored flat: every
// clause's literals sit back to back in one []int32, and clause i is
// lits[off[i]:off[i+1]]. Create it with NewFormula. Literals are signed
// integers: +v means "v is true", -v means "v is false". Duplicate clauses
// are stored once (delta-rule provenance frequently derives the same CNF
// clause from several rules or symmetric join orders); the dedup is an
// open-addressing table over clause indexes that hashes the stored literals
// in place, so adding a clause allocates nothing beyond amortized growth of
// the store.
type Formula struct {
	numVars int
	lits    []int32
	off     []int32 // clause offsets into lits; len is NumClauses()+1
	slots   []int32 // dedup table: clause index+1, 0 = empty; len is a power of two
}

// NewFormula creates a formula over numVars variables.
func NewFormula(numVars int) *Formula {
	return &Formula{numVars: numVars, off: []int32{0}}
}

// NumVars returns the number of variables.
func (f *Formula) NumVars() int { return f.numVars }

// NumClauses returns the number of stored clauses (tautologies and
// duplicates are dropped at AddClause time).
func (f *Formula) NumClauses() int { return len(f.off) - 1 }

// AddVar adds a fresh variable and returns its 1-based index.
func (f *Formula) AddVar() int {
	f.numVars++
	return f.numVars
}

// Clause returns the i-th stored clause, literals in ascending order
// (a view into the store; do not mutate).
func (f *Formula) Clause(i int) []int32 { return f.lits[f.off[i]:f.off[i+1]] }

// AddClause adds a disjunction of literals. The stored clause is sorted
// and free of duplicate literals; tautological clauses (v ∨ ¬v) and
// clauses already stored are dropped. An empty clause makes the formula
// unsatisfiable and is stored as such.
func (f *Formula) AddClause(lits ...int) error {
	start := len(f.lits)
	for _, l := range lits {
		if l == 0 || l > f.numVars || -l > f.numVars {
			f.lits = f.lits[:start]
			return fmt.Errorf("sat: literal %d out of range (numVars=%d)", l, f.numVars)
		}
		f.lits = append(f.lits, int32(l))
	}
	// Canonicalize in place at the tail of the store: sort, drop repeated
	// literals, then reject tautologies by merging the negative prefix
	// (magnitudes ascending when read backwards) against the positive
	// suffix.
	c := f.lits[start:]
	slices.Sort(c)
	c = slices.Compact(c)
	f.lits = f.lits[:start+len(c)]
	pos, _ := slices.BinarySearch(c, 0)
	for i, j := pos-1, pos; i >= 0 && j < len(c); {
		switch {
		case -c[i] == c[j]:
			f.lits = f.lits[:start]
			return nil // tautology: always satisfied
		case -c[i] < c[j]:
			i--
		default:
			j++
		}
	}
	if len(f.off) > len(f.slots)/2 {
		f.grow()
	}
	mask := len(f.slots) - 1
	for s := int(hashLits(c)) & mask; ; s = (s + 1) & mask {
		ci := f.slots[s]
		if ci == 0 {
			f.off = append(f.off, int32(len(f.lits)))
			f.slots[s] = int32(f.NumClauses())
			return nil
		}
		if slices.Equal(f.Clause(int(ci-1)), c) {
			f.lits = f.lits[:start]
			return nil // duplicate clause
		}
	}
}

// grow doubles the dedup table and re-inserts every stored clause.
func (f *Formula) grow() {
	n := 16
	for n < 4*len(f.off) {
		n *= 2
	}
	f.slots = make([]int32, n)
	mask := n - 1
	for ci := range f.NumClauses() {
		s := int(hashLits(f.Clause(ci))) & mask
		for f.slots[s] != 0 {
			s = (s + 1) & mask
		}
		f.slots[s] = int32(ci + 1)
	}
}

// hashLits mixes a sorted literal slice into a 64-bit hash.
func hashLits(lits []int32) uint64 {
	h := uint64(14695981039346656037)
	for _, l := range lits {
		h = (h ^ uint64(uint32(l))) * 1099511628211
	}
	return h ^ h>>29
}

// Eval reports whether the assignment (1-based; assignment[v] is v's value)
// satisfies every clause.
func (f *Formula) Eval(assignment []bool) bool {
	for ci := range f.NumClauses() {
		ok := false
		for _, l := range f.Clause(ci) {
			if l > 0 && assignment[l] || l < 0 && !assignment[-l] {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// CountOnes returns the number of true variables in the assignment.
func CountOnes(assignment []bool) int {
	n := 0
	for _, b := range assignment {
		if b {
			n++
		}
	}
	return n
}

// DIMACS renders the formula in DIMACS CNF format (for debugging and for
// feeding external solvers).
func (f *Formula) DIMACS() string {
	var b strings.Builder
	fmt.Fprintf(&b, "p cnf %d %d\n", f.numVars, f.NumClauses())
	for ci := range f.NumClauses() {
		for _, l := range f.Clause(ci) {
			fmt.Fprintf(&b, "%d ", l)
		}
		b.WriteString("0\n")
	}
	return b.String()
}
