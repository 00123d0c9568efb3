package sat

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// TestAddClauseCanonical: a stored clause is sorted and duplicate-free,
// literal order and repeats never make two clauses distinct, and a
// tautology is detected wherever its complementary pair sits.
func TestAddClauseCanonical(t *testing.T) {
	f := NewFormula(5)
	for _, c := range [][]int{{3, -1, 2}, {2, 3, -1}, {-1, -1, 3, 2, 3}} {
		if err := f.AddClause(c...); err != nil {
			t.Fatal(err)
		}
	}
	if f.NumClauses() != 1 || !slices.Equal(f.Clause(0), []int32{-1, 2, 3}) {
		t.Fatalf("stored %d clauses, first %v", f.NumClauses(), f.Clause(0))
	}
	for _, c := range [][]int{{-5, -2, 1, 5}, {-3, -1, 2, 4, 3}, {4, -4}, {-2, 1, 2}} {
		if err := f.AddClause(c...); err != nil {
			t.Fatal(err)
		}
		if f.NumClauses() != 1 {
			t.Fatalf("tautology %v stored", c)
		}
	}
	// Empty clauses dedup like any other.
	f.AddClause()
	f.AddClause()
	if f.NumClauses() != 2 || len(f.Clause(1)) != 0 {
		t.Fatalf("empty clause: %d clauses", f.NumClauses())
	}
	// A rejected literal leaves the store untouched.
	if err := f.AddClause(1, 9); err == nil || f.NumClauses() != 2 {
		t.Fatalf("out-of-range add: err=%v, %d clauses", err, f.NumClauses())
	}
}

// TestAddClauseMatchesReference checks the flat store against a map-based
// reference over many random clauses (exercising table growth): same
// clauses, same first-occurrence order.
func TestAddClauseMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := NewFormula(12)
	seen := map[string]bool{}
	var want [][]int32
	for i := 0; i < 5000; i++ {
		lits := make([]int, 1+rng.Intn(4))
		for j := range lits {
			lits[j] = rng.Intn(12) + 1
			if rng.Intn(2) == 0 {
				lits[j] = -lits[j]
			}
		}
		if err := f.AddClause(lits...); err != nil {
			t.Fatal(err)
		}
		c := make([]int32, 0, len(lits))
		taut := false
		for _, l := range lits {
			taut = taut || slices.Contains(lits, -l)
			if !slices.Contains(c, int32(l)) {
				c = append(c, int32(l))
			}
		}
		slices.Sort(c)
		if key := fmt.Sprint(c); !taut && !seen[key] {
			seen[key] = true
			want = append(want, c)
		}
	}
	if f.NumClauses() != len(want) {
		t.Fatalf("stored %d clauses, want %d", f.NumClauses(), len(want))
	}
	for i, c := range want {
		if !slices.Equal(f.Clause(i), c) {
			t.Fatalf("clause %d = %v, want %v", i, f.Clause(i), c)
		}
	}
}

// TestAddClauseNoAllocs: once the store has room, adding a clause — new,
// duplicate or tautological — allocates nothing.
func TestAddClauseNoAllocs(t *testing.T) {
	f := NewFormula(4)
	f.AddClause(1, -2)
	lits := []int{-2, 1, 1}
	taut := []int{3, -3}
	if n := testing.AllocsPerRun(100, func() {
		f.AddClause(lits...)
		f.AddClause(taut...)
	}); n != 0 {
		t.Fatalf("AddClause allocated %.1f times per duplicate/tautology", n)
	}
}
