package core

import (
	"fmt"
	"testing"

	"repro/internal/datalog"
	"repro/internal/engine"
	"repro/internal/mas"
	"repro/internal/programs"
)

// assertIdentical fails unless the two results are the same set in the
// same deletion order — byte-identical repairs, not just set-equivalent.
func assertIdentical(t *testing.T, label string, sem Semantics, want, got *Result) {
	t.Helper()
	if !want.SameSet(got) {
		t.Fatalf("%s/%s: set %v != %v", label, sem, got.Keys(), want.Keys())
	}
	wk, gk := want.Keys(), got.Keys()
	for i := range wk {
		if wk[i] != gk[i] {
			t.Fatalf("%s/%s: deletion order diverges at %d: %v vs %v", label, sem, i, gk, wk)
		}
	}
	if want.Optimal != got.Optimal || want.Rounds != got.Rounds {
		t.Fatalf("%s/%s: diagnostics diverge: (optimal=%v rounds=%d) vs (optimal=%v rounds=%d)",
			label, sem, got.Optimal, got.Rounds, want.Optimal, want.Rounds)
	}
}

// TestPreparedRepeatedRunsShareState exercises the amortization path: many
// repeated repairs through one Prepared must keep producing identical
// results (pooled contexts and scratch relations must not leak state
// between runs).
func TestPreparedRepeatedRunsShareState(t *testing.T) {
	ds := mas.Generate(mas.Config{Scale: 0.01, Seed: 2})
	p, err := programs.MAS(10, ds)
	if err != nil {
		t.Fatal(err)
	}
	prep, err := datalog.Prepare(p, ds.DB.Schema)
	if err != nil {
		t.Fatal(err)
	}
	var first *Result
	for i := 0; i < 5; i++ {
		res, _, err := RunWith(ds.DB, p, SemStage, Options{Prepared: prep})
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = res
			continue
		}
		assertIdentical(t, fmt.Sprintf("run-%d", i), SemStage, first, res)
	}
}

// TestParallelIndependentWithStaleIndexes covers the pre-existing-deletion
// initialization (§3.6) over stale indexes: the caller's database already
// has lazily built indexes with stale buckets from earlier deletions, which
// lookups compact lazily; repeated runs over it must agree exactly.
func TestParallelIndependentWithStaleIndexes(t *testing.T) {
	db := programs.RunningExampleDB()
	p, err := programs.RunningExampleProgram()
	if err != nil {
		t.Fatal(err)
	}
	prep, err := datalog.Prepare(p, db.Schema)
	if err != nil {
		t.Fatal(err)
	}
	// Build indexes lazily via a stability probe, then delete tuples so the
	// built buckets go stale.
	if _, err := CheckStableP(nil, db, prep, nil); err != nil {
		t.Fatal(err)
	}
	for _, rel := range []string{"AuthGrant", "Writes"} {
		tuples := db.Relation(rel).Tuples()
		db.DeleteTupleToDelta(tuples[len(tuples)-1])
	}
	seq, _, err := RunWith(db, p, SemIndependent, Options{Prepared: prep})
	if err != nil {
		t.Fatal(err)
	}
	par, _, err := RunWith(db, p, SemIndependent, Options{Prepared: prep})
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, "stale-index", SemIndependent, seq, par)
}

// TestPreparedAcceptsStructurallyEqualSchema: a snapshot-restored database
// has a distinct but structurally equal schema object; prepared plans must
// keep working against it, while a genuinely different schema errors
// instead of panicking mid-derivation.
func TestPreparedSchemaCompatibility(t *testing.T) {
	ds := mas.Generate(mas.Config{Scale: 0.01, Seed: 1})
	p, err := programs.MAS(10, ds)
	if err != nil {
		t.Fatal(err)
	}
	prep, err := datalog.Prepare(p, ds.DB.Schema)
	if err != nil {
		t.Fatal(err)
	}
	// Different schema object, same structure (clone by re-declaring).
	clone := engine.NewSchema()
	for _, rs := range ds.DB.Schema.Relations {
		clone.MustAddRelation(rs.Name, rs.IDPrefix, rs.Attrs...)
	}
	db2 := engine.NewDatabase(clone)
	ds.DB.Relation(ds.DB.Schema.Relations[0].Name).Scan(func(tp *engine.Tuple) bool {
		db2.MustInsert(tp.Rel, tp.Vals...)
		return true
	})
	if _, _, err := RunWith(db2, p, SemStage, Options{Prepared: prep}); err != nil {
		t.Fatalf("structurally equal schema rejected: %v", err)
	}
	// Genuinely different schema: error, not panic.
	other := engine.NewSchema()
	other.MustAddRelation("Unrelated", "u", "a")
	db3 := engine.NewDatabase(other)
	if _, _, err := RunWith(db3, p, SemStage, Options{Prepared: prep}); err == nil {
		t.Fatal("mismatched schema accepted")
	}
}

// TestRunWithRejectsMismatchedPrepared guards the misuse path: a plan
// prepared from one program cannot silently execute another.
func TestRunWithRejectsMismatchedPrepared(t *testing.T) {
	ds := mas.Generate(mas.Config{Scale: 0.01, Seed: 1})
	p1, err := programs.MAS(1, ds)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := programs.MAS(2, ds)
	if err != nil {
		t.Fatal(err)
	}
	prep, err := datalog.Prepare(p1, ds.DB.Schema)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := RunWith(ds.DB, p2, SemEnd, Options{Prepared: prep}); err == nil {
		t.Fatal("mismatched prepared program accepted")
	}
}

// TestCheckStablePRejectsMismatchedSchema: the stability probe enforces
// the same schema-compatibility guard as the executors, on the full and
// the warm-hinted path alike.
func TestCheckStablePRejectsMismatchedSchema(t *testing.T) {
	ds := mas.Generate(mas.Config{Scale: 0.01, Seed: 1})
	p, err := programs.MAS(10, ds)
	if err != nil {
		t.Fatal(err)
	}
	prep, err := datalog.Prepare(p, ds.DB.Schema)
	if err != nil {
		t.Fatal(err)
	}
	other := engine.NewSchema()
	other.MustAddRelation("Unrelated", "u", "a")
	for _, w := range []*WarmStart{nil, {PrevStable: true, ChangedRels: []string{"Unrelated"}}} {
		if _, err := CheckStableP(nil, engine.NewDatabase(other), prep, w); err == nil {
			t.Fatalf("mismatched schema accepted by CheckStableP (warm hints %+v)", w)
		}
	}
	if stable, err := CheckStableP(nil, ds.DB, prep, nil); err != nil || stable {
		t.Fatalf("CheckStableP on matching schema = (%v, %v), want (false, nil)", stable, err)
	}
}
