package core

import (
	"strings"
	"testing"
	"testing/quick"
)

// TestRunAllParallelMatchesSequential: parallel execution yields exactly
// the sequential results (run with -race to exercise the concurrency).
func TestRunAllParallelMatchesSequential(t *testing.T) {
	db, p := academicDB(), academicProgram(t)
	seq, err := RunAll(db, p)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunAllParallel(db, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, sem := range AllSemantics {
		if !seq[sem].SameSet(par[sem]) {
			t.Fatalf("%s: parallel %v != sequential %v", sem, par[sem].Keys(), seq[sem].Keys())
		}
	}
	// The input database must be untouched by either path.
	if db.TotalTuples() != 13 || db.TotalDeltaTuples() != 0 {
		t.Fatal("input database mutated")
	}
}

// TestPropertyParallelDeterminism: random instances agree between parallel
// and sequential execution.
func TestPropertyParallelDeterminism(t *testing.T) {
	f := func(seed int64) bool {
		db, p, err := randomInstance(seed)
		if err != nil {
			return false
		}
		seq, err1 := RunAll(db, p)
		par, err2 := RunAllParallel(db, p)
		if err1 != nil || err2 != nil {
			t.Logf("seed %d: %v / %v", seed, err1, err2)
			return false
		}
		for _, sem := range AllSemantics {
			if !seq[sem].SameSet(par[sem]) {
				t.Logf("seed %d: %s differs", seed, sem)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestRunAllParallelRecoversPanic: a panic inside one semantics' goroutine
// comes back as an error naming that semantics instead of killing the
// process.
func TestRunAllParallelRecoversPanic(t *testing.T) {
	runAllParallelHook = func(sem Semantics) {
		if sem == SemStep {
			panic("injected fault")
		}
	}
	defer func() { runAllParallelHook = nil }()
	res, err := RunAllParallel(academicDB(), academicProgram(t))
	if err == nil {
		t.Fatalf("want an error, got results %v", res)
	}
	if msg := err.Error(); !strings.Contains(msg, "step semantics panicked") || !strings.Contains(msg, "injected fault") {
		t.Fatalf("error %q should name the semantics and the panic", msg)
	}
}
