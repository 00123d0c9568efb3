package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/datalog"
	"repro/internal/engine"
	"repro/internal/mas"
	"repro/internal/programs"
	"repro/internal/sat"
	"repro/internal/tpch"
)

// cnfFingerprint pins Algorithm 1's compiled CNF: variable count, a hash of
// the DIMACS rendering (clause order and literal order included), a hash of
// the var→TupleID numbering, a hash of the solver's tie preference, and the
// solver's node count on it.
type cnfFingerprint struct {
	vars   int
	dimacs string
	ids    string
	prefer string
	nodes  int64
}

func shortHash(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

func fingerprintCNF(t *testing.T, db *engine.Database, p *datalog.Program) cnfFingerprint {
	t.Helper()
	prep, err := datalog.Prepare(p, db.Schema)
	if err != nil {
		t.Fatal(err)
	}
	opts := IndependentOptions{}
	ic, err := buildIndependentCNF(nil, db, prep, opts)
	if err != nil {
		t.Fatal(err)
	}
	// TupleIDs come from a process-wide intern counter, so the numbering is
	// pinned through the content keys of the tuples the IDs name.
	var idBytes []byte
	for _, id := range ic.ids {
		tp := db.LookupID(id)
		if tp == nil {
			t.Fatalf("CNF variable names unknown tuple t%d", id)
		}
		idBytes = append(append(idBytes, tp.Key()...), 0)
	}
	var preferBytes []byte
	for _, v := range ic.prefer {
		preferBytes = append(append(preferBytes, db.LookupID(ic.ids[v-1]).Key()...), 0)
	}
	fp := cnfFingerprint{
		vars:   ic.cnf.NumVars(),
		dimacs: shortHash([]byte(ic.cnf.DIMACS())),
		ids:    shortHash(idBytes),
		prefer: shortHash(preferBytes),
	}
	fp.nodes = sat.MinOnes(ic.cnf, ic.satOptions(nil, opts)).Nodes
	return fp
}

// cnfGolden pins each instance's CNF exactly: variable numbering and clause
// order steer the solver's tie-breaking, so any drift here can change which
// of several minimum repairs is returned.
var cnfGolden = map[string]cnfFingerprint{
	"running":                 {13, "31016614206f348e", "e80f93a763106a66", "7868159bd7b8693c", 13},
	"running-predeleted":      {8, "1f45f7cd28833384", "8c9593a880b75c68", "fc6d2bae50ff0ef2", 3},
	"running-predeleted-head": {12, "eeef00b4e11767d9", "41fb9098052a45af", "3cd08c3f5848b423", 5},
	"tpch-1":                  {2941, "f13079eb5a85a5ee", "0cac7d660125aa7f", "c57aea8391781dc0", 1},
	"tpch-2":                  {2940, "c4db643ef2a9569e", "fd13fa3bc731c053", "c57aea8391781dc0", 1},
	"tpch-3":                  {2993, "05b5131c0718156c", "1cb0f5dfd5ff49bc", "c57aea8391781dc0", 1},
	"tpch-4":                  {3255, "9a62815982e1214a", "c5057161ab82d2a3", "1e182c59f3d0065b", 1},
	"tpch-5":                  {81, "e4ec76388b4c7f40", "6b9121fde78da992", "7744c7a7cd4cae8d", 1},
	"tpch-6":                  {3580, "334b29969b02adc0", "567f06c31a4a1c95", "15318c818b30680e", 204},
	"mas-1":                   {68, "e441b1b6a932f468", "6bc02a8d39ba47ac", "6bc02a8d39ba47ac", 1},
	"mas-2":                   {68, "b3730c44692968c9", "ca2dc9359eda509a", "e6e48a5ad8189896", 1},
	"mas-3":                   {68, "b3730c44692968c9", "ca2dc9359eda509a", "6bc02a8d39ba47ac", 1},
	"mas-4":                   {25, "baf41c15fa1cb261", "20a0bd24dab44c6d", "1725f2d3bcbc74fe", 1},
	"mas-5":                   {1442, "4c7ff63d8e2177f8", "9abce49deec495fb", "3d6585f7a7261cf9", 1},
	"mas-6":                   {2021, "2bcace94db11a204", "b4bf06724c547662", "6ea54f282523a07c", 1},
	"mas-7":                   {426, "5d32c46e5cb847f1", "5fb3504d61ce7087", "beb01b7ad4f272be", 1},
	"mas-8":                   {2021, "43396978e4b4153b", "63f67bad8e76d7ab", "b38673dd5cd096cf", 3},
	"mas-9":                   {2122, "5dbc6d66cf229213", "6a470d8455427e2b", "f769e83dfe0ba537", 1},
	"mas-10":                  {2091, "c679372085075126", "c6c498dcb7e8e786", "9f6aaa27f3414e64", 1},
	"mas-11":                  {168, "97dd7ab14878cf83", "2213bda1f8a63616", "2213bda1f8a63616", 1},
	"mas-12":                  {319, "ea6fccaeb9a7069e", "0a840781cbda46ab", "2213bda1f8a63616", 1},
	"mas-13":                  {435, "188ed73bd51ac16f", "ccfe58b95a942457", "57f172eda5e9a11c", 1},
	"mas-14":                  {571, "a322d9ad3bb5c0d2", "dd68d0cebe4c6668", "57f172eda5e9a11c", 124249},
	"mas-15":                  {583, "b853717b7720ba94", "a11efed4fd3cadb4", "57f172eda5e9a11c", 1},
	"mas-16":                  {1, "6642f3ff4fae6f86", "d80394716ae28563", "d80394716ae28563", 1},
	"mas-17":                  {412, "3b4a1e8aa7f5eee3", "4722a100672d30ea", "1725f2d3bcbc74fe", 1},
	"mas-18":                  {1512, "21bfb5a19d4b1365", "4a53deb41f338da8", "5ff33f9b226c8f32", 1},
	"mas-19":                  {2091, "c679372085075126", "c6c498dcb7e8e786", "9f6aaa27f3414e64", 1},
	"mas-20":                  {2301, "f129691d2652017e", "32075cdbb1a196f0", "6245383a4664796d", 1},
}

// TestIndependentCNFGolden checks Algorithm 1's CNF byte for byte on the
// running example, TPC-H T-1..T-6 (scale 0.01) and MAS 1..20 (scale 0.02).
func TestIndependentCNFGolden(t *testing.T) {
	type instance struct {
		name string
		db   *engine.Database
		p    *datalog.Program
	}
	var cases []instance
	re, err := programs.RunningExampleProgram()
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, instance{"running", programs.RunningExampleDB(), re})
	// Pre-existing deletions (§3.6) add forced unit clauses.
	pre := programs.RunningExampleDB()
	for _, rel := range []string{"AuthGrant", "Writes"} {
		tuples := pre.Relation(rel).Tuples()
		pre.DeleteTupleToDelta(tuples[len(tuples)-1])
	}
	cases = append(cases, instance{"running-predeleted", pre, re})
	// A pre-existing deletion of a tuple end semantics would otherwise
	// derive (Author a2, layer 2 on the unmodified instance).
	preHead := programs.RunningExampleDB()
	preHead.DeleteTupleToDelta(preHead.Lookup(`Author(i4,"Marge")`))
	cases = append(cases, instance{"running-predeleted-head", preHead, re})
	tds := tpch.Generate(tpch.Config{Scale: 0.01, Seed: 1})
	for n := 1; n <= 6; n++ {
		p, err := programs.TPCH(n, tds)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, instance{fmt.Sprintf("tpch-%d", n), tds.DB, p})
	}
	mds := mas.Generate(mas.Config{Scale: 0.02, Seed: 1})
	for n := 1; n <= 20; n++ {
		p, err := programs.MAS(n, mds)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, instance{fmt.Sprintf("mas-%d", n), mds.DB, p})
	}
	for _, c := range cases {
		got := fingerprintCNF(t, c.db, c.p)
		if want, ok := cnfGolden[c.name]; !ok || got != want {
			t.Errorf("%s: CNF fingerprint %#v, want %#v\n\t%q: {%d, %q, %q, %q, %d},",
				c.name, got, want, c.name, got.vars, got.dimacs, got.ids, got.prefer, got.nodes)
		}
	}
}

// TestFormulaClausesCountsSolverClauses: Result.FormulaClauses (and
// RepairSpace.FormulaClauses) is the number of distinct clauses the solver
// is handed, and MaxClauses caps exactly that count.
func TestFormulaClausesCountsSolverClauses(t *testing.T) {
	db := programs.RunningExampleDB()
	p, err := programs.RunningExampleProgram()
	if err != nil {
		t.Fatal(err)
	}
	prep, err := datalog.Prepare(p, db.Schema)
	if err != nil {
		t.Fatal(err)
	}
	ic, err := buildIndependentCNF(nil, db, prep, IndependentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	n := ic.cnf.NumClauses()
	res, _, err := RunIndependent(db, p, IndependentOptions{MaxClauses: n})
	if err != nil {
		t.Fatalf("cap at the clause count: %v", err)
	}
	if res.FormulaClauses != n {
		t.Fatalf("FormulaClauses = %d, NumClauses = %d", res.FormulaClauses, n)
	}
	if _, _, err := RunIndependent(db, p, IndependentOptions{MaxClauses: n - 1}); err == nil {
		t.Fatal("cap one below the clause count should error")
	}
	space, err := EnumerateRepairs(db, p, 4)
	if err != nil {
		t.Fatal(err)
	}
	if space.FormulaClauses != n || space.Repairs[0].FormulaClauses != n {
		t.Fatalf("RepairSpace.FormulaClauses = %d, first repair %d, want %d",
			space.FormulaClauses, space.Repairs[0].FormulaClauses, n)
	}
}
