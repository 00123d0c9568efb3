package core_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datalog"
	"repro/internal/engine"
	"repro/internal/mas"
	"repro/internal/programs"
	"repro/internal/tpch"
	"repro/internal/viz"
)

// stepFingerprint pins one Algorithm 2 run: the number of deleted tuples, a
// hash of their content keys in deletion order, the traversal's layer
// count and the number of distinct assignments in the provenance graph.
type stepFingerprint struct {
	size        int
	deleted     string
	rounds      int
	assignments int
}

func goldenHash(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:8])
}

// stepGolden pins Algorithm 2 on the running example, TPC-H T-1..T-6
// (scale 0.01) and MAS 1..20 (scale 0.02): the greedy order depends on
// head derivation order, layers and benefits, so any drift in the
// provenance graph shows up here.
var stepGolden = map[string]stepFingerprint{
	"running":                 {5, "32bc1e7a819e9df1", 4, 8},
	"running-predeleted-head": {4, "94af2f54729d450c", 3, 7},
	"tpch-1":                  {628, "3901ac84d23613ce", 2, 41550},
	"tpch-2":                  {628, "3901ac84d23613ce", 2, 41550},
	"tpch-3":                  {628, "3901ac84d23613ce", 2, 41550},
	"tpch-4":                  {37, "4703f10d62ee5804", 2, 84},
	"tpch-5":                  {6, "2d1a99486c0cf682", 2, 751},
	"tpch-6":                  {655, "eeaeff2e9a163551", 2, 41582},
	"mas-1":                   {68, "6bc02a8d39ba47ac", 1, 68},
	"mas-2":                   {67, "e6e48a5ad8189896", 1, 67},
	"mas-3":                   {1, "9f0d839485a3eeca", 1, 134},
	"mas-4":                   {1, "d80394716ae28563", 1, 48},
	"mas-5":                   {68, "6bc02a8d39ba47ac", 2, 68},
	"mas-6":                   {68, "6bc02a8d39ba47ac", 3, 135},
	"mas-7":                   {7, "802b7cafc9f23088", 2, 7},
	"mas-8":                   {68, "eecd0cdbe78529d1", 2, 268},
	"mas-9":                   {140, "a6621b5d42c37959", 4, 140},
	"mas-10":                  {145, "2de6417db1c77758", 4, 145},
	"mas-11":                  {168, "2213bda1f8a63616", 1, 168},
	"mas-12":                  {168, "2213bda1f8a63616", 1, 168},
	"mas-13":                  {119, "57f172eda5e9a11c", 1, 228},
	"mas-14":                  {119, "57f172eda5e9a11c", 1, 228},
	"mas-15":                  {119, "57f172eda5e9a11c", 1, 228},
	"mas-16":                  {1, "d80394716ae28563", 1, 1},
	"mas-17":                  {25, "20a0bd24dab44c6d", 2, 25},
	"mas-18":                  {85, "d90b83e2679a75d2", 3, 85},
	"mas-19":                  {145, "2de6417db1c77758", 4, 145},
	"mas-20":                  {154, "7989a73c96d0fcae", 5, 154},
}

type goldenInstance struct {
	name string
	db   *engine.Database
	p    *datalog.Program
}

func stepGoldenInstances(t *testing.T) []goldenInstance {
	t.Helper()
	re, err := programs.RunningExampleProgram()
	if err != nil {
		t.Fatal(err)
	}
	cases := []goldenInstance{{"running", programs.RunningExampleDB(), re}}
	// A pre-existing deletion (§3.6) of a tuple the run would otherwise
	// derive at layer 2.
	pre := programs.RunningExampleDB()
	pre.DeleteTupleToDelta(pre.Lookup(`Author(i4,"Marge")`))
	cases = append(cases, goldenInstance{"running-predeleted-head", pre, re})
	tds := tpch.Generate(tpch.Config{Scale: 0.01, Seed: 1})
	for n := 1; n <= 6; n++ {
		p, err := programs.TPCH(n, tds)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, goldenInstance{fmt.Sprintf("tpch-%d", n), tds.DB, p})
	}
	mds := mas.Generate(mas.Config{Scale: 0.02, Seed: 1})
	for n := 1; n <= 20; n++ {
		p, err := programs.MAS(n, mds)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, goldenInstance{fmt.Sprintf("mas-%d", n), mds.DB, p})
	}
	return cases
}

func TestStepGreedyGolden(t *testing.T) {
	for _, c := range stepGoldenInstances(t) {
		res, _, err := core.RunStepGreedy(c.db, c.p)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		var keys strings.Builder
		for _, tp := range res.Deleted {
			keys.WriteString(tp.Key())
			keys.WriteByte(0)
		}
		got := stepFingerprint{res.Size(), goldenHash(keys.String()), res.Rounds, res.GraphAssignments}
		if want, ok := stepGolden[c.name]; !ok || got != want {
			t.Errorf("%s: step fingerprint %#v, want %#v\n\t%q: {%d, %q, %d, %d},",
				c.name, got, want, c.name, got.size, got.deleted, got.rounds, got.assignments)
		}
	}
}

// explainGolden is the Explainer's rendering of every tuple end semantics
// deletes on the running example, in deletion order.
const explainGolden = `Grant(i2,"ERC") deleted (layer 1)
Author(i4,"Marge") deleted (layer 2) with AuthGrant(i4,i2) present
  after:
    Grant(i2,"ERC") deleted (layer 1)
Author(i5,"Homer") deleted (layer 2) with AuthGrant(i5,i2) present
  after:
    Grant(i2,"ERC") deleted (layer 1)
Cite(i7,i6) deleted (layer 4) with Writes(i4,i6), Writes(i5,i7) present
  after:
    Pub(i6,"x") deleted (layer 3) with Writes(i4,i6) present
      after:
        Author(i4,"Marge") deleted (layer 2) with AuthGrant(i4,i2) present
          after:
            Grant(i2,"ERC") deleted (layer 1)
Writes(i4,i6) deleted (layer 3) with Pub(i6,"x") present
  after:
    Author(i4,"Marge") deleted (layer 2) with AuthGrant(i4,i2) present
      after:
        Grant(i2,"ERC") deleted (layer 1)
Writes(i5,i7) deleted (layer 3) with Pub(i7,"y") present
  after:
    Author(i5,"Homer") deleted (layer 2) with AuthGrant(i5,i2) present
      after:
        Grant(i2,"ERC") deleted (layer 1)
Pub(i6,"x") deleted (layer 3) with Writes(i4,i6) present
  after:
    Author(i4,"Marge") deleted (layer 2) with AuthGrant(i4,i2) present
      after:
        Grant(i2,"ERC") deleted (layer 1)
Pub(i7,"y") deleted (layer 3) with Writes(i5,i7) present
  after:
    Author(i5,"Homer") deleted (layer 2) with AuthGrant(i5,i2) present
      after:
        Grant(i2,"ERC") deleted (layer 1)
`

func TestExplainerGolden(t *testing.T) {
	db := programs.RunningExampleDB()
	p, err := programs.RunningExampleProgram()
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := core.RunEnd(db, p)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := core.NewExplainer(db, p)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, re := range ex.ExplainResult(res) {
		if re.Explanation == nil {
			t.Fatalf("%s has no explanation", re.Tuple.Key())
		}
		b.WriteString(re.Explanation.String())
	}
	if got := b.String(); got != explainGolden {
		t.Errorf("explanations drifted:\n%s\nwant:\n%s", got, explainGolden)
	}
}

// provenanceDOTGolden is a hash of the running example's provenance graph
// rendered as DOT (node order, benefits and edge order included).
const provenanceDOTGolden = "e3d4043b4e854d4a"

func TestProvenanceDOTGolden(t *testing.T) {
	db := programs.RunningExampleDB()
	p, err := programs.RunningExampleProgram()
	if err != nil {
		t.Fatal(err)
	}
	g, err := core.CaptureProvenance(db, p)
	if err != nil {
		t.Fatal(err)
	}
	dot := viz.ProvenanceDOT(g, db.DisplayKey)
	if got := goldenHash(dot); got != provenanceDOTGolden {
		t.Errorf("provenance DOT hash %q, want %q:\n%s", got, provenanceDOTGolden, dot)
	}
}
