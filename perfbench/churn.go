package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/engine"
	"repro/internal/mas"
	"repro/internal/programs"
	"repro/internal/server"
)

// serve_churn: a durable data dir with fsync on and two clients, each
// owning one MAS-0.02 session — program 20 (5-rule cascade) or program 13
// (4-way join). Each iteration posts one seeded update batch and then one
// read pinned to the version the update returned, rotating over the read
// kinds, so every read misses the per-version caches.
const churnMASScale = 0.02

var churnPrograms = []int{20, 13}

// model is the benchmark's own record of a session's live base rows in
// the order the engine holds them: registration order, deletions removed,
// effective insertions appended. Rebuilding a database from it reproduces
// the served tuple order, so order-sensitive semantics (step's greedy
// traversal, the solver's tie-breaking) must give the same answers.
type model struct {
	rows  []engine.Row
	live  []bool
	index map[string]int // content key -> index of its live row
}

func newModel(rows []engine.Row) *model {
	m := &model{index: map[string]int{}}
	for _, r := range rows {
		m.insert(r)
	}
	return m
}

func (m *model) has(r engine.Row) bool {
	_, ok := m.index[engine.ContentKey(r.Rel, r.Vals)]
	return ok
}

func (m *model) insert(r engine.Row) {
	k := engine.ContentKey(r.Rel, r.Vals)
	if _, ok := m.index[k]; ok {
		return
	}
	m.index[k] = len(m.rows)
	m.rows = append(m.rows, r)
	m.live = append(m.live, true)
}

func (m *model) delete(r engine.Row) {
	k := engine.ContentKey(r.Rel, r.Vals)
	if i, ok := m.index[k]; ok {
		delete(m.index, k)
		m.live[i] = false
	}
}

// apply mirrors Snapshot.Apply behind the update endpoint: deletes, then
// inserts, each in relation-name order and row order within a relation.
func (m *model) apply(ins, del []engine.Row) {
	for _, r := range byRelation(del) {
		m.delete(r)
	}
	for _, r := range byRelation(ins) {
		m.insert(r)
	}
}

func byRelation(rows []engine.Row) []engine.Row {
	out := append([]engine.Row(nil), rows...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Rel < out[j].Rel })
	return out
}

func (m *model) liveRows() []engine.Row {
	var out []engine.Row
	for i, r := range m.rows {
		if m.live[i] {
			out = append(out, r)
		}
	}
	return out
}

// updateGen draws one session's update stream. It toggles rows of a
// fixed pool — each batch deletes the live ones and inserts the absent ones
// among churnToggles pool rows drawn from the seed — so the instance stays
// the registered dataset plus or minus the pool, and the work per request
// stays stationary however long a run lasts. The pool, like the dataset,
// is fixed; it mixes registered rows with new ones, and most of it lies in
// the programs' join neighbourhoods: Writes rows of the hub organization's
// authors and new authors in it (the program 20 cascade), Cite and Writes
// rows over written publications (the program 13 join).
type updateGen struct {
	rng  *rand.Rand
	pool []engine.Row
}

const (
	churnPoolPart = 24 // rows per pool category
	churnToggles  = 4  // pool rows toggled per batch
)

func newUpdateGen(seed int64, clientIdx int, ds *mas.Dataset, rows []engine.Row) *updateGen {
	g := &updateGen{rng: rand.New(rand.NewSource(seed*104729 + int64(clientIdx)))}
	prng := rand.New(rand.NewSource(datasetSeed*104729 + int64(clientIdx)))
	byRel := map[string][]engine.Row{}
	var hubAuthors []int64
	for _, r := range rows {
		byRel[r.Rel] = append(byRel[r.Rel], r)
		if r.Rel == "Author" && r.Vals[2].Int == int64(ds.HubOrg) {
			hubAuthors = append(hubAuthors, r.Vals[0].Int)
		}
	}
	if len(hubAuthors) == 0 {
		hubAuthors = []int64{1}
	}
	hub := map[int64]bool{}
	for _, a := range hubAuthors {
		hub[a] = true
	}
	var hubWrites []engine.Row
	for _, r := range byRel["Writes"] {
		if hub[r.Vals[0].Int] {
			hubWrites = append(hubWrites, r)
		}
	}
	sample := func(from []engine.Row) {
		for i := 0; i < churnPoolPart && len(from) > 0; i++ {
			g.pool = append(g.pool, from[prng.Intn(len(from))])
		}
	}
	sample(hubWrites)
	sample(byRel["Writes"])
	sample(byRel["Cite"])
	pub := func() engine.Value { return engine.Int(1 + prng.Intn(ds.NumPublications)) }
	for i := 0; i < churnPoolPart; i++ {
		aid := int64(ds.NumAuthors + 1 + i)
		g.pool = append(g.pool,
			engine.Row{Rel: "Author", Vals: []engine.Value{engine.Int64(aid), engine.Str(fmt.Sprintf("bench%d", aid)), engine.Int(ds.HubOrg)}},
			engine.Row{Rel: "Writes", Vals: []engine.Value{engine.Int64(aid), pub()}},
			engine.Row{Rel: "Writes", Vals: []engine.Value{engine.Int64(hubAuthors[prng.Intn(len(hubAuthors))]), pub()}},
			engine.Row{Rel: "Cite", Vals: []engine.Value{pub(), pub()}})
	}
	seen := map[string]bool{}
	pool := g.pool[:0]
	for _, r := range g.pool {
		if k := engine.ContentKey(r.Rel, r.Vals); !seen[k] {
			seen[k] = true
			pool = append(pool, r)
		}
	}
	g.pool = pool
	return g
}

// next draws the next batch against the session's current rows.
func (g *updateGen) next(m *model) (ins, del []engine.Row) {
	picked := map[int]bool{}
	for len(picked) < churnToggles {
		i := g.rng.Intn(len(g.pool))
		if picked[i] {
			continue
		}
		picked[i] = true
		if m.has(g.pool[i]) {
			del = append(del, g.pool[i])
		} else {
			ins = append(ins, g.pool[i])
		}
	}
	return ins, del
}

// updateBody is the /update request body of one batch.
func updateBody(ins, del []engine.Row) []byte {
	body, _ := json.Marshal(server.UpdateRequest{Inserts: jsonRows(ins), Deletes: jsonRows(del)})
	return body
}

type churnSession struct {
	spec    *sessionSpec
	model   *model
	gen     *updateGen
	version uint64
}

type churnWorkload struct {
	dir      string
	ls       *liveServer
	sessions []*churnSession
}

func (w *churnWorkload) setupReps() int { return 15 }

func (w *churnWorkload) setup(seed int64) error {
	if err := w.close(); err != nil {
		return err
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(".bench_build", "churn-data-")
	if err != nil {
		return err
	}
	w.dir = dir
	if w.ls, err = startServer(server.Config{DataDir: dir}); err != nil {
		return err
	}
	ds := mas.Generate(mas.Config{Scale: churnMASScale, Seed: datasetSeed})
	w.sessions = nil
	for ci, n := range churnPrograms {
		src, err := programs.MASSource(n, ds)
		if err != nil {
			return err
		}
		sp := specFromDB(fmt.Sprintf("churn-mas-%d", n), ds.DB, src, masQuery)
		if err := w.ls.register(sp); err != nil {
			return err
		}
		w.sessions = append(w.sessions, &churnSession{
			spec: sp, model: newModel(sp.rows), gen: newUpdateGen(seed, ci, ds, sp.rows), version: 1,
		})
	}
	// Warm-up: each client reads every kind once at version 1.
	clients := []*client{newClient(0, w.ls.base+"/v1/sessions/", nil), newClient(1, w.ls.base+"/v1/sessions/", nil)}
	runClients(clients, func(c *client) {
		s := w.sessions[c.idx]
		for _, kind := range readKinds {
			path, body := readBody(kind, s.spec.query, 1)
			status, out := c.post(kind, s.spec.name+path, body, false)
			c.checkVersion(kind, status, out, 1)
		}
		c.hc.CloseIdleConnections()
	})
	for _, c := range clients {
		if len(c.wrong) > 0 {
			return fmt.Errorf("warm-up: %s", c.wrong[0])
		}
	}
	return nil
}

func (w *churnWorkload) measure(d time.Duration, tr *tracer) (*phaseResult, error) {
	ph, err := w.ls.measureServe(len(w.sessions), d, tr, func(c *client, st *stopper) {
		s := w.sessions[c.idx]
		for k := 0; !st.done(); k++ {
			ins, del := s.gen.next(s.model)
			from := len(c.recs)
			status, out := c.post("update", s.spec.name+"/update", updateBody(ins, del), true)
			if !c.checkVersion("update", status, out, s.version+1) {
				c.op(from)
				return // the session's state is unknown now; the final check reports it
			}
			s.model.apply(ins, del)
			s.version++
			kind := readKinds[k%len(readKinds)]
			path, body := readBody(kind, s.spec.query, s.version)
			status, out = c.post(kind, s.spec.name+path, body, false)
			st.read(c)
			c.checkVersion(kind, status, out, s.version)
			c.op(from)
		}
	})
	if err != nil {
		return nil, err
	}
	res := ph.result(append(append([]string(nil), readKinds...), "update"))
	if tr != nil {
		L := res.layers
		walS, n := ph.promDiff.histMean("deltarepaird_wal_append_seconds")
		L["durability.wal_append_ms"] = walS * 1000
		L["durability.wal_appends"] = n
		L["durability.compactions"] = ph.promDiff["deltarepaird_snapshot_compactions_total"]
		L["engine.apply_ms"] = L["server.handler_ms.update"] - walS*1000
		writes := ph.latencies(func(k string) bool { return k == "update" })
		L["durability.write_p50_ms"] = clientPercentile(writes, 50)
		L["durability.write_p99_ms"] = clientPercentile(writes, 99)
	}
	return res, nil
}

// verify checks each session's head against the library on the model's
// rows, then closes the service, reopens it on the same data dir, and
// checks that every session recovers at its last acknowledged version
// with the same repairs.
func (w *churnWorkload) verify(layers map[string]float64) ([]string, error) {
	var bad []string
	var prep time.Duration
	for _, s := range w.sessions {
		p, err := w.ls.crossCheck(s.spec, s.model.liveRows(), s.version, s.version)
		if err != nil {
			bad = append(bad, err.Error())
		}
		prep += p
	}
	err := w.ls.stop()
	w.ls = nil
	if err != nil {
		return nil, fmt.Errorf("closing service: %w", err)
	}
	if w.ls, err = startServer(server.Config{DataDir: w.dir}); err != nil {
		return nil, fmt.Errorf("reopening service: %w", err)
	}
	for _, s := range w.sessions {
		if _, err := w.ls.crossCheck(s.spec, s.model.liveRows(), 0, s.version); err != nil {
			bad = append(bad, "after recovery: "+err.Error())
		}
	}
	after, err := scrape(w.ls.admin, w.ls.base)
	if err != nil {
		return nil, err
	}
	layers["datalog.prepare_ms"] = ms(prep)
	layers["durability.recovery_ms"] = after["deltarepaird_recovery_seconds_sum"] * 1000
	return bad, nil
}

func (w *churnWorkload) stamp() (string, string) {
	return "always (fsync per WAL append)", filepath.Dir(w.dir)
}

func (w *churnWorkload) close() error {
	var err error
	if w.ls != nil {
		err = w.ls.stop()
		w.ls = nil
	}
	if w.dir != "" {
		if rerr := os.RemoveAll(w.dir); err == nil {
			err = rerr
		}
		w.dir = ""
	}
	return err
}
