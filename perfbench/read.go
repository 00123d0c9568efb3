package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"time"

	"repro/internal/mas"
	"repro/internal/programs"
	"repro/internal/server"
	"repro/internal/tpch"
)

// serve_read registers the 26 paper programs as sessions (TPC-H at 0.005,
// MAS at 0.02) and has two clients draw (session, read kind) from the
// seed. The head version never changes, so after warm-up every request
// is a cache hit, a replay, or a CQA evaluation over a cached space.
const (
	readTPCHScale = 0.005
	readMASScale  = 0.02
	readClients   = 2
)

// The consistent-query-answering query of each dataset.
const (
	tpchQuery = "Q(ok, ck) :- Orders(ok, ck, price)."
	masQuery  = "Q(aid, pid) :- Writes(aid, pid), Author(aid, n, oid)."
)

type readWorkload struct {
	seed   int64
	specs  []*sessionSpec
	ls     *liveServer
	expect map[[2]int]uint64 // (session, kind) -> response digest
}

func (w *readWorkload) setupReps() int { return 3 }

// paperSessions builds the 26 session specs.
func paperSessions(tpchScale, masScale float64) ([]*sessionSpec, error) {
	td := tpch.Generate(tpch.Config{Scale: tpchScale, Seed: datasetSeed})
	md := mas.Generate(mas.Config{Scale: masScale, Seed: datasetSeed})
	var specs []*sessionSpec
	for n := 1; n <= 6; n++ {
		src, err := programs.TPCHSource(n, td)
		if err != nil {
			return nil, err
		}
		specs = append(specs, specFromDB(fmt.Sprintf("tpch-%d", n), td.DB, src, tpchQuery))
	}
	for n := 1; n <= 20; n++ {
		src, err := programs.MASSource(n, md)
		if err != nil {
			return nil, err
		}
		specs = append(specs, specFromDB(fmt.Sprintf("mas-%d", n), md.DB, src, masQuery))
	}
	return specs, nil
}

func (w *readWorkload) setup(seed int64) error {
	if err := w.close(); err != nil {
		return err
	}
	w.seed = seed
	specs, err := paperSessions(readTPCHScale, readMASScale)
	if err != nil {
		return err
	}
	w.specs = specs
	if w.ls, err = startServer(server.Config{}); err != nil {
		return err
	}
	for _, sp := range w.specs {
		if err := w.ls.register(sp); err != nil {
			return err
		}
	}
	// Warm-up: every (session, kind) once, sessions split between the two
	// clients, which fills the result, stability and space caches. The
	// answers become the expected digests of the measured phase.
	w.expect = make(map[[2]int]uint64)
	clients := []*client{newClient(0, w.ls.base+"/v1/sessions/", nil), newClient(1, w.ls.base+"/v1/sessions/", nil)}
	digests := make([]map[[2]int]uint64, len(clients))
	runClients(clients, func(c *client) {
		digests[c.idx] = map[[2]int]uint64{}
		for si := c.idx; si < len(w.specs); si += len(clients) {
			for ki, kind := range readKinds {
				path, body := readBody(kind, w.specs[si].query, 0)
				status, out := c.post(kind, w.specs[si].name+path, body, false)
				if c.checkVersion(kind, status, out, 1) {
					digests[c.idx][[2]int{si, ki}] = digest(out)
				}
			}
		}
		c.hc.CloseIdleConnections()
	})
	for _, c := range clients {
		if len(c.wrong) > 0 {
			return fmt.Errorf("warm-up: %s", c.wrong[0])
		}
	}
	for _, d := range digests {
		for k, v := range d {
			w.expect[k] = v
		}
	}
	return nil
}

// readGen draws one client's (session, kind) request stream from the seed.
type readGen struct {
	rng   *rand.Rand
	specs []*sessionSpec
}

func newReadGen(seed int64, clientIdx int, specs []*sessionSpec) *readGen {
	return &readGen{rng: rand.New(rand.NewSource(seed*7919 + int64(clientIdx))), specs: specs}
}

func (g *readGen) next() (si, ki int, path string, body []byte) {
	si = g.rng.Intn(len(g.specs))
	ki = g.rng.Intn(len(readKinds))
	path, body = readBody(readKinds[ki], g.specs[si].query, 0)
	return si, ki, g.specs[si].name + path, body
}

func (w *readWorkload) measure(d time.Duration, tr *tracer) (*phaseResult, error) {
	ph, err := w.ls.measureServe(readClients, d, tr, func(c *client, st *stopper) {
		g := newReadGen(w.seed, c.idx, w.specs)
		for !st.done() {
			si, ki, path, body := g.next()
			kind := readKinds[ki]
			from := len(c.recs)
			status, out := c.post(kind, path, body, false)
			st.read(c)
			switch {
			case status != http.StatusOK:
				c.fail("%s %s: status %d: %.200s", w.specs[si].name, kind, status, out)
			case digest(out) != w.expect[[2]int{si, ki}]:
				c.fail("%s %s: answer differs from the warm-up answer", w.specs[si].name, kind)
			}
			c.op(from)
		}
	})
	if err != nil {
		return nil, err
	}
	res := ph.result(readKinds)
	if tr != nil {
		res.layers["cqa.answer_ms"] = res.layers["server.handler_ms.query"]
	}
	return res, nil
}

// verify repairs every session from scratch through the library on a
// database rebuilt from the registered rows and compares the deleted sets
// with the served ones under all four semantics.
func (w *readWorkload) verify(layers map[string]float64) ([]string, error) {
	var bad []string
	var prep time.Duration
	for _, sp := range w.specs {
		p, err := w.ls.crossCheck(sp, sp.rows, 1, 1)
		if err != nil {
			bad = append(bad, err.Error())
		}
		prep += p
	}
	layers["datalog.prepare_ms"] = ms(prep)
	return bad, nil
}

func (w *readWorkload) stamp() (string, string) { return "none (in-memory sessions)", "." }

func (w *readWorkload) close() error {
	if w.ls == nil {
		return nil
	}
	err := w.ls.stop()
	w.ls = nil
	return err
}
