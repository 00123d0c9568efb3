package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"time"

	deltarepair "repro"
	"repro/internal/engine"
	"repro/internal/server"
)

// The serving workloads' sessions, their registration, and the output
// check that compares served repairs with the library's.

// sessionSpec is one session's registration.
type sessionSpec struct {
	name    string
	schema  *engine.Schema
	program string
	query   string
	rows    []engine.Row // registration order: schema order, then row order
}

// specFromDB captures db's live rows in the order a registration inserts
// them. The generated datasets hold ints and strings only, which survive
// the JSON API unchanged.
func specFromDB(name string, db *engine.Database, program, query string) *sessionSpec {
	sp := &sessionSpec{name: name, schema: db.Schema, program: program, query: query}
	for _, rs := range db.Schema.Relations {
		for _, t := range db.Relation(rs.Name).Tuples() {
			sp.rows = append(sp.rows, engine.Row{Rel: rs.Name, Vals: t.Vals})
		}
	}
	return sp
}

func jsonScalar(v engine.Value) any {
	switch v.Kind {
	case engine.KindInt:
		return v.Int
	case engine.KindFloat:
		return v.Flt
	default:
		return v.Str
	}
}

// jsonRows groups rows per relation as the API's tuple maps.
func jsonRows(rows []engine.Row) map[string][][]any {
	out := make(map[string][][]any)
	for _, r := range rows {
		vals := make([]any, len(r.Vals))
		for i, v := range r.Vals {
			vals[i] = jsonScalar(v)
		}
		out[r.Rel] = append(out[r.Rel], vals)
	}
	return out
}

func (sp *sessionSpec) registerBody() ([]byte, error) {
	return json.Marshal(server.RegisterRequest{
		Name:    sp.name,
		Schema:  sp.schema.String(),
		Program: sp.program,
		Tuples:  jsonRows(sp.rows),
	})
}

// register posts the session to the server.
func (ls *liveServer) register(sp *sessionSpec) error {
	body, err := sp.registerBody()
	if err != nil {
		return err
	}
	resp, err := ls.admin.Post(ls.base+"/v1/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("registering %s: %w", sp.name, err)
	}
	out, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("registering %s: status %d: %s", sp.name, resp.StatusCode, out)
	}
	return nil
}

// servedRepair fetches one repair through the admin client and returns its
// deleted keys and version.
func (ls *liveServer) servedRepair(name string, sem deltarepair.Semantics, version uint64) ([]string, uint64, error) {
	path, body := readBody("repair_"+sem.String(), "", version)
	resp, err := ls.admin.Post(ls.base+"/v1/sessions/"+name+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	var out server.RepairResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, 0, fmt.Errorf("%s %s: decoding: %w", name, sem, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("%s %s: status %d", name, sem, resp.StatusCode)
	}
	return out.Deleted, out.Version, nil
}

// libraryRepairs rebuilds a database from rows and repairs it under all
// four semantics through the facade, with the server's defaults. It
// returns the deleted keys per semantics and the Prepare time.
func libraryRepairs(schema *engine.Schema, rows []engine.Row, program string) (map[deltarepair.Semantics][]string, time.Duration, error) {
	db := deltarepair.NewDatabase(schema)
	for _, r := range rows {
		if _, err := db.Insert(r.Rel, r.Vals...); err != nil {
			return nil, 0, err
		}
	}
	prog, err := deltarepair.ParseProgram(program, schema)
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	pp, err := deltarepair.Prepare(prog, schema)
	prep := time.Since(t0)
	if err != nil {
		return nil, 0, err
	}
	snap := db.Freeze()
	out := make(map[deltarepair.Semantics][]string, 4)
	for _, sem := range deltarepair.AllSemantics {
		res, _, err := pp.Repair(snap.Fork(), sem)
		if err != nil {
			return nil, 0, fmt.Errorf("library %s: %w", sem, err)
		}
		out[sem] = res.Keys()
	}
	return out, prep, nil
}

func sameKeys(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	a, b = append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(a)
	sort.Strings(b)
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// crossCheck compares a session's served repairs with the library's
// repairs of the benchmark's own model of its rows: requests are pinned
// to pin (0 = head) and must echo version want.
func (ls *liveServer) crossCheck(sp *sessionSpec, rows []engine.Row, pin, want uint64) (time.Duration, error) {
	lib, prep, err := libraryRepairs(sp.schema, rows, sp.program)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", sp.name, err)
	}
	for _, sem := range deltarepair.AllSemantics {
		got, v, err := ls.servedRepair(sp.name, sem, pin)
		if err != nil {
			return prep, err
		}
		if v != want {
			return prep, fmt.Errorf("%s %s: served version %d, want %d", sp.name, sem, v, want)
		}
		if !sameKeys(got, lib[sem]) {
			return prep, fmt.Errorf("%s %s at version %d: served %d deleted tuples, library %d, sets differ",
				sp.name, sem, want, len(got), len(lib[sem]))
		}
	}
	return prep, nil
}
