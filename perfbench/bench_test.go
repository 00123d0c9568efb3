package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/mas"
	"repro/internal/server"
)

func TestPercentileRule(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[100-1-i] = float64(i + 1) // unsorted on purpose
	}
	for _, c := range []struct{ p, want float64 }{{1, 1}, {50, 50}, {99, 99}, {100, 100}} {
		if got := percentile(append([]float64(nil), xs...), c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{3, math.Inf(1), 1}, 50); got != 3 {
		t.Errorf("p50 with a failed sample = %v, want 3", got)
	}
	// A reported p99 needs at least ten samples beyond it: 1000 do, 999 not.
	if beyond(1000, 99) != minTail || beyond(999, 99) >= minTail {
		t.Errorf("beyond(1000,99)=%d beyond(999,99)=%d", beyond(1000, 99), beyond(999, 99))
	}
	if beyond(minReads, 99) < minTail {
		t.Errorf("minReads=%d leaves %d samples beyond p99", minReads, beyond(minReads, 99))
	}

	// Per-client percentiles are averaged, so the clients' sample counts
	// do not weigh in: 3 samples of 1 and 1 sample of 9 give (1+9)/2.
	if got := clientPercentile([][]float64{{1, 1, 1}, {9}}, 50); got != 5 {
		t.Errorf("clientPercentile = %v, want 5", got)
	}

	ends := make([]time.Duration, 0, 1025)
	for i := 0; i <= 1024; i++ {
		ends = append(ends, time.Duration(i)*time.Millisecond)
	}
	if got := blockRate(ends, 256); math.Abs(got-1000) > 1e-9 {
		t.Errorf("rate = %v, want 1000/s", got)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []Span{
		{ID: "a", Name: "client", Start: 0, End: 100},
		{ID: "a", Name: "server.handler", Parent: "client", Start: 10, End: 30},
		{ID: "a", Name: "core.exec", Parent: "server.handler", Start: 12, End: 20, Reported: true},
		// Overlaps the handler: the union counts once.
		{ID: "a", Name: "other", Parent: "client", Start: 20, End: 50},
		// Partly outside the parent: clipped.
		{ID: "a", Name: "late", Parent: "client", Start: 90, End: 120},
		// Another request's child never counts.
		{ID: "b", Name: "server.handler", Parent: "client", Start: 0, End: 100},
	}
	want := []time.Duration{50, 12, 8, 30, 30, 100}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d (%s/%s): self %v, want %v", i, spans[i].ID, spans[i].Name, got[i], want[i])
		}
	}
	sum, n := selfByName(spans)
	if sum["server.handler"] != 112 || n["server.handler"] != 2 {
		t.Errorf("server.handler self sum %v over %d spans, want 112 over 2", sum["server.handler"], n["server.handler"])
	}
}

func TestPromDeltaFromService(t *testing.T) {
	svc := server.New(server.Config{})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	c := ts.Client()
	reg, _ := json.Marshal(server.RegisterRequest{
		Name:    "t",
		Schema:  "R(a, b)\nS(b)",
		Program: "Delta_R(a, b) :- R(a, b), S(b).",
		Tuples:  map[string][][]any{"R": {{1, 2}, {3, 4}}, "S": {{2}}},
	})
	if resp, err := c.Post(ts.URL+"/v1/sessions", "application/json", bytes.NewReader(reg)); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
	before, err := scrape(c, ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		resp, err := c.Post(ts.URL+"/v1/sessions/t/repair", "application/json", strings.NewReader(`{"semantics":"end"}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	after, err := scrape(c, ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	d := after.delta(before)
	if got := d[`deltarepaird_requests_total{kind="repair",status="ok"}`]; got != 3 {
		t.Errorf("repair requests delta = %v, want 3", got)
	}
	mean, n := d.histMean("deltarepaird_request_seconds")
	if n != 3 || mean <= 0 {
		t.Errorf("request_seconds delta: mean %v over %v, want > 0 over 3", mean, n)
	}
	if after["deltarepaird_sessions"] != 1 {
		t.Errorf("sessions gauge = %v, want 1", after["deltarepaird_sessions"])
	}
	if _, err := parseProm(strings.NewReader("x_total notanumber\n")); err == nil {
		t.Error("malformed sample parsed without error")
	}
}

// TestStreamsDeterministic pins that a seed fixes the request and update
// streams byte for byte, and that clients and seeds get different ones.
func TestStreamsDeterministic(t *testing.T) {
	specs, err := paperSessions(readTPCHScale, readMASScale)
	if err != nil {
		t.Fatal(err)
	}
	readStream := func(seed int64, client int) []byte {
		var b bytes.Buffer
		g := newReadGen(seed, client, specs)
		for i := 0; i < 500; i++ {
			_, _, path, body := g.next()
			b.WriteString(path)
			b.Write(body)
			b.WriteByte('\n')
		}
		return b.Bytes()
	}
	if !bytes.Equal(readStream(5, 0), readStream(5, 0)) {
		t.Error("read stream differs for one seed")
	}
	if bytes.Equal(readStream(5, 0), readStream(5, 1)) || bytes.Equal(readStream(5, 0), readStream(6, 0)) {
		t.Error("read streams of different clients or seeds coincide")
	}

	updateStream := func(seed int64, client int) []byte {
		ds := mas.Generate(mas.Config{Scale: churnMASScale, Seed: datasetSeed})
		sp := specFromDB("s", ds.DB, "", "")
		m := newModel(sp.rows)
		g := newUpdateGen(seed, client, ds, sp.rows)
		var b bytes.Buffer
		for i := 0; i < 300; i++ {
			ins, del := g.next(m)
			b.Write(updateBody(ins, del))
			b.WriteByte('\n')
			m.apply(ins, del)
		}
		return b.Bytes()
	}
	if !bytes.Equal(updateStream(5, 0), updateStream(5, 0)) {
		t.Error("update stream differs for one seed")
	}
	if bytes.Equal(updateStream(5, 0), updateStream(5, 1)) || bytes.Equal(updateStream(5, 0), updateStream(6, 0)) {
		t.Error("update streams of different clients or seeds coincide")
	}
}

// TestBenchmarkJSONDeclares checks BENCHMARK.json against the code: the
// workloads, and every metric the workloads emit with its unit.
func TestBenchmarkJSONDeclares(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct {
		Name, Unit string
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []decl `json:"end_to_end"`
		PerLayer  []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, code has %d", len(bj.Workloads), len(workloads))
	}
	for _, w := range bj.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is not implemented", w.Name)
		}
	}
	for _, c := range []struct {
		traced bool
		decls  []decl
	}{{false, bj.EndToEnd}, {true, bj.PerLayer}} {
		emitted := declaredMetrics(c.traced)
		if len(emitted) != len(c.decls) {
			t.Errorf("traced=%v: code emits %d metrics, BENCHMARK.json declares %d", c.traced, len(emitted), len(c.decls))
		}
		units := map[string]string{}
		for _, d := range c.decls {
			units[d.Name] = d.Unit
		}
		for _, m := range emitted {
			if u, ok := units[m]; !ok {
				t.Errorf("undeclared metric %s", m)
			} else if u != metricUnits[m] {
				t.Errorf("%s: declared unit %q, emitted %q", m, u, metricUnits[m])
			}
		}
	}
}
