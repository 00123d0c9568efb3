package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
)

// The serving workloads drive server.Open + Service.Handler() over a
// loopback listener with the deltarepaird flag defaults: 30 s request
// timeout, MaxInFlight 2×GOMAXPROCS, sequential evaluation, the solver's
// default budget, and (with a data dir) fsync per append and compaction
// every 64 batches.
const serveTimeout = 30 * time.Second

// datasetSeed generates every workload's datasets. Like the paper's
// datasets they are fixed instances; --seed drives what the callers send
// (program order, request draws, update batches). Datasets drawn per seed
// made sweep times and the heaviest reads, and with them every tail
// figure, depend on the draw by up to a quarter rather than on the code.
const datasetSeed = 1

// The read kinds: /repair under each semantics, /is-stable, /repairs with
// k=8, and /query.
var readKinds = []string{
	"repair_independent", "repair_step", "repair_stage", "repair_end",
	"is_stable", "repairs", "query",
}

// minReads is the read count each client of a serving phase collects
// before it stops: with at least 1000 samples, 10 lie beyond the 99th
// percentile.
const minReads = 1000

// settle is the lead-in of every serving phase whose requests are sent and
// checked but not measured: fresh WAL files, heap growth and connection
// set-up otherwise make the first seconds of a phase slower than the rest.
const settle = 2 * time.Second

// rateBlock is the number of completions per throughput block.
const rateBlock = 256

// tracedHandler wraps Service.Handler() with the benchmark's only
// server-side span. The tracer is nil outside traced phases.
type tracedHandler struct {
	h  http.Handler
	tr atomic.Pointer[tracer]
}

func (t *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tr := t.tr.Load()
	if tr == nil {
		t.h.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	t.h.ServeHTTP(w, r)
	tr.span(r.Header.Get(requestIDHeader), "server.handler", "client", start, time.Now())
}

// liveServer is a Service listening on a loopback port.
type liveServer struct {
	svc     *server.Service
	handler *tracedHandler
	srv     *http.Server
	base    string
	served  chan error
	admin   *http.Client // scrapes and checks; not part of the load
}

func startServer(cfg server.Config) (*liveServer, error) {
	cfg.DefaultTimeout = serveTimeout
	svc, err := server.Open(cfg)
	if err != nil {
		return nil, fmt.Errorf("opening service: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = svc.Close()
		return nil, fmt.Errorf("listening: %w", err)
	}
	ls := &liveServer{
		svc:     svc,
		handler: &tracedHandler{h: svc.Handler()},
		base:    "http://" + ln.Addr().String(),
		served:  make(chan error, 1),
		admin:   newClientHTTP(),
	}
	ls.srv = &http.Server{Handler: ls.handler, ReadHeaderTimeout: 10 * time.Second}
	go func() { ls.served <- ls.srv.Serve(ln) }()
	return ls, nil
}

// stop shuts the listener down, waits for the serve loop, and closes the
// service (flushing WALs).
func (ls *liveServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := ls.srv.Shutdown(ctx)
	if serr := <-ls.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	ls.admin.CloseIdleConnections()
	if cerr := ls.svc.Close(); err == nil {
		err = cerr
	}
	return err
}

// newClientHTTP is one client's HTTP stack: a single keep-alive
// connection, no compression.
func newClientHTTP() *http.Client {
	return &http.Client{
		Timeout: serveTimeout + 5*time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// reqRecord is what a client keeps about one request. The response
// fields are read in traced phases only.
type reqRecord struct {
	id        string
	kind      string
	write     bool
	rtt       time.Duration
	end       time.Time
	respBytes int
	elapsedUS int64 // -1 when untraced or the response carries none
	size      int   // deleted tuples of a /repair answer
	rounds    int
	optimal   bool
	ok        bool
}

// opRecord is one iteration of a client's closed loop: the requests from
// its first request's start to its last one's end.
type opRecord struct {
	dur time.Duration
	end time.Time
	ok  bool
}

// client is one closed-loop load generator.
type client struct {
	idx   int
	hc    *http.Client
	base  string
	tr    *tracer
	n     int
	recs  []reqRecord
	ops   []opRecord
	wrong []string
}

func newClient(idx int, base string, tr *tracer) *client {
	return &client{idx: idx, hc: newClientHTTP(), base: base, tr: tr}
}

// post sends one request and returns the status and body. Transport
// errors come back as status 0.
func (c *client) post(kind, path string, body []byte, write bool) (int, []byte) {
	req, err := http.NewRequest(http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, []byte(err.Error())
	}
	req.Header.Set("Content-Type", "application/json")
	var id string
	if c.tr != nil {
		c.n++
		id = kind + "/" + strconv.Itoa(c.idx) + "/" + strconv.Itoa(c.n)
		req.Header.Set(requestIDHeader, id)
	}
	start := time.Now()
	status, out := 0, []byte(nil)
	resp, err := c.hc.Do(req)
	if err == nil {
		out, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		status = resp.StatusCode
	}
	end := time.Now()
	if err != nil {
		status, out = 0, []byte(err.Error())
	}
	rec := reqRecord{id: id, kind: kind, write: write, rtt: end.Sub(start), end: end,
		respBytes: len(out), elapsedUS: -1, ok: status == http.StatusOK}
	if c.tr != nil {
		c.tr.span(id, "client", "", start, end)
		if v, ok := jsonInt(out, "elapsed_us"); ok {
			rec.elapsedUS = v
		}
		if strings.HasPrefix(kind, "repair_") {
			size, _ := jsonInt(out, "size")
			rounds, _ := jsonInt(out, "rounds")
			rec.size, rec.rounds = int(size), int(rounds)
			rec.optimal = bytes.Contains(out, []byte(`"optimal": true`))
		}
	}
	c.recs = append(c.recs, rec)
	return status, out
}

// op closes one loop iteration made of the requests recorded since
// recs[from]; it failed if any of them did.
func (c *client) op(from int) {
	if from >= len(c.recs) {
		return
	}
	first, last := c.recs[from], c.recs[len(c.recs)-1]
	o := opRecord{dur: last.end.Sub(first.end.Add(-first.rtt)), end: last.end, ok: true}
	for _, r := range c.recs[from:] {
		o.ok = o.ok && r.ok
	}
	c.ops = append(c.ops, o)
}

// fail marks the last request failed and records why.
func (c *client) fail(format string, args ...any) {
	c.recs[len(c.recs)-1].ok = false
	if len(c.wrong) < 5 {
		c.wrong = append(c.wrong, fmt.Sprintf(format, args...))
	}
}

// checkVersion fails the last request unless it returned 200 and echoed
// the wanted version.
func (c *client) checkVersion(kind string, status int, body []byte, want uint64) bool {
	if status != http.StatusOK {
		c.fail("%s: status %d: %.200s", kind, status, body)
		return false
	}
	if v, ok := jsonInt(body, "version"); !ok || uint64(v) != want {
		c.fail("%s: echoed version %d, pinned %d", kind, v, want)
		return false
	}
	return true
}

// jsonInt finds the first top-level-style `"field": <int>` in an indented
// JSON body without decoding it.
func jsonInt(body []byte, field string) (int64, bool) {
	i := bytes.Index(body, []byte(`"`+field+`": `))
	if i < 0 {
		return 0, false
	}
	rest := body[i+len(field)+4:]
	j := 0
	for j < len(rest) && (rest[j] == '-' || rest[j] >= '0' && rest[j] <= '9') {
		j++
	}
	v, err := strconv.ParseInt(string(rest[:j]), 10, 64)
	return v, err == nil
}

// digest hashes a response body minus its elapsed_us line, the only field
// that legitimately varies between replays of one answer.
func digest(body []byte) uint64 {
	h := fnv.New64a()
	if i := bytes.Index(body, []byte(`"elapsed_us": `)); i >= 0 {
		j := bytes.IndexByte(body[i:], '\n')
		if j < 0 {
			j = len(body) - i
		}
		h.Write(body[:i])
		h.Write(body[i+j:])
	} else {
		h.Write(body)
	}
	return h.Sum64()
}

// readBody builds the request body of one read kind, optionally pinned.
func readBody(kind, query string, version uint64) (path string, body []byte) {
	m := map[string]any{}
	if version > 0 {
		m["version"] = version
	}
	switch kind {
	case "is_stable":
		path = "/is-stable"
	case "repairs":
		path = "/repairs"
		m["k"] = 8
	case "query":
		path = "/query"
		m["k"] = 8
		m["query"] = query
	default:
		path = "/repair"
		m["semantics"] = strings.TrimPrefix(kind, "repair_")
	}
	body, _ = json.Marshal(m) // maps of scalars always marshal
	return path, body
}

// runClients runs fn on n client goroutines until every one returns.
func runClients(clients []*client, fn func(c *client)) {
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			fn(c)
		}(c)
	}
	wg.Wait()
}

// runtimeCounters samples the process-wide allocation and GC CPU totals.
type runtimeCounters struct {
	allocBytes uint64
	gcCPU      float64
}

func readRuntime() runtimeCounters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(s)
	rc := runtimeCounters{}
	if s[0].Value.Kind() == metrics.KindUint64 {
		rc.allocBytes = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		rc.gcCPU = s[1].Value.Float64()
	}
	return rc
}

// stopper ends a serving phase: after the measured duration once every
// client completed at least minReads measured reads, and in any case
// after hardStop, which leaves a short run time enough to reach minReads.
type stopper struct {
	start, deadline, hardStop time.Time
	reads                     []atomic.Int64 // per client
}

func newStopper(start time.Time, d time.Duration, nClients int) *stopper {
	return &stopper{start: start, deadline: start.Add(d), hardStop: start.Add(3*d + 30*time.Second),
		reads: make([]atomic.Int64, nClients)}
}

// read counts a read of client c that completed now, unless it belongs to
// the settle lead-in.
func (s *stopper) read(c *client) {
	if time.Now().After(s.start) {
		s.reads[c.idx].Add(1)
	}
}

func (s *stopper) done() bool {
	now := time.Now()
	if now.After(s.hardStop) {
		return true
	}
	if !now.After(s.deadline) {
		return false
	}
	for i := range s.reads {
		if s.reads[i].Load() < minReads {
			return false
		}
	}
	return true
}

// servePhase is one measured phase of a serving workload: the clients,
// how long they ran, and the server- and runtime-side counters around it.
type servePhase struct {
	clients  []*client
	start    time.Time
	wall     time.Duration
	loops    []time.Duration // per-client loop wall time
	promDiff promSample
	rt0, rt1 runtimeCounters
	tr       *tracer
}

// measureServe runs loop on every client from a common start until the
// stopper fires, scraping /metrics and runtime counters around the phase.
func (ls *liveServer) measureServe(nClients int, d time.Duration, tr *tracer, loop func(c *client, st *stopper)) (*servePhase, error) {
	ph := &servePhase{tr: tr, loops: make([]time.Duration, nClients)}
	for i := 0; i < nClients; i++ {
		ph.clients = append(ph.clients, newClient(i, ls.base+"/v1/sessions/", tr))
	}
	before, err := scrape(ls.admin, ls.base)
	if err != nil {
		return nil, err
	}
	ls.handler.tr.Store(tr)
	runtime.GC()
	ph.rt0 = readRuntime()
	ph.start = time.Now().Add(settle)
	st := newStopper(ph.start, d, nClients)
	runClients(ph.clients, func(c *client) {
		t0 := time.Now()
		loop(c, st)
		ph.loops[c.idx] = time.Since(t0)
	})
	ph.wall = time.Since(ph.start)
	ph.rt1 = readRuntime()
	ls.handler.tr.Store(nil)
	for _, c := range ph.clients {
		c.hc.CloseIdleConnections()
	}
	after, err := scrape(ls.admin, ls.base)
	if err != nil {
		return nil, err
	}
	ph.promDiff = after.delta(before)
	return ph, nil
}

// latencies returns per client the round trips in ms of the measured
// requests whose kind keep accepts; failed requests count as +Inf, so
// they miss every latency limit.
func (ph *servePhase) latencies(keep func(kind string) bool) [][]float64 {
	out := make([][]float64, len(ph.clients))
	for i, c := range ph.clients {
		for _, r := range c.recs {
			if !keep(r.kind) || r.end.Before(ph.start) {
				continue
			}
			if r.ok {
				out[i] = append(out[i], ms(r.rtt))
			} else {
				out[i] = append(out[i], math.Inf(1))
			}
		}
	}
	return out
}

// clientPercentile is the mean over the clients of each one's p-th
// percentile. The clients of serve_churn own sessions of different cost
// and run at different rates; a percentile of their pooled samples would
// follow the ratio of their sample counts, not the code.
func clientPercentile(perClient [][]float64, p float64) float64 {
	sum := 0.0
	for _, xs := range perClient {
		sum += percentile(xs, p)
	}
	return sum / float64(len(perClient))
}

// result turns the phase into end-to-end metrics and, when traced,
// per-layer metrics. kinds lists the request kinds the workload sends.
func (ph *servePhase) result(kinds []string) *phaseResult {
	out := &phaseResult{e2e: map[string]float64{}, layers: map[string]float64{}}
	var done []time.Duration
	opLat := make([][]float64, len(ph.clients))
	ops := 0
	for i, c := range ph.clients {
		for _, r := range c.recs {
			out.attempted++
			if !r.ok {
				out.failed++
			}
		}
		for _, o := range c.ops {
			ops++
			if o.end.Before(ph.start) {
				continue
			}
			if o.ok {
				done = append(done, o.end.Sub(ph.start))
				opLat[i] = append(opLat[i], ms(o.dur))
			} else {
				opLat[i] = append(opLat[i], math.Inf(1))
			}
		}
		if n := len(opLat[i]); n < minReads || beyond(n, 99) < minTail {
			out.wrong = append(out.wrong, fmt.Sprintf("client %d: only %d ops, too few for a 99th percentile", i, n))
		}
		out.wrong = append(out.wrong, c.wrong...)
	}
	out.e2e["throughput_ops_s"] = blockRate(done, rateBlock)
	out.e2e["op_p50_ms"] = clientPercentile(opLat, 50)
	out.e2e["op_p99_ms"] = clientPercentile(opLat, 99)
	for _, sm := range semMetrics {
		want := map[string]bool{}
		for _, s := range sm.sems {
			want["repair_"+s] = true
		}
		out.e2e[sm.metric] = clientPercentile(ph.latencies(func(k string) bool { return want[k] }), 50)
	}
	if ph.tr == nil {
		return out
	}
	L := out.layers

	// Per-kind client-side numbers.
	type acc struct {
		n, nEl, optimal  int
		bytes, elapsedUS float64
		size, rounds     float64
	}
	byKind := map[string]*acc{}
	elapsedByID := map[string]int64{}
	var selfLoop time.Duration
	for i, c := range ph.clients {
		var busy time.Duration
		for _, r := range c.recs {
			a := byKind[r.kind]
			if a == nil {
				a = &acc{}
				byKind[r.kind] = a
			}
			a.n++
			a.bytes += float64(r.respBytes)
			a.size += float64(r.size)
			a.rounds += float64(r.rounds)
			if r.optimal {
				a.optimal++
			}
			if r.elapsedUS >= 0 {
				a.nEl++
				a.elapsedUS += float64(r.elapsedUS)
				elapsedByID[r.id] = r.elapsedUS
			}
			busy += r.rtt
		}
		selfLoop += ph.loops[i] - busy
	}
	L["client.self_ms"] = ms(selfLoop) / float64(ops)

	// Server spans, plus the reported executor time as their children.
	spans := ph.tr.snapshot()
	handlerSum := map[string]time.Duration{}
	handlerN := map[string]int{}
	execSum := map[string]time.Duration{}
	var handlerAll, execAll time.Duration
	for _, s := range spans {
		slash := strings.IndexByte(s.ID, '/')
		if s.Name != "server.handler" || slash < 0 {
			continue
		}
		kind := s.ID[:slash]
		handlerSum[kind] += s.dur()
		handlerN[kind]++
		handlerAll += s.dur()
		if el, ok := elapsedByID[s.ID]; ok {
			// A reported duration longer than the measured handler span
			// (a cached repair space replays its enumeration time) is
			// clipped to the span.
			d := min(time.Duration(el)*time.Microsecond, s.dur())
			ph.tr.add(Span{ID: s.ID, Name: "core.exec", Parent: "server.handler",
				Start: s.Start, End: s.Start + int64(d), Reported: true})
			execSum[kind] += d
			execAll += d
		}
	}
	for _, k := range kinds {
		if handlerN[k] > 0 {
			L["server.handler_ms."+k] = ms(handlerSum[k]) / float64(handlerN[k])
		}
		if a := byKind[k]; a != nil {
			L["http.resp_kb."+k] = a.bytes / 1024 / float64(a.n)
		}
	}
	if a := byKind["repairs"]; a != nil && a.nEl > 0 {
		L["core.exec_ms.repairs"] = a.elapsedUS / 1000 / float64(a.nEl)
	}
	for _, s := range semNames {
		k := "repair_" + s
		a := byKind[k]
		if a == nil || a.nEl == 0 || handlerN[k] == 0 {
			continue
		}
		L["core.exec_ms."+s] = a.elapsedUS / 1000 / float64(a.nEl)
		L["core.deleted."+s] = a.size / float64(a.n)
		L["entry.unattributed_ms."+s] = ms(handlerSum[k]-execSum[k]) / float64(handlerN[k])
		switch s {
		case "stage", "end":
			L["datalog.rounds."+s] = a.rounds / float64(a.n)
		case "independent":
			L["sat.optimal_ratio"] = float64(a.optimal) / float64(a.n)
		}
	}
	nHandled := 0
	for _, n := range handlerN {
		nHandled += n
	}
	service, _ := ph.promDiff.histMean("deltarepaird_request_seconds")
	serviceMS := service * 1000
	L["server.service_ms"] = serviceMS
	if nHandled > 0 {
		L["server.overhead_ms"] = serviceMS - ms(execAll)/float64(nHandled)
		L["http.codec_ms"] = ms(handlerAll)/float64(nHandled) - serviceMS
	}
	L["go.alloc_kb_per_op"] = float64(ph.rt1.allocBytes-ph.rt0.allocBytes) / 1024 / float64(ops)
	L["go.gc_cpu_ms_per_op"] = (ph.rt1.gcCPU - ph.rt0.gcCPU) * 1000 / float64(ops)

	self, _ := selfByName(ph.tr.snapshot())
	L["self_ms.client"] = ms(self["client"]) / float64(ops)
	L["self_ms.entry"] = ms(self["server.handler"]) / float64(ops)
	L["self_ms.core"] = ms(self["core.exec"]) / float64(ops)
	return out
}
