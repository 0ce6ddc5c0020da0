package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/alert"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/report"
)

// fixtureTrace loads the committed trace fixture (shared with the codec
// and replay-determinism tests).
func fixtureTrace(t *testing.T) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "tracecodec", "testdata", "fixture.bbt1.gz"))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// newTestServer builds a started service over a temp data dir plus an
// httptest front end. mutate tweaks the server before Start.
func newTestServer(t *testing.T, mutate func(*Server)) (*Server, *httptest.Server) {
	t.Helper()
	h := harness.New()
	h.Scale = 128
	h.Accesses = 0 // whole trace
	h.Parallel = 2
	srv := &Server{
		Harness: h,
		DataDir: t.TempDir(),
		Obs:     &obs.Service{},
	}
	if mutate != nil {
		mutate(srv)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	return srv, ts
}

// submit POSTs a trace and decodes the JobStatus response.
func submit(t *testing.T, ts *httptest.Server, query string, trace []byte) (JobStatus, *http.Response) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs?"+query, "application/octet-stream", bytes.NewReader(trace))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	var st JobStatus
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatalf("bad status body %q: %v", body, err)
		}
	} else {
		st.Error = string(body)
	}
	return st, resp
}

// waitDone polls a job until it reaches a terminal state.
func waitDone(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		switch st.Status {
		case stateDone:
			return st
		case stateFailed:
			t.Fatalf("job %s failed: %s", id, st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after 60s", id, st.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// fetch downloads one result file.
func fetch(t *testing.T, ts *httptest.Server, id, name string) []byte {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/files/%s", ts.URL, id, name))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fetch %s: status %d", name, resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestJobLifecycle: submit -> poll -> fetch, with the returned run
// directory passing manifest verification — the same contract `bbreport
// verify` enforces on CLI-produced runs.
func TestJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t, nil)
	st, resp := submit(t, ts, "design=bumblebee&bench=fixture", fixtureTrace(t))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	if st.Status != stateQueued || st.Cached {
		t.Fatalf("submit = %+v, want fresh queued job", st)
	}
	final := waitDone(t, ts, st.ID)
	want := []string{"alerts.json", "manifest.json", "runs.csv", "service_trace.json", "session.json"}
	if len(final.Files) != len(want) {
		t.Fatalf("files = %v, want %v", final.Files, want)
	}
	for i, n := range want {
		if final.Files[i] != n {
			t.Fatalf("files = %v, want %v", final.Files, want)
		}
	}

	// Verify the fetched directory exactly as bbreport would.
	dir := t.TempDir()
	for _, n := range final.Files {
		if err := os.WriteFile(filepath.Join(dir, n), fetch(t, ts, st.ID, n), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	m, err := report.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if errs := m.Verify(dir); len(errs) != 0 {
		t.Fatalf("manifest verification failed: %v", errs)
	}
	if m.Tool != "bbserve" || m.Flags["design"] != "bumblebee" {
		t.Fatalf("manifest = %+v", m)
	}

	// The runs CSV must carry one row (one design) for the fixture.
	rows := bytes.Count(fetch(t, ts, st.ID, "runs.csv"), []byte("\n"))
	if rows != 2 { // header + bumblebee
		t.Fatalf("runs.csv has %d lines, want 2", rows)
	}
}

// TestCacheHitDeterminism: a second identical POST joins the finished
// job — no new simulation — and serves byte-identical results.
func TestCacheHitDeterminism(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	tr := fixtureTrace(t)
	st1, _ := submit(t, ts, "design=bumblebee&bench=fixture", tr)
	waitDone(t, ts, st1.ID)
	if got := srv.Simulations(); got != 1 {
		t.Fatalf("simulations after first job = %d, want 1", got)
	}
	first := map[string][]byte{}
	for _, n := range []string{"runs.csv", "manifest.json", "service_trace.json", "alerts.json"} {
		first[n] = fetch(t, ts, st1.ID, n)
	}

	st2, resp := submit(t, ts, "design=bumblebee&bench=fixture", tr)
	if resp.StatusCode != http.StatusOK || !st2.Cached {
		t.Fatalf("second submit = %d %+v, want 200 cached", resp.StatusCode, st2)
	}
	if st2.ID != st1.ID {
		t.Fatalf("cache returned job %s, want %s", st2.ID, st1.ID)
	}
	if st2.Status != stateDone {
		t.Fatalf("cached job status = %s, want done", st2.Status)
	}
	if got := srv.Simulations(); got != 1 {
		t.Fatalf("simulations after cached submit = %d, want 1 (must not re-simulate)", got)
	}
	for n, b := range first {
		if got := fetch(t, ts, st2.ID, n); !bytes.Equal(got, b) {
			t.Fatalf("%s differs between first and cached fetch", n)
		}
	}
	if snap := srv.Obs.Snapshot(); snap.CacheHits != 1 || snap.Done != 1 {
		t.Fatalf("service gauges = %+v, want 1 cache hit, 1 done", snap)
	}

	// A different config over the same trace bytes is a different job.
	st3, resp := submit(t, ts, "design=alloy&bench=fixture", tr)
	if resp.StatusCode != http.StatusAccepted || st3.ID == st1.ID {
		t.Fatalf("different design reused job: %d %+v", resp.StatusCode, st3)
	}
	waitDone(t, ts, st3.ID)
}

// TestBackpressure: with one parked worker and a one-deep queue, the
// third distinct job is refused with 429 + Retry-After, and the
// rejection is visible in the gauges; releasing the worker drains the
// backlog.
func TestBackpressure(t *testing.T) {
	hold := make(chan struct{})
	srv, ts := newTestServer(t, func(s *Server) {
		s.Workers = 1
		s.QueueDepth = 1
		s.holdJobs = hold
	})
	defer close(hold)

	traceN := func(n int) []byte {
		var buf bytes.Buffer
		fmt.Fprintf(&buf, "cycle, address, type\n%d, 0x40, 0\n%d, 0x80, 1\n", n, n+1)
		return buf.Bytes()
	}

	stA, _ := submit(t, ts, "design=bumblebee&bench=a", traceN(10))
	// Wait for the worker to take job A off the queue (it parks with the
	// job marked running), so the queue slot is free for B.
	deadline := time.Now().Add(10 * time.Second)
	for srv.Obs.Snapshot().Active != 1 {
		if time.Now().After(deadline) {
			t.Fatal("worker never took job A")
		}
		time.Sleep(time.Millisecond)
	}
	_, respB := submit(t, ts, "design=bumblebee&bench=b", traceN(20))
	if respB.StatusCode != http.StatusAccepted {
		t.Fatalf("job B status = %d, want 202 (queued)", respB.StatusCode)
	}
	stC, respC := submit(t, ts, "design=bumblebee&bench=c", traceN(30))
	if respC.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("job C status = %d, want 429", respC.StatusCode)
	}
	if ra := respC.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After")
	}
	if stC.Error == "" {
		t.Fatal("429 without a body explaining the refusal")
	}
	if snap := srv.Obs.Snapshot(); snap.Rejected != 1 {
		t.Fatalf("rejected gauge = %d, want 1", snap.Rejected)
	}

	// A duplicate of a queued job is a cache hit, not a rejection, even
	// with the queue full.
	dupe, respD := submit(t, ts, "design=bumblebee&bench=a", traceN(10))
	if respD.StatusCode != http.StatusOK || !dupe.Cached {
		t.Fatalf("duplicate submit = %d %+v, want 200 cached", respD.StatusCode, dupe)
	}

	hold <- struct{}{} // release job A
	hold <- struct{}{} // release job B
	waitDone(t, ts, stA.ID)
}

// TestDrainNoGoroutineLeak mirrors the runner's leak test: a server
// that accepted and ran jobs must return to the baseline goroutine
// count once drained, and refuse new work afterwards.
func TestDrainNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	h := harness.New()
	h.Scale = 128
	h.Parallel = 2
	srv := &Server{Harness: h, DataDir: t.TempDir(), Obs: &obs.Service{}}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	st, _ := submit(t, ts, "design=bumblebee&bench=fixture", fixtureTrace(t))
	waitDone(t, ts, st.ID)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	// Drain is idempotent.
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("second drain: %v", err)
	}

	// New submissions are refused once draining.
	_, resp := submit(t, ts, "design=bumblebee&bench=late", fixtureTrace(t))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain submit = %d, want 503", resp.StatusCode)
	}
	// Finished results remain fetchable while the process winds down.
	if b := fetch(t, ts, st.ID, "runs.csv"); len(b) == 0 {
		t.Fatal("post-drain fetch returned nothing")
	}

	ts.Close() // retire httptest's keep-alive goroutines before counting
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.Gosched()
		if g := runtime.NumGoroutine(); g <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after drain", before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestBadRequests: malformed submissions are refused up front.
func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, nil)
	cases := []struct {
		name, query string
		body        []byte
		want        int
	}{
		{"unknown design", "design=quux", []byte("1, 0x40, 0\n"), http.StatusBadRequest},
		{"bad bench label", "bench=../../etc", []byte("1, 0x40, 0\n"), http.StatusBadRequest},
		{"bad accesses", "accesses=many", []byte("1, 0x40, 0\n"), http.StatusBadRequest},
		{"empty body", "design=bumblebee", nil, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, resp := submit(t, ts, tc.query, tc.body)
			if resp.StatusCode != tc.want {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.want)
			}
		})
	}

	// Unknown job and path-escaping file names.
	resp, err := http.Get(ts.URL + "/v1/jobs/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job = %d, want 404", resp.StatusCode)
	}

	// A job that decodes to garbage fails rather than hanging: damaged
	// binary framing surfaces through the stream into the run.
	bad := fixtureTrace(t)
	bad = bad[:len(bad)-9] // torn gzip tail
	st, resp2 := submit(t, ts, "design=bumblebee&bench=torn", bad)
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("torn submit = %d, want 202 (damage surfaces at replay)", resp2.StatusCode)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		r, err := http.Get(ts.URL + "/v1/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		var js JobStatus
		if err := json.NewDecoder(r.Body).Decode(&js); err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if js.Status == stateFailed {
			break
		}
		if js.Status == stateDone {
			t.Fatal("torn trace replayed cleanly")
		}
		if time.Now().After(deadline) {
			t.Fatalf("torn-trace job still %s", js.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// readEvents consumes a job's SSE stream to completion and returns the
// event states in arrival order plus the decoded payloads.
func readEvents(t *testing.T, ts *httptest.Server, id string) ([]string, []ProgressEvent) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events status = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body) // the handler closes after the terminal event
	if err != nil {
		t.Fatal(err)
	}
	var states []string
	var events []ProgressEvent
	for _, line := range bytes.Split(body, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("event: ")); ok {
			states = append(states, string(rest))
		}
		if rest, ok := bytes.CutPrefix(line, []byte("data: ")); ok {
			var ev ProgressEvent
			if err := json.Unmarshal(rest, &ev); err != nil {
				t.Fatalf("bad event payload %q: %v", rest, err)
			}
			events = append(events, ev)
		}
	}
	return states, events
}

// TestEventsAndServiceTrace covers the tentpole end to end: the SSE
// stream replays an ordered queued → decoding → simulating → done
// sequence, the exported service_trace.json holds the full span tree
// under the job's correlation ID, session.json carries the job and
// idempotency identities, and the /metrics e2e histogram counted the
// job.
func TestEventsAndServiceTrace(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	req, err := http.NewRequest("POST", ts.URL+"/v1/jobs?design=bumblebee&bench=fixture",
		bytes.NewReader(fixtureTrace(t)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Idempotency-Key", "client-key-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitDone(t, ts, st.ID)

	// The stream replays the full ordered history for late subscribers.
	states, events := readEvents(t, ts, st.ID)
	var compact []string
	for _, s := range states {
		if s == "alert" { // alert events interleave freely with lifecycle states
			continue
		}
		if len(compact) == 0 || compact[len(compact)-1] != s {
			compact = append(compact, s)
		}
	}
	want := []string{"queued", "decoding", "simulating", "done"}
	if len(compact) != len(want) {
		t.Fatalf("event states = %v, want %v (collapsed %v)", compact, want, states)
	}
	for i, s := range want {
		if compact[i] != s {
			t.Fatalf("event states = %v, want %v", compact, want)
		}
	}
	for i, ev := range events {
		if ev.Seq != i+1 {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
		if ev.State == "simulating" && (ev.CellsDone == 0 || ev.Accesses == 0) {
			t.Fatalf("simulating event carries no progress: %+v", ev)
		}
	}

	// The exported span tree parses as Chrome trace JSON and covers
	// every lifecycle phase under the job's correlation ID.
	raw := fetch(t, ts, st.ID, ServiceTraceName)
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Dur  float64           `json:"dur"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("service trace is not valid JSON: %v", err)
	}
	spans := map[string]float64{}
	var rootDur float64
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		spans[ev.Name] += ev.Dur
		if ev.Name == "job" {
			rootDur = ev.Dur
			if ev.Args["job"] != st.ID {
				t.Fatalf("root span job arg = %q, want %s", ev.Args["job"], st.ID)
			}
			if ev.Args["status"] != "ok" {
				t.Fatalf("root span status = %q", ev.Args["status"])
			}
		}
	}
	for _, name := range []string{"job", "spool", "cache_lookup", "queue_wait", "run", "decode", "simulate/bumblebee", "write"} {
		if _, ok := spans[name]; !ok {
			t.Fatalf("service trace missing span %q (have %v)", name, spans)
		}
	}

	// The root span *is* the e2e sample: the histogram must have counted
	// exactly this job, with the root duration inside the observed range.
	h := srv.Obs.PhaseHistogram(obs.PhaseE2E)
	if h.Count != 1 {
		t.Fatalf("e2e histogram count = %d, want 1", h.Count)
	}
	if us := float64(h.Max) / 1e3; rootDur > us*1.5+1 {
		t.Fatalf("root span %v µs inconsistent with e2e max %v µs", rootDur, us)
	}
	if srv.Obs.PhaseHistogram(obs.PhaseQueueWait).Count != 1 {
		t.Fatal("queue_wait histogram did not count the job")
	}
	if srv.Obs.PhaseHistogram(obs.PhaseSimulate).Count == 0 {
		t.Fatal("simulate histogram empty")
	}

	// Session stamps the request correlation identities.
	var sess report.Session
	if err := json.Unmarshal(fetch(t, ts, st.ID, "session.json"), &sess); err != nil {
		t.Fatal(err)
	}
	if sess.JobID != st.ID || sess.IdempotencyKey != "client-key-42" {
		t.Fatalf("session correlation = %q/%q, want %s/client-key-42", sess.JobID, sess.IdempotencyKey, st.ID)
	}

	// The manifest hashes the trace artifact alongside runs.csv.
	var m report.Manifest
	if err := json.Unmarshal(fetch(t, ts, st.ID, "manifest.json"), &m); err != nil {
		t.Fatal(err)
	}
	kinds := map[string]string{}
	for _, o := range m.Outputs {
		kinds[o.Name] = o.Kind
	}
	if kinds[ServiceTraceName] != "trace" {
		t.Fatalf("manifest outputs = %v, want %s with kind trace", kinds, ServiceTraceName)
	}
}

// TestDesignAllDecodesOnce: a design=all job replays every design from
// one filtered stream, so its span tree holds exactly one decode span and
// the decode histogram one sample, while simulate spans stay per design.
func TestDesignAllDecodesOnce(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	st, resp := submit(t, ts, "design=all&bench=fixture", fixtureTrace(t))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	waitDone(t, ts, st.ID)
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(fetch(t, ts, st.ID, ServiceTraceName), &doc); err != nil {
		t.Fatal(err)
	}
	count := map[string]int{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			count[ev.Name]++
		}
	}
	if count["decode"] != 1 {
		t.Errorf("design=all recorded %d decode spans, want 1", count["decode"])
	}
	for _, d := range harness.AllDesigns {
		if n := count["simulate/"+string(d)]; n != 1 {
			t.Errorf("simulate/%s spans = %d, want 1", d, n)
		}
	}
	if n := srv.Obs.PhaseHistogram(obs.PhaseDecode).Count; n != 1 {
		t.Errorf("decode histogram count = %d, want 1", n)
	}
}

// TestLivezReadyz pins the probe split: liveness is unconditional,
// readiness tracks the fleet accepting jobs (503 before Start and
// during drain), and /healthz stays a readiness alias.
func TestLivezReadyz(t *testing.T) {
	h := harness.New()
	h.Scale = 128
	h.Parallel = 1
	srv := &Server{Harness: h, DataDir: t.TempDir(), Obs: &obs.Service{}}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	status := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := status("/livez"); got != http.StatusOK {
		t.Fatalf("pre-start /livez = %d, want 200", got)
	}
	if got := status("/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("pre-start /readyz = %d, want 503", got)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"/readyz", "/healthz", "/livez"} {
		if got := status(p); got != http.StatusOK {
			t.Fatalf("started %s = %d, want 200", p, got)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if got := status("/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("draining /readyz = %d, want 503", got)
	}
	if got := status("/livez"); got != http.StatusOK {
		t.Fatalf("draining /livez = %d, want 200", got)
	}
}

// TestDrainFlushesAbortedSpans: a drain whose deadline expires with a
// job still in flight must write that job's partial span tree (spans
// marked aborted) plus a manifest hashing it — the silent-span-loss fix.
func TestDrainFlushesAbortedSpans(t *testing.T) {
	hold := make(chan struct{})
	srv, ts := newTestServer(t, func(s *Server) {
		s.Workers = 1
		s.holdJobs = hold
	})
	defer close(hold) // release the worker so the cleanup drain finishes
	st, _ := submit(t, ts, "design=bumblebee&bench=fixture", fixtureTrace(t))
	deadline := time.Now().Add(10 * time.Second)
	for srv.Obs.Snapshot().Active != 1 {
		if time.Now().After(deadline) {
			t.Fatal("worker never took the job")
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := srv.Drain(ctx); err == nil {
		t.Fatal("drain with a parked worker should time out")
	}

	dir := filepath.Join(srv.runsDir(), st.ID)
	raw, err := os.ReadFile(filepath.Join(dir, ServiceTraceName))
	if err != nil {
		t.Fatalf("aborted trace not flushed: %v", err)
	}
	if !bytes.Contains(raw, []byte(`"status":"aborted"`)) {
		t.Fatalf("flushed trace has no aborted spans:\n%s", raw)
	}
	m, err := report.ReadManifest(dir)
	if err != nil {
		t.Fatalf("aborted trace not manifest-hashed: %v", err)
	}
	found := false
	for _, o := range m.Outputs {
		if o.Name == ServiceTraceName && o.Kind == "trace" {
			found = true
		}
	}
	if !found {
		t.Fatalf("manifest outputs %v missing %s", m.Outputs, ServiceTraceName)
	}
	if errs := m.Verify(dir); len(errs) != 0 {
		t.Fatalf("flushed manifest does not verify: %v", errs)
	}
}

// TestPutSubmission: `curl -T` issues PUT, and submission is
// content-addressed (idempotent), so PUT must behave exactly like POST
// — same job ID, cache hit on re-upload.
func TestPutSubmission(t *testing.T) {
	_, ts := newTestServer(t, nil)
	tr := fixtureTrace(t)
	put := func() (JobStatus, int) {
		req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/jobs?design=bumblebee&bench=fixture", bytes.NewReader(tr))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st JobStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st, resp.StatusCode
	}
	st, code := put()
	if code != http.StatusAccepted || st.ID == "" {
		t.Fatalf("PUT: status %d, id %q", code, st.ID)
	}
	waitDone(t, ts, st.ID)
	again, code := put()
	if code != http.StatusOK || !again.Cached || again.ID != st.ID {
		t.Fatalf("re-PUT: status %d, cached %v, id %q (want %q)", code, again.Cached, again.ID, st.ID)
	}
	post, _ := submit(t, ts, "design=bumblebee&bench=fixture", tr)
	if post.ID != st.ID || !post.Cached {
		t.Fatalf("POST after PUT: id %q cached %v, want cache hit on %q", post.ID, post.Cached, st.ID)
	}
}

// TestAlertLifecycle pins bbserve's leg of the alert tentpole: a job
// run under a breaching rule set streams "alert" SSE events with full
// payloads, annotates its run span, and writes an alerts.json artifact
// whose p99 breaches the live stream agrees with one-for-one.
func TestAlertLifecycle(t *testing.T) {
	_, ts := newTestServer(t, func(s *Server) {
		s.Harness.TelemetryEpoch = 64
		s.Rules = report.Rules{P99SLOCycles: 1}.RuleSet()
	})
	st, _ := submit(t, ts, "design=bumblebee&bench=fixture", fixtureTrace(t))
	final := waitDone(t, ts, st.ID)

	found := false
	for _, n := range final.Files {
		found = found || n == AlertsName
	}
	if !found {
		t.Fatalf("files = %v, missing %s", final.Files, AlertsName)
	}
	var rep alert.Report
	if err := json.Unmarshal(fetch(t, ts, st.ID, AlertsName), &rep); err != nil {
		t.Fatal(err)
	}
	breaches := 0
	for _, a := range rep.Alerts {
		if a.Rule == "p99-slo-breach" {
			breaches++
		}
	}
	if breaches == 0 {
		t.Fatalf("alerts.json holds no p99 breaches under SLO=1: %+v", rep.Alerts)
	}

	// Every artifact breach appeared live on the SSE stream, with the
	// alert payload attached to the event.
	states, events := readEvents(t, ts, st.ID)
	live := 0
	for i, s := range states {
		if s != "alert" {
			continue
		}
		ev := events[i]
		if ev.Alert == nil || ev.Alert.Rule == "" || ev.Alert.Detail == "" {
			t.Fatalf("alert event missing payload: %+v", ev)
		}
		if ev.Alert.Rule == "p99-slo-breach" {
			live++
		}
	}
	if live != breaches {
		t.Errorf("live p99 alert events = %d, artifact holds %d", live, breaches)
	}

	// Each firing transition also annotated the job's run span.
	raw := fetch(t, ts, st.ID, ServiceTraceName)
	if !bytes.Contains(raw, []byte("alert/p99-slo-breach")) {
		t.Fatal("service trace carries no alert annotation")
	}
}
