// Package serve is the trace-replay simulation service behind
// cmd/bbserve: clients POST a trace file (any encoding
// internal/tracecodec understands, chunked bodies included) together
// with a design selection, jobs run on a bounded worker fleet with
// explicit backpressure, and the results come back as a
// manifest-verified run directory — written through the same
// report.RunDir every sweep CLI uses, so `bbreport verify` and the rest
// of the toolchain work on served results unchanged.
//
// Job identity is content-addressed: the job ID is a SHA-256 over the
// trace bytes' digest plus every deterministic knob (design, benchmark
// label, access cap, scale). The repo-wide determinism contract —
// identical inputs produce byte-identical outputs — is what makes that
// sound as a *result cache*: a second POST of the same trace and config
// returns the already-computed directory without simulating anything.
package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/alert"
	"repro/internal/config"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/tracecodec"
)

// Defaults for the bounded fleet.
const (
	DefaultQueueDepth    = 16
	DefaultWorkers       = 2
	DefaultMaxTraceBytes = 1 << 30

	// retryAfterSeconds is the backoff hint sent with 429 responses.
	retryAfterSeconds = 2
)

// benchRE bounds the benchmark label: it names files and cells, so it
// stays in the same alphabet as the repo's design and benchmark names.
var benchRE = regexp.MustCompile(`^[a-zA-Z0-9._-]{1,64}$`)

// Server is the replay-job service. Populate the exported fields, call
// Start, mount Handler on an http.Server, and Drain on shutdown.
type Server struct {
	// Harness is the execution template every job copies: scale, cell
	// timeout, per-job parallelism. Required.
	Harness *harness.Harness

	// DataDir is the service's state root: spooled uploads, accepted
	// traces (traces/<job>), and result directories (runs/<job>).
	DataDir string

	QueueDepth    int          // queued-job bound; 429 past it (default 16)
	Workers       int          // concurrent simulating jobs (default 2)
	MaxTraceBytes int64        // request-body cap (default 1 GiB)
	Log           *slog.Logger // nil is silent
	Obs           *obs.Service // live gauges; nil disables

	// Rules is the alert rule set evaluated live over every job (and
	// written to its alerts.json artifact). Empty means alert.Defaults().
	Rules alert.RuleSet

	mu       sync.Mutex
	jobs     map[string]*job
	queue    chan *job
	draining bool
	started  bool
	wg       sync.WaitGroup
	sims     atomic.Uint64 // simulations actually executed (cache misses)

	// holdJobs is a test hook: when non-nil, workers block on it before
	// taking up each job, so tests can fill the queue deterministically.
	holdJobs chan struct{}
}

// job states.
const (
	stateQueued  = "queued"
	stateRunning = "running"
	stateDone    = "done"
	stateFailed  = "failed"
)

// job is one accepted replay request. Mutable fields are guarded by the
// server mutex; done closes when the job reaches a terminal state.
type job struct {
	ID          string
	Design      string // "all" or one config.Design name
	Bench       string
	Accesses    uint64 // 0 replays the whole trace
	IdemKey     string // client-supplied Idempotency-Key header, if any
	TraceSHA256 string
	TracePath   string
	Dir         string

	// Trace is the job's span tree; rootSpan covers submit-to-artifacts
	// (the e2e latency) and queueSpan the accepted-to-worker wait.
	Trace     *obs.JobTrace
	rootSpan  obs.SpanID
	queueSpan obs.SpanID

	state  string
	errMsg string
	done   chan struct{}

	// SSE progress log: append-only events plus a broadcast channel that
	// is closed and replaced on every append, so any number of
	// subscribers replay history and then wake on each change.
	events []ProgressEvent
	evch   chan struct{}
}

// ProgressEvent is one structured progress record streamed over the
// job's SSE endpoint. States advance queued → decoding → simulating →
// done|failed; simulating events carry the sweep's live gauges, and
// interleaved "alert" events carry each live firing transition.
type ProgressEvent struct {
	Seq          int          `json:"seq"`
	State        string       `json:"state"`
	CellsDone    uint64       `json:"cells_done"`
	CellsPlanned uint64       `json:"cells_planned"`
	Accesses     uint64       `json:"accesses"`
	Error        string       `json:"error,omitempty"`
	Alert        *alert.Alert `json:"alert,omitempty"`
}

// ServiceTraceName is the exported span-tree artifact written into every
// executed job's run directory (Chrome trace_event JSON).
const ServiceTraceName = "service_trace.json"

// AlertsName is the alert report artifact (rules + firing alerts)
// written next to runs.csv and hashed into the manifest.
const AlertsName = "alerts.json"

// JobStatus is the JSON body of submit and poll responses.
type JobStatus struct {
	ID       string   `json:"id"`
	Status   string   `json:"status"`
	Design   string   `json:"design"`
	Bench    string   `json:"bench"`
	Accesses uint64   `json:"accesses"`
	Cached   bool     `json:"cached,omitempty"` // this request matched an existing job
	Error    string   `json:"error,omitempty"`
	Files    []string `json:"files,omitempty"` // fetchable when status is done
}

// Start applies defaults, creates the state directories, and launches
// the worker fleet.
func (s *Server) Start() error {
	if s.Harness == nil {
		return fmt.Errorf("serve: Harness is required")
	}
	if s.DataDir == "" {
		return fmt.Errorf("serve: DataDir is required")
	}
	if s.QueueDepth <= 0 {
		s.QueueDepth = DefaultQueueDepth
	}
	if s.Workers <= 0 {
		s.Workers = DefaultWorkers
	}
	if s.MaxTraceBytes <= 0 {
		s.MaxTraceBytes = DefaultMaxTraceBytes
	}
	if len(s.Rules.Rules) == 0 {
		s.Rules = alert.Defaults()
	}
	if err := s.Rules.Validate(); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	for _, dir := range []string{s.DataDir, s.tracesDir(), s.runsDir()} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("serve: %w", err)
		}
	}
	s.jobs = make(map[string]*job)
	s.queue = make(chan *job, s.QueueDepth)
	s.started = true
	for i := 0; i < s.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return nil
}

func (s *Server) tracesDir() string { return filepath.Join(s.DataDir, "traces") }
func (s *Server) runsDir() string   { return filepath.Join(s.DataDir, "runs") }

// Simulations reports how many jobs actually simulated (queue-to-worker
// executions, not cache hits) — the observable the cache tests pin.
func (s *Server) Simulations() uint64 { return s.sims.Load() }

// Handler returns the service's HTTP mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	// Submission is content-addressed and therefore idempotent, so both
	// POST and PUT are accepted — `curl -T trace URL` issues PUT.
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("PUT /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/files/{name}", s.handleFile)
	// Liveness vs readiness: /livez answers 200 as long as the process
	// serves HTTP at all (restart me only if this fails); /readyz answers
	// 200 only while the worker fleet accepts jobs — before Start and
	// during drain it returns 503 so a load balancer stops routing
	// submissions that would only collect 429s/503s. /healthz stays as a
	// readiness alias for existing probes.
	mux.HandleFunc("GET /livez", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	ready := func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		started, draining := s.started, s.draining
		s.mu.Unlock()
		switch {
		case draining:
			http.Error(w, "draining", http.StatusServiceUnavailable)
		case !started:
			http.Error(w, "starting", http.StatusServiceUnavailable)
		default:
			fmt.Fprintln(w, "ok")
		}
	}
	mux.HandleFunc("GET /readyz", ready)
	mux.HandleFunc("GET /healthz", ready)
	if s.Obs != nil {
		mux.Handle("GET /metrics", s.Obs.Handler())
	}
	return mux
}

// Drain stops accepting jobs, lets queued and in-flight jobs finish,
// and returns when the fleet is idle (or ctx expires). Safe to call
// more than once.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		if s.started {
			close(s.queue)
		}
	}
	s.mu.Unlock()
	idle := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(idle)
	}()
	select {
	case <-idle:
		return nil
	case <-ctx.Done():
		// The drain deadline expired with jobs still in flight: their
		// workers are being abandoned, so flush every non-terminal span
		// tree now (marked aborted) — a killed job's partial trace is
		// exactly the evidence an operator needs, and losing it silently
		// was the old behavior.
		s.flushAborted()
		return ctx.Err()
	}
}

// flushAborted writes the span trees of all non-terminal jobs to their
// run directories, each span still open marked aborted, with a minimal
// manifest hashing the trace artifact. Best-effort by design: it runs
// on the way out of a failed drain.
func (s *Server) flushAborted() {
	s.mu.Lock()
	var pending []*job
	for _, j := range s.jobs {
		if j.state != stateDone && j.state != stateFailed && j.Trace != nil {
			pending = append(pending, j)
		}
	}
	s.mu.Unlock()
	for _, j := range pending {
		j.Trace.Abort()
		rd, err := s.runDir(j)
		if err == nil {
			err = writeServiceTrace(rd, j)
		}
		if err != nil {
			s.logf("abort flush failed", "job", j.ID, "err", err.Error())
			continue
		}
		if err := rd.Close(nil); err != nil {
			s.logf("abort flush manifest failed", "job", j.ID, "err", err.Error())
		}
		s.logf("aborted trace flushed", "job", j.ID, "state", j.state)
	}
}

// runDir opens the job's run directory under the job's deterministic
// identity; finished jobs and the aborted-job flush share it.
func (s *Server) runDir(j *job) (*report.RunDir, error) {
	m := report.New("bbserve", "replay/"+j.Bench, s.Harness.Scale, j.Accesses, s.Harness.TelemetryEpoch)
	m.Flags = map[string]string{
		"design":       j.Design,
		"bench":        j.Bench,
		"trace_sha256": j.TraceSHA256,
	}
	return report.NewRunDir(j.Dir, m)
}

// writeServiceTrace exports the job's span tree as Chrome trace_event
// JSON into its run directory.
func writeServiceTrace(rd *report.RunDir, j *job) error {
	return rd.Write(ServiceTraceName, "trace", func(w io.Writer) error {
		return telemetry.WriteChromeTrace(w, []telemetry.TraceRun{j.Trace.TraceRun("bbserve job " + j.ID)})
	})
}

func (s *Server) logf(msg string, args ...any) {
	if s.Log != nil {
		s.Log.Info(msg, args...)
	}
}

// appendEventLocked records one progress event and wakes SSE
// subscribers; the caller holds s.mu.
func (s *Server) appendEventLocked(j *job, state string, snap *obs.Snapshot, errMsg string) {
	ev := ProgressEvent{Seq: len(j.events) + 1, State: state, Error: errMsg}
	if snap != nil {
		ev.CellsDone = snap.Done
		ev.CellsPlanned = snap.Planned
		ev.Accesses = snap.Accesses
	}
	j.events = append(j.events, ev)
	close(j.evch)
	j.evch = make(chan struct{})
}

// jobAlert is the per-job monitor's OnAlert hook: every live firing
// transition annotates the job's run span and becomes one "alert" SSE
// event carrying the full alert (the monitor itself emits the slog
// record, so this only handles the span tree and the event stream).
func (s *Server) jobAlert(j *job, runSpan obs.SpanID, a alert.Alert) {
	j.Trace.Annotate(runSpan, "alert/"+a.Rule, a.Design+"/"+a.Bench+": "+a.Detail)
	s.mu.Lock()
	ev := ProgressEvent{Seq: len(j.events) + 1, State: "alert", Alert: &a}
	j.events = append(j.events, ev)
	close(j.evch)
	j.evch = make(chan struct{})
	s.mu.Unlock()
}

// jobProgress is the per-job sweep's OnUpdate hook: every cell
// completion becomes one "simulating" SSE event carrying the live
// gauges.
func (s *Server) jobProgress(j *job, snap obs.Snapshot) {
	s.mu.Lock()
	s.appendEventLocked(j, "simulating", &snap, "")
	s.mu.Unlock()
	s.logf("job progress", "job", j.ID, "state", "simulating",
		"cells_done", snap.Done, "cells_planned", snap.Planned, "accesses", snap.Accesses)
}

// handleSubmit spools the posted trace while hashing it, derives the
// content-addressed job ID, and either joins an existing job (cache
// hit), enqueues a new one, or refuses with backpressure.
//
// The job's span tree starts here: the root "job" span opens on entry
// (it becomes the end-to-end latency), with spool and cache_lookup as
// its first children. The trace is born before the content-addressed ID
// exists and named via SetJob once the body digest is known; requests
// that do not produce a new job (bad input, cache hit, backpressure)
// simply drop it.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	tr := obs.NewJobTrace("")
	root := tr.Start(0, "job")
	design := r.URL.Query().Get("design")
	if design == "" {
		design = "all"
	}
	if design != "all" && !validDesign(design) {
		httpError(w, http.StatusBadRequest, "unknown design %q", design)
		return
	}
	bench := r.URL.Query().Get("bench")
	if bench == "" {
		bench = "trace"
	}
	if !benchRE.MatchString(bench) {
		httpError(w, http.StatusBadRequest, "bad bench label %q", bench)
		return
	}
	accesses := s.Harness.Accesses
	if v := r.URL.Query().Get("accesses"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			httpError(w, http.StatusBadRequest, "bad accesses %q", v)
			return
		}
		accesses = n
	}

	// Spool the body to disk while hashing: the trace may be larger than
	// memory and arrive chunked, and its digest is the cache key.
	spoolSpan := tr.Start(root, "spool")
	digest, spool, err := s.spoolBody(w, r)
	if err != nil {
		// spoolBody already answered.
		return
	}
	tr.End(spoolSpan)
	id := jobID(digest, design, bench, accesses, s.Harness.Scale)
	tr.SetJob(id)

	lookSpan := tr.Start(root, "cache_lookup")
	s.mu.Lock()
	if existing, ok := s.jobs[id]; ok {
		st := s.statusLocked(existing, true)
		s.mu.Unlock()
		os.Remove(spool)
		s.Obs.CacheHit()
		s.logf("job joined", "job", id, "status", st.Status)
		writeJSON(w, http.StatusOK, st)
		return
	}
	if s.draining || !s.started {
		s.mu.Unlock()
		os.Remove(spool)
		httpError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	tr.Annotate(lookSpan, "hit", "false")
	tr.End(lookSpan)
	j := &job{
		ID: id, Design: design, Bench: bench, Accesses: accesses,
		IdemKey:     r.Header.Get("Idempotency-Key"),
		TraceSHA256: digest,
		TracePath:   filepath.Join(s.tracesDir(), id+".trace"),
		Dir:         filepath.Join(s.runsDir(), id),
		Trace:       tr,
		rootSpan:    root,
		state:       stateQueued,
		done:        make(chan struct{}),
		evch:        make(chan struct{}),
	}
	j.queueSpan = tr.Start(root, "queue_wait")
	select {
	case s.queue <- j:
	default:
		s.mu.Unlock()
		os.Remove(spool)
		s.Obs.Rejected()
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
		httpError(w, http.StatusTooManyRequests, "job queue full (%d queued); retry later", s.QueueDepth)
		return
	}
	tr.Annotate(j.queueSpan, "depth", strconv.Itoa(len(s.queue)))
	if err := os.Rename(spool, j.TracePath); err != nil {
		// The worker will fail the job when it cannot open the trace;
		// refusing here would leave a phantom queue entry.
		s.logf("spool rename failed", "job", id, "err", err.Error())
	}
	s.jobs[id] = j
	s.appendEventLocked(j, stateQueued, nil, "")
	st := s.statusLocked(j, false)
	s.mu.Unlock()
	s.Obs.JobQueued()
	s.logf("job queued", "job", id, "span", uint64(root),
		"design", design, "bench", bench, "accesses", accesses, "idempotency_key", j.IdemKey)
	writeJSON(w, http.StatusAccepted, st)
}

// spoolBody copies the request body to a temp file while hashing it.
// On failure it answers the request and returns an error.
func (s *Server) spoolBody(w http.ResponseWriter, r *http.Request) (digest, path string, err error) {
	body := http.MaxBytesReader(w, r.Body, s.MaxTraceBytes)
	f, err := os.CreateTemp(s.DataDir, "spool-*")
	if err != nil {
		httpError(w, http.StatusInternalServerError, "spool: %v", err)
		return "", "", err
	}
	h := sha256.New()
	n, err := io.Copy(f, io.TeeReader(body, h))
	cerr := f.Close()
	if err == nil {
		err = cerr
	}
	if err == nil && n == 0 {
		err = fmt.Errorf("empty body")
	}
	if err != nil {
		os.Remove(f.Name())
		httpError(w, http.StatusBadRequest, "reading trace body: %v", err)
		return "", "", err
	}
	return hex.EncodeToString(h.Sum(nil)), f.Name(), nil
}

// jobID derives the content-addressed job identity: the SHA-256 of the
// trace digest plus every deterministic knob. Equal IDs mean equal
// results, so the ID doubles as the cache key.
func jobID(traceDigest, design, bench string, accesses, scale uint64) string {
	h := sha256.New()
	fmt.Fprintf(h, "bbserve-job-v1\x00%s\x00%s\x00%s\x00%d\x00%d", traceDigest, design, bench, accesses, scale)
	return hex.EncodeToString(h.Sum(nil))
}

func validDesign(name string) bool {
	for _, d := range harness.AllDesigns {
		if string(d) == name {
			return true
		}
	}
	return false
}

// handleStatus reports one job's state.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	var st JobStatus
	if ok {
		st = s.statusLocked(j, false)
	}
	s.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleEvents streams a job's progress log as Server-Sent Events: the
// full history first (late subscribers replay everything, including
// already-finished jobs), then live events until the job reaches a
// terminal state or the client disconnects. Each event is rendered as
// `event: <state>` plus a JSON data line.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	fl, canFlush := w.(http.Flusher)
	if !canFlush {
		httpError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	sent := 0
	for {
		s.mu.Lock()
		evs := append([]ProgressEvent(nil), j.events[sent:]...)
		ch := j.evch
		finished := (j.state == stateDone || j.state == stateFailed) &&
			sent+len(evs) == len(j.events)
		s.mu.Unlock()
		for _, ev := range evs {
			b, err := json.Marshal(ev)
			if err != nil {
				return
			}
			if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.State, b); err != nil {
				return
			}
		}
		sent += len(evs)
		if len(evs) > 0 {
			fl.Flush()
		}
		if finished {
			return
		}
		select {
		case <-ch:
		case <-r.Context().Done():
			return
		}
	}
}

// handleFile serves one result file of a completed job.
func (s *Server) handleFile(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if name != filepath.Base(name) || name == "." || name == ".." {
		httpError(w, http.StatusBadRequest, "bad file name")
		return
	}
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	var state string
	if ok {
		state = j.state
	}
	s.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	if state != stateDone {
		httpError(w, http.StatusConflict, "job is %s; files are served once it is done", state)
		return
	}
	http.ServeFile(w, r, filepath.Join(s.runsDir(), j.ID, name))
}

// statusLocked renders a job's status; the caller holds s.mu.
func (s *Server) statusLocked(j *job, cached bool) JobStatus {
	st := JobStatus{
		ID: j.ID, Status: j.state, Design: j.Design, Bench: j.Bench,
		Accesses: j.Accesses, Cached: cached, Error: j.errMsg,
	}
	if j.state == stateDone {
		if ents, err := os.ReadDir(j.Dir); err == nil {
			for _, e := range ents {
				st.Files = append(st.Files, e.Name())
			}
			sort.Strings(st.Files)
		}
	}
	return st
}

// worker drains the queue until Drain closes it.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.Obs.JobStarted()
		qwait := j.Trace.End(j.queueSpan)
		s.Obs.ObservePhase(obs.PhaseQueueWait, qwait)
		s.mu.Lock()
		j.state = stateRunning
		s.appendEventLocked(j, "decoding", nil, "")
		s.mu.Unlock()
		s.logf("job running", "job", j.ID, "span", uint64(j.rootSpan),
			"queue_wait_ms", qwait.Milliseconds())
		if hold := s.holdJobs; hold != nil {
			<-hold // test hook: park the worker with the job marked running
		}
		err := s.runJob(j)
		errMsg := ""
		if err != nil {
			errMsg = err.Error()
		}
		s.mu.Lock()
		if err != nil {
			j.state, j.errMsg = stateFailed, errMsg
			s.appendEventLocked(j, stateFailed, nil, errMsg)
		} else {
			j.state = stateDone
			s.appendEventLocked(j, stateDone, nil, "")
		}
		s.mu.Unlock()
		close(j.done)
		s.Obs.JobDone(err != nil)
		if err != nil {
			s.logf("job failed", "job", j.ID, "span", uint64(j.rootSpan), "err", errMsg)
		} else {
			s.logf("job done", "job", j.ID, "span", uint64(j.rootSpan))
		}
	}
}

// runJob replays the job's trace on its design selection and writes the
// manifest-verified run directory: runs.csv, alerts.json, the span-tree
// service_trace.json, the manifest hashing all three, and session.json.
//
// Span bookkeeping: the "run" span opens here under the job root and
// every phase nests below it — decode spans from the open closure,
// simulate spans from the harness, the artifact "write" span. The run
// and root spans are closed (and the e2e histogram observed) *before*
// the trace is exported, so the artifact always holds a complete tree
// and the manifest can hash it; only the manifest and session writes
// themselves happen off-trace.
func (s *Server) runJob(j *job) error {
	start := time.Now()
	s.sims.Add(1)
	tr := j.Trace
	runSpan := tr.Start(j.rootSpan, "run")
	h := *s.Harness
	h.Accesses = j.Accesses
	h.Spans = tr
	h.SpanParent = runSpan
	sw := obs.NewSweep("job " + j.ID)
	sw.OnUpdate = func(snap obs.Snapshot) { s.jobProgress(j, snap) }
	h.Obs = sw
	mon := alert.NewMonitor(s.Rules)
	mon.Log = s.Log
	mon.OnAlert = func(a alert.Alert) { s.jobAlert(j, runSpan, a) }
	h.Alerts = mon
	sw.Alerts = mon
	designs := harness.AllDesigns
	if j.Design != "all" {
		designs = []config.Design{config.Design(j.Design)}
	}

	// The sweep opens one reader over the spooled trace for all its
	// designs — one decode span, one decode sample; handles are
	// collected and closed when the sweep finishes (a run capped by
	// Accesses does not drain its stream, so close-on-EOF would leak).
	var fmu sync.Mutex
	var files []*os.File
	defer func() {
		fmu.Lock()
		for _, f := range files {
			f.Close()
		}
		fmu.Unlock()
	}()
	open := func() (trace.Stream, error) {
		sp := tr.Start(runSpan, "decode")
		t0 := time.Now()
		f, err := os.Open(j.TracePath)
		if err != nil {
			tr.Fail(sp, err)
			return nil, err
		}
		fmu.Lock()
		files = append(files, f)
		fmu.Unlock()
		r, err := tracecodec.Open(f)
		if err != nil {
			tr.Fail(sp, err)
			return nil, err
		}
		tr.End(sp)
		s.Obs.ObservePhase(obs.PhaseDecode, time.Since(t0))
		return tracecodec.NewStream(r), nil
	}
	runs, err := h.ReplaySweep(designs, j.Bench, open)
	if err != nil {
		s.finishJobSpans(j, runSpan, err)
		return err
	}
	// The simulate phase histogram is fed from the span tree itself, so
	// /metrics quantiles and the exported trace cannot disagree.
	for _, sp := range tr.Spans() {
		if strings.HasPrefix(sp.Name, "simulate/") && sp.Status == obs.SpanOK {
			s.Obs.ObservePhase(obs.PhaseSimulate, sp.Dur)
		}
	}

	ws := tr.Start(runSpan, "write")
	rd, err := s.runDir(j)
	if err == nil {
		err = rd.Write("runs.csv", "runs", func(w io.Writer) error {
			return harness.WriteRunsCSV(w, runs)
		})
	}
	if err == nil {
		err = rd.Write(AlertsName, "alerts", func(w io.Writer) error {
			return harness.WriteAlertsJSON(w, runs, s.Rules)
		})
	}
	if err != nil {
		tr.Fail(ws, err)
		s.finishJobSpans(j, runSpan, err)
		return err
	}
	tr.End(ws)
	s.finishJobSpans(j, runSpan, nil)

	if err := writeServiceTrace(rd, j); err != nil {
		return err
	}
	sess := report.NewSession(h.Parallel, start)
	sess.JobID, sess.IdempotencyKey = j.ID, j.IdemKey
	return rd.Close(sess)
}

// finishJobSpans closes the run and root spans with the sweep's outcome
// and observes the end-to-end latency (the root span's full life, from
// submit entry to artifacts written). On failure the partial span tree
// is still exported best-effort so a failed job leaves evidence.
func (s *Server) finishJobSpans(j *job, runSpan obs.SpanID, err error) {
	tr := j.Trace
	var e2e time.Duration
	if err != nil {
		tr.Fail(runSpan, err)
		e2e = tr.Fail(j.rootSpan, err)
	} else {
		tr.End(runSpan)
		e2e = tr.End(j.rootSpan)
	}
	s.Obs.ObservePhase(obs.PhaseE2E, e2e)
	if err != nil {
		rd, werr := s.runDir(j)
		if werr == nil {
			werr = writeServiceTrace(rd, j)
		}
		if werr != nil {
			s.logf("service trace write failed", "job", j.ID, "err", werr.Error())
		}
	}
}

// writeJSON renders v with the usual headers.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	http.Error(w, fmt.Sprintf(format, args...), code)
}
