// Command bbserve is the trace-replay simulation service: POST a memory
// trace (zsim-style text or BBT1 binary, either of them gzipped — chunked
// bodies are fine) and get back a manifest-verified run directory
// simulated on the design matrix.
//
//	bbserve -addr :8380 -data ./bbserve-data
//
//	# submit a trace against every design, then poll and fetch
//	curl -sT mcf.bbt1 'localhost:8380/v1/jobs?bench=mcf'
//	curl -s localhost:8380/v1/jobs/<id>
//	curl -sN localhost:8380/v1/jobs/<id>/events    # live progress (SSE)
//	curl -sO localhost:8380/v1/jobs/<id>/files/runs.csv
//
// Identical (trace, config) submissions are served from the result
// cache without re-simulating; a full queue answers 429 with a
// Retry-After hint; SIGINT/SIGTERM drains in-flight jobs before exit
// (a second signal kills immediately). Each job records a span tree
// (spool, cache lookup, queue wait, decode, simulate, write) exported
// as a Perfetto-loadable service_trace.json among its artifacts —
// aborted trees included on drain — and the per-phase latency
// histograms behind /metrics. /livez answers 200 while the process is
// up; /readyz goes 503 while starting or draining.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"time"

	"repro/internal/alert"
	"repro/internal/config"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/serve"
)

func main() {
	if err := config.Default().Validate(); err != nil {
		log.Fatalf("bbserve: invalid default configuration: %v", err)
	}
	fs := flag.NewFlagSet("bbserve", flag.ExitOnError)
	addr := fs.String("addr", ":8380", "HTTP listen address for the job API")
	data := fs.String("data", "bbserve-data", "state directory (spooled traces and run results)")
	queue := fs.Int("queue", serve.DefaultQueueDepth, "max queued jobs before 429 backpressure")
	workers := fs.Int("workers", serve.DefaultWorkers, "concurrent simulating jobs")
	parallel := fs.Int("parallel", 0, "worker goroutines per job sweep (0 = one per CPU)")
	scale := fs.Uint64("scale", 128, "capacity scale factor vs the paper's Table I")
	accesses := fs.Uint64("accesses", 0, "default per-job access cap (0 replays the whole trace)")
	timeout := fs.Duration("timeout", 10*time.Minute, "per-design cell deadline within a job (0 disables)")
	var of obs.Flags
	of.RegisterServe(fs)
	of.RegisterLog(fs)
	of.RegisterAlert(fs)
	fs.Parse(os.Args[1:])
	if err := of.Validate(); err != nil {
		log.Fatalf("bbserve: %v", err)
	}
	logger := of.Logger(os.Stderr)
	rules, err := alert.Load(of.Rules)
	if err != nil {
		log.Fatalf("bbserve: %v", err)
	}

	h := harness.New()
	h.Scale = *scale
	h.Accesses = *accesses
	h.Parallel = *parallel
	h.CellTimeout = *timeout
	h.Log = logger

	svc := &obs.Service{}
	srv := &serve.Server{
		Harness:    h,
		DataDir:    *data,
		QueueDepth: *queue,
		Workers:    *workers,
		Log:        logger,
		Obs:        svc,
		Rules:      rules,
	}
	if err := srv.Start(); err != nil {
		log.Fatalf("bbserve: %v", err)
	}

	// The optional obs endpoints (pprof + /metrics on a separate port)
	// export the same service gauges the API's own /metrics serves.
	obsSrv, err := of.StartServer(context.Background(), nil, logger)
	if err != nil {
		log.Fatalf("bbserve: %v", err)
	}
	if obsSrv != nil {
		obsSrv.Metrics = svc.Handler()
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	logger.Info("bbserve: serving", "addr", *addr, "data", *data, "queue", *queue, "workers", *workers)

	// First signal: stop accepting, finish queued and in-flight jobs,
	// then exit cleanly. Second signal (DrainOnSignal's contract) kills.
	stop := obs.DrainOnSignal(logger)
	select {
	case err := <-errCh:
		log.Fatalf("bbserve: %v", err)
	case <-stop:
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		logger.Warn("bbserve: http shutdown", "err", err.Error())
	}
	if err := srv.Drain(shutCtx); err != nil {
		logger.Warn("bbserve: drain", "err", err.Error())
		os.Exit(1)
	}
	if obsSrv != nil {
		_ = obsSrv.Shutdown(shutCtx)
	}
	fmt.Fprintln(os.Stderr, "bbserve: drained cleanly")
}
