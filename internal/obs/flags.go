package obs

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"runtime"
	"time"
)

// Flags is the flag set shared by the three cmd/ binaries. Before this
// helper each main registered its own copies of these flags and they had
// already started drifting (different defaults, different help strings);
// now every binary registers the groups it needs from one definition.
type Flags struct {
	// Sweep scheduling (RegisterSweep).
	Parallel    int
	CellTimeout time.Duration

	// Telemetry collection (RegisterTelemetry).
	TelemetryEpoch uint64
	TraceOut       string
	TraceDepth     int

	// Observability endpoints (RegisterServe).
	Pprof       string
	MetricsAddr string

	// Structured logging (RegisterLog).
	LogLevel string

	// Live alerting (RegisterAlert; see internal/alert).
	Rules string
}

// RegisterSweep registers the worker-pool flags.
func (f *Flags) RegisterSweep(fs *flag.FlagSet) {
	fs.IntVar(&f.Parallel, "parallel", runtime.NumCPU(),
		"worker goroutines per sweep (results are identical at any value)")
	fs.DurationVar(&f.CellTimeout, "cell-timeout", 0,
		"per-cell deadline for sweeps (0 disables); a hung cell fails instead of blocking the sweep")
}

// RegisterTelemetry registers the per-run telemetry flags.
func (f *Flags) RegisterTelemetry(fs *flag.FlagSet) {
	fs.Uint64Var(&f.TelemetryEpoch, "telemetry-epoch", 0,
		"sample every run's counters every N accesses (0 disables telemetry)")
	fs.StringVar(&f.TraceOut, "trace-out", "",
		"write telemetry-enabled runs as Chrome trace_event JSON to this file (needs -telemetry-epoch)")
	fs.IntVar(&f.TraceDepth, "trace-depth", 0,
		"event ring capacity per run (0 picks the default)")
}

// RegisterServe registers the HTTP observability endpoints.
func (f *Flags) RegisterServe(fs *flag.FlagSet) {
	fs.StringVar(&f.Pprof, "pprof", "",
		"serve net/http/pprof, expvar and /metrics on this address (e.g. localhost:6060)")
	fs.StringVar(&f.MetricsAddr, "metrics-addr", "",
		"serve only Prometheus /metrics on this address (e.g. localhost:9090)")
}

// RegisterLog registers the shared structured-logging flags.
func (f *Flags) RegisterLog(fs *flag.FlagSet) {
	fs.StringVar(&f.LogLevel, "log-level", "info",
		"structured log threshold: debug, info, warn, or error (alert events log at warn)")
}

// RegisterAlert registers the live SLO alerting flags.
func (f *Flags) RegisterAlert(fs *flag.FlagSet) {
	fs.StringVar(&f.Rules, "rules", "",
		"alert rules JSON file evaluated live and written to alerts.json (empty picks the built-in rules)")
}

// RegisterAll registers every shared flag group.
func (f *Flags) RegisterAll(fs *flag.FlagSet) {
	f.RegisterSweep(fs)
	f.RegisterTelemetry(fs)
	f.RegisterServe(fs)
	f.RegisterLog(fs)
	f.RegisterAlert(fs)
}

// Validate checks cross-flag constraints shared by the binaries.
func (f *Flags) Validate() error {
	if f.TraceOut != "" && f.TelemetryEpoch == 0 {
		return fmt.Errorf("-trace-out needs -telemetry-epoch > 0")
	}
	if _, err := f.SlogLevel(); err != nil {
		return err
	}
	return nil
}

// SlogLevel parses the -log-level flag ("" counts as info).
func (f *Flags) SlogLevel() (slog.Level, error) {
	switch f.LogLevel {
	case "", "info":
		return slog.LevelInfo, nil
	case "debug":
		return slog.LevelDebug, nil
	case "warn":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("-log-level %q: want debug, info, warn, or error", f.LogLevel)
}

// Logger builds the run logger at the configured level. Call after
// Validate; an unparseable level falls back to info.
func (f *Flags) Logger(w io.Writer) *slog.Logger {
	lvl, err := f.SlogLevel()
	if err != nil {
		lvl = slog.LevelInfo
	}
	return NewLeveledRunLogger(w, lvl)
}

// StartServer starts the observability endpoints the flags ask for (nil
// server and nil error when neither address is set), serving sweep's
// /metrics handler, and installs graceful shutdown on SIGINT/SIGTERM or
// ctx cancellation. Bind errors surface here, before the sweep starts.
func (f *Flags) StartServer(ctx context.Context, sweep *Sweep, log *slog.Logger) (*Server, error) {
	if f.Pprof == "" && f.MetricsAddr == "" {
		return nil, nil
	}
	srv := &Server{PprofAddr: f.Pprof, MetricsAddr: f.MetricsAddr, Metrics: sweep.Handler(), Log: log}
	if err := srv.Start(); err != nil {
		return nil, err
	}
	srv.ShutdownOnSignal(ctx, 2*time.Second)
	return srv, nil
}

// StartServerManaged is StartServer without the signal handler: the
// caller owns the process lifecycle (typically via DrainOnSignal, so
// that SIGINT drains in-flight cells instead of killing the endpoints
// mid-checkpoint) and must call Shutdown itself.
func (f *Flags) StartServerManaged(sweep *Sweep, log *slog.Logger) (*Server, error) {
	if f.Pprof == "" && f.MetricsAddr == "" {
		return nil, nil
	}
	srv := &Server{PprofAddr: f.Pprof, MetricsAddr: f.MetricsAddr, Metrics: sweep.Handler(), Log: log}
	if err := srv.Start(); err != nil {
		return nil, err
	}
	return srv, nil
}
