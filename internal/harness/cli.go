package harness

import (
	"context"
	"fmt"
	"log/slog"
	"os"
	"time"

	"repro/internal/alert"
	"repro/internal/ckpt"
	"repro/internal/obs"
	"repro/internal/telemetry"
)

// CLIConfig identifies one command-line sweep for StartCLI.
type CLIConfig struct {
	Tool     string // command name: stderr prefix and journal owner
	Sweep    string // sweep name served on /metrics
	Scale    uint64
	Accesses uint64
	Dir      string // checkpoint directory; "" runs without a journal
	Resume   bool   // resume Dir's journal instead of starting a new one
}

// CLI is the sweep lifecycle bbrepro and bumblebee-sim share: a harness
// configured from the shared obs.Flags, the live alert monitor and
// /metrics sweep, the observability server, and the checkpoint journal.
// Close releases the journal and the server.
type CLI struct {
	Harness *Harness
	Log     *slog.Logger  // stderr logger at -log-level
	Rules   alert.RuleSet // the -rules set the monitor evaluates

	cfg CLIConfig
	srv *obs.Server
}

// StartCLI builds the harness from of and cfg, loads the alert rules,
// wires the live monitor and sweep tracker, and starts the endpoints the
// flags ask for. A checkpointed sweep (cfg.Dir set) owns its signals:
// the first SIGINT/SIGTERM drains in-flight cells into the journal. The
// journal itself opens later, in OpenJournal, once the command has
// checked the rest of its flags.
func StartCLI(of *obs.Flags, cfg CLIConfig) (*CLI, error) {
	h := New()
	h.Scale = cfg.Scale
	h.Accesses = cfg.Accesses
	h.Parallel = of.Parallel
	h.CellTimeout = of.CellTimeout
	h.TelemetryEpoch = of.TelemetryEpoch
	h.TraceDepth = of.TraceDepth
	c := &CLI{Harness: h, Log: of.Logger(os.Stderr), cfg: cfg}

	var err error
	if c.Rules, err = alert.Load(of.Rules); err != nil {
		return nil, fmt.Errorf("-rules: %w", err)
	}
	// The live monitor mirrors what a written alerts.json holds: firing
	// transitions log to stderr as the sweep runs and surface as
	// bb_alerts_* gauges on /metrics. The sweep tracker is live even
	// without an endpoint, so attaching one costs nothing but the flag.
	mon := alert.NewMonitor(c.Rules)
	mon.Log = c.Log
	h.Alerts = mon
	sweep := obs.NewSweep(cfg.Sweep)
	sweep.Alerts = mon
	h.Obs = sweep
	if cfg.Dir != "" {
		h.Interrupt = obs.DrainOnSignal(c.Log)
		c.srv, err = of.StartServerManaged(sweep, c.Log)
	} else {
		c.srv, err = of.StartServer(context.Background(), sweep, c.Log)
	}
	if err != nil {
		return nil, err
	}
	return c, nil
}

// OpenJournal creates the checkpoint directory and its journal, or with
// Resume reloads the journal a previous run left there, reporting on
// stderr how many cells will replay. experiment and shard complete the
// journal's identity, which a resume must match.
func (c *CLI) OpenJournal(experiment, shard string) error {
	if err := os.MkdirAll(c.cfg.Dir, 0o755); err != nil {
		return err
	}
	h := c.Harness
	meta := ckpt.Meta{Tool: c.cfg.Tool, Experiment: experiment, Scale: h.Scale,
		Accesses: h.Accesses, TelemetryEpoch: h.TelemetryEpoch, Shard: shard}
	if h.TelemetryEpoch > 0 {
		// The ring capacity bounds each record's event tail. A sweep
		// without telemetry records none, so its header keeps the bytes
		// it had before the field existed.
		meta.TraceDepth = h.TraceDepth
		if meta.TraceDepth <= 0 {
			meta.TraceDepth = telemetry.DefaultTraceDepth
		}
	}
	if !c.cfg.Resume {
		jn, err := ckpt.Create(c.cfg.Dir, meta)
		if err != nil {
			return err
		}
		h.Journal = jn
		return nil
	}
	jn, loaded, err := ckpt.Resume(c.cfg.Dir, meta)
	if err != nil {
		return fmt.Errorf("-resume: %w", err)
	}
	h.Journal = jn
	if loaded == nil {
		fmt.Fprintf(os.Stderr, "%s: -resume: no checkpoint journal in %s; starting fresh\n", c.cfg.Tool, c.cfg.Dir)
		return nil
	}
	if loaded.Warning != "" {
		fmt.Fprintf(os.Stderr, "%s: -resume: %s\n", c.cfg.Tool, loaded.Warning)
	}
	fmt.Fprintf(os.Stderr, "%s: resuming %s: %d checkpointed cells will replay\n", c.cfg.Tool, c.cfg.Dir, len(loaded.Records))
	return nil
}

// Close flushes and closes the journal, if one is open, and shuts the
// observability server down, letting in-flight scrapes finish.
func (c *CLI) Close() error {
	var err error
	if jn := c.Harness.Journal; jn != nil {
		if err = jn.Close(); err != nil {
			err = fmt.Errorf("checkpoint journal: %w", err)
		}
	}
	if c.srv != nil {
		// The process is about to exit: a scrape still running at the
		// deadline is cut off, which loses no run output.
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		_ = c.srv.Shutdown(ctx)
		cancel()
	}
	return err
}
