// Command bbtrace generates, inspects, converts, and characterizes
// memory access traces. It writes the encodings internal/tracecodec
// writes: BBT1 framed binary (the default) and zsim-style text, either
// optionally gzipped, and reads only those.
//
//	bbtrace gen -bench mcf -n 1000000                 # record a synthetic stream to mcf.bbt1
//	bbtrace gen -bench mcf -format text -gz -o mcf.txt.gz
//	bbtrace convert -to text mcf.bbt1 mcf.txt         # any format -> text or binary
//	bbtrace info mcf.bbt1                             # characterize a trace in any encoding
//	bbtrace bench                                     # characterize all Table II profiles
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"repro/internal/config"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/tracecodec"
)

func main() {
	// Traces are generated against the default system's geometry; refuse
	// to run at all if that configuration is broken.
	if err := config.Default().Validate(); err != nil {
		log.Fatalf("bbtrace: invalid default configuration: %v", err)
	}
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "gen":
		gen(os.Args[2:])
	case "convert":
		convert(os.Args[2:])
	case "info":
		info(os.Args[2:])
	case "bench":
		benchTable(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: bbtrace gen|convert|info|bench [flags]")
	os.Exit(2)
}

// pump streams st into sink in trace.FillBatch batches over one
// reusable buffer — the same bounded-memory ingestion shape cpu.Run
// uses, so generating a 10M-access trace allocates the buffer, the
// writer, and nothing per access. each (optional) observes every access
// after it is written.
func pump(st trace.Stream, sink *tracecodec.AccessWriter, each func(trace.Access)) error {
	buf := make([]trace.Access, 4096)
	for {
		n := trace.FillBatch(st, buf)
		if n == 0 {
			return trace.Err(st)
		}
		for _, a := range buf[:n] {
			if err := sink.Write(a); err != nil {
				return err
			}
			if each != nil {
				each(a)
			}
		}
	}
}

func gen(args []string) {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	bench := fs.String("bench", "mcf", "Table II benchmark name")
	n := fs.Uint64("n", 1_000_000, "accesses to record")
	scale := fs.Uint64("scale", 128, "footprint scale factor")
	format := fs.String("format", "binary", "output encoding: binary (BBT1) or text")
	gz := fs.Bool("gz", false, "gzip the output")
	out := fs.String("o", "", "output file (default <bench> + format extension)")
	var of obs.Flags
	of.RegisterTelemetry(fs)
	of.RegisterServe(fs)
	fs.Parse(args)

	if err := of.Validate(); err != nil {
		log.Fatalf("bbtrace gen: %v", err)
	}
	// Trace generation has no sweep to export, but the pprof endpoint is
	// still useful for profiling the generator itself.
	srv, err := of.StartServer(context.Background(), nil, obs.NewRunLogger(os.Stderr))
	if err != nil {
		log.Fatalf("bbtrace gen: %v", err)
	}
	if srv != nil {
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			_ = srv.Shutdown(ctx)
			cancel()
		}()
	}
	b, err := trace.ByName(*bench)
	if err != nil {
		log.Fatalf("bbtrace: unknown benchmark %q (known: %s)", *bench, strings.Join(trace.Names(), ", "))
	}
	gen, err := trace.NewSynthetic(b.Scale(*scale).Profile)
	if err != nil {
		log.Fatal(err)
	}
	kind, err := tracecodec.ParseKind(*format)
	if err != nil {
		log.Fatalf("bbtrace gen: %v", err)
	}
	path := *out
	if path == "" {
		path = *bench + ".txt"
		if kind == tracecodec.KindBinary {
			path = *bench + ".bbt1"
		}
		if *gz {
			path += ".gz"
		}
	}
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	sink := tracecodec.NewAccessWriter(tracecodec.NewWriter(f, tracecodec.Format{Kind: kind, Gzip: *gz}))
	// The generator has no cycle clock, so the Chrome trace uses the access
	// index as its timebase (FreqMHz 1000 renders access i at i ns).
	const pageShift = 12
	var (
		pages  map[uint64]struct{}
		writes uint64
		i      uint64
		tr     = telemetry.TraceRun{Name: "gen/" + *bench, FreqMHz: 1000}
	)
	var each func(trace.Access)
	if of.TelemetryEpoch > 0 {
		pages = make(map[uint64]struct{})
		tr.CounterNames = []string{"footprint_bytes", "writes"}
		each = func(a trace.Access) {
			pages[uint64(a.Addr)>>pageShift] = struct{}{}
			if a.Write {
				writes++
			}
			i++
			if i%of.TelemetryEpoch == 0 {
				tr.Events = append(tr.Events,
					telemetry.Event{Cycle: i, Kind: telemetry.EvEpoch, A: i})
				tr.Counters = append(tr.Counters, telemetry.CounterSample{
					Cycle:  i,
					Values: []uint64{uint64(len(pages)) << pageShift, writes},
				})
			}
		}
	}
	if err := pump(&trace.Limit{S: gen, N: *n}, sink, each); err != nil {
		log.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		log.Fatal(err)
	}
	if of.TraceOut != "" {
		tf, err := os.Create(of.TraceOut)
		if err != nil {
			log.Fatal(err)
		}
		if err := telemetry.WriteChromeTrace(tf, []telemetry.TraceRun{tr}); err != nil {
			tf.Close()
			log.Fatal(err)
		}
		// Close errors matter here too: a truncated trace JSON fails to
		// parse in Perfetto with no hint of why.
		if err := tf.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %d footprint samples to %s\n", len(tr.Counters), of.TraceOut)
	}
	st, err := f.Stat()
	if err != nil {
		log.Fatal(err)
	}
	// Close errors matter on the write path: a full disk surfaces here,
	// and a silently truncated trace would poison every replay of it.
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %d accesses to %s (%.2f MB, %.2f B/access)\n",
		sink.Count(), path, float64(st.Size())/1e6, float64(st.Size())/float64(sink.Count()))
}

// convert re-encodes a trace file: the input format (including gzip)
// is sniffed from its bytes, the output
// format is chosen with -to/-gz. Conversion is streaming and
// bounded-memory, and refuses damaged input rather than writing a short
// output.
func convert(args []string) {
	fs := flag.NewFlagSet("convert", flag.ExitOnError)
	to := fs.String("to", "binary", "output encoding: binary (BBT1) or text")
	gz := fs.Bool("gz", false, "gzip the output")
	fs.Parse(args)
	if fs.NArg() != 2 {
		log.Fatal("bbtrace convert: need input and output files (use - for stdin/stdout)")
	}
	kind, err := tracecodec.ParseKind(*to)
	if err != nil {
		log.Fatalf("bbtrace convert: %v", err)
	}
	in := os.Stdin
	if fs.Arg(0) != "-" {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		in = f
	}
	r, err := tracecodec.Open(in)
	if err != nil {
		log.Fatalf("bbtrace convert: %v", err)
	}
	out := os.Stdout
	if fs.Arg(1) != "-" {
		f, err := os.Create(fs.Arg(1))
		if err != nil {
			log.Fatal(err)
		}
		defer func() {
			// Close errors matter on the write path: a full disk must not
			// leave a silently truncated trace behind.
			if err := f.Close(); err != nil {
				log.Fatalf("bbtrace convert: %v", err)
			}
		}()
		out = f
	}
	w := tracecodec.NewWriter(out, tracecodec.Format{Kind: kind, Gzip: *gz})
	n, err := tracecodec.Convert(r, w)
	if err != nil {
		log.Fatalf("bbtrace convert: %v", err)
	}
	if err := w.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "converted %d accesses\n", n)
}

func info(args []string) {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	max := fs.Uint64("n", 1<<62, "max accesses to read")
	fs.Parse(args)
	if fs.NArg() != 1 {
		log.Fatal("bbtrace info: need one trace file")
	}
	c, err := characterizeFile(fs.Arg(0), *max)
	if err != nil {
		log.Fatalf("bbtrace info: %v", err)
	}
	printChar(fs.Arg(0), c)
}

// characterizeFile summarizes up to max accesses of the trace at path,
// in any encoding tracecodec.Open sniffs. Records become accesses the
// way replay sees them (tracecodec.Stream), so the first gap is 1.
func characterizeFile(path string, max uint64) (trace.Characteristics, error) {
	f, err := os.Open(path)
	if err != nil {
		return trace.Characteristics{}, err
	}
	defer f.Close()
	r, err := tracecodec.Open(f)
	if err != nil {
		return trace.Characteristics{}, err
	}
	st := tracecodec.NewStream(r)
	c := trace.Characterize(st, max)
	return c, st.Err()
}

func benchTable(args []string) {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	n := fs.Uint64("n", 300_000, "accesses to characterize per profile")
	scale := fs.Uint64("scale", 128, "footprint scale factor")
	var of obs.Flags
	of.RegisterSweep(fs)
	fs.Parse(args)
	// One profile per cell; each cell owns its generator, so the table is
	// identical at any -parallel setting.
	chars, err := runner.Map(of.Parallel, runner.Policy{Timeout: of.CellTimeout}, trace.TableII(),
		func(_ int, b trace.Benchmark) (trace.Characteristics, error) {
			gen, err := trace.NewSynthetic(b.Scale(*scale).Profile)
			if err != nil {
				return trace.Characteristics{}, err
			}
			return trace.Characterize(gen, *n), nil
		})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-11s %10s %10s %9s %9s %9s\n",
		"bench", "accesses", "footprint", "seq%", "reuse%", "write%")
	for i, b := range trace.TableII() {
		c := chars[i]
		fmt.Printf("%-11s %10d %9.1fM %8.1f%% %8.1f%% %8.1f%%\n",
			b.Profile.Name, c.Accesses, float64(c.FootprintB)/1e6,
			c.SeqFraction*100, c.ReuseFraction*100,
			float64(c.Writes)/float64(c.Accesses)*100)
	}
}

func printChar(name string, c trace.Characteristics) {
	fmt.Printf("trace %s\n", name)
	fmt.Printf("accesses       %12d\n", c.Accesses)
	fmt.Printf("instructions   %12d\n", c.Instructions)
	fmt.Printf("writes         %12d (%.1f%%)\n", c.Writes, float64(c.Writes)/float64(c.Accesses)*100)
	fmt.Printf("footprint      %12.1f MB\n", float64(c.FootprintB)/1e6)
	fmt.Printf("seq fraction   %12.1f%%\n", c.SeqFraction*100)
	fmt.Printf("reuse fraction %12.1f%%\n", c.ReuseFraction*100)
	fmt.Printf("address range  %#x .. %#x\n", uint64(c.MinAddr), uint64(c.MaxAddr))
}
