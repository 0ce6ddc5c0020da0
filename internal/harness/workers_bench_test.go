//go:build unix

package harness

import (
	"bytes"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/trace"
	"repro/internal/tracecodec"
)

// BenchmarkReplaySweepWorkers runs replay-all's shape — one recorded mcf
// trace replayed on every design at the scale-128 geometry — at Parallel
// 1 and 2, and reports what the second worker costs. Odd iterations run
// the two settings in the other order, so neither always inherits the
// other's heap and caches (run an even -benchtime to balance them):
// cpu-ratio is the two-worker runs' user CPU over the one-worker runs'
// (1.0 when the second worker adds no work), and ns/access-Nw is each
// setting's wall time per simulated access (trace accesses × designs).
func BenchmarkReplaySweepWorkers(b *testing.B) {
	const n = 400_000
	bench, err := trace.ByName("mcf")
	if err != nil {
		b.Fatal(err)
	}
	p := bench.Scale(128).Profile
	p.Seed = 11
	gen, err := trace.NewSynthetic(p)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	w := tracecodec.NewAccessWriter(tracecodec.NewWriter(&buf, tracecodec.Format{Kind: tracecodec.KindBinary}))
	for i := 0; i < n; i++ {
		a, _ := gen.Next()
		if err := w.Write(a); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	var opens atomic.Int64
	open := bytesOpener(buf.Bytes(), &opens)

	var user, wall [2]time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		order := []int{0, 1}
		if i%2 == 1 {
			order = []int{1, 0}
		}
		for _, k := range order {
			h := &Harness{Scale: 128, Parallel: k + 1}
			u0, t0 := userCPU(b), time.Now()
			if _, err := h.ReplaySweep(AllDesigns, "mcf", open); err != nil {
				b.Fatal(err)
			}
			wall[k] += time.Since(t0)
			user[k] += userCPU(b) - u0
		}
	}
	accesses := float64(b.N) * n * float64(len(AllDesigns))
	b.ReportMetric(float64(user[1])/float64(user[0]), "cpu-ratio")
	b.ReportMetric(float64(wall[0].Nanoseconds())/accesses, "ns/access-1w")
	b.ReportMetric(float64(wall[1].Nanoseconds())/accesses, "ns/access-2w")
}

// userCPU returns the process's user CPU time so far.
func userCPU(b *testing.B) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano())
}
