package harness

import (
	"fmt"
	"strings"

	"repro/internal/config"
	"repro/internal/trace"
)

// Matrix runs an explicit design × benchmark matrix over sys under the
// full harness policy — worker pool, per-cell timeout, checkpoint
// journal, interrupt drain — and returns results in matrix order. It is
// the sweep behind bumblebee-sim's list mode; unlike the figure sweeps
// it takes the system verbatim so flag overrides (block size, faults)
// apply to every cell.
func (h *Harness) Matrix(sys config.System, designs, benches []string) ([][]RunResult, error) {
	flat, err := sweepShared(h, len(designs)*len(benches),
		func(i int) shared {
			d, bench := designs[i/len(benches)], benches[i%len(benches)]
			b, err := trace.ByName(bench)
			if err != nil {
				// An unknown benchmark fails its cells when the trace opens.
				err = fmt.Errorf("unknown benchmark %q (known: %s)", bench, strings.Join(trace.Names(), ", "))
				return shared{
					id:     cellID("unknown", d, bench),
					key:    cellID("unknown", bench),
					open:   func() (trace.Stream, error) { return nil, err },
					design: config.Design(d), bench: bench,
				}
			}
			return h.syntheticCell(config.Design(d), sys, b.Scale(h.Scale))
		}, nil)
	return byRow(flat, len(designs), len(benches)), err
}
