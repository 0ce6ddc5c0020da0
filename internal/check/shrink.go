package check

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/addr"
	"repro/internal/hmm"
)

// Factory builds a fresh instance of the design under test, including
// any fault injector, so a shrink candidate replays from identical
// initial state. It must be deterministic.
type Factory func() (hmm.MemSystem, error)

// maxShrinkRuns bounds total replays so shrinking a long workload stays
// a bounded cost even when every probe fails.
const maxShrinkRuns = 600

// Shrink minimizes ops to a small subsequence that still violates the
// scalar lockstep oracle, replaying every candidate on a fresh instance
// from mk. It first truncates at the violating op, then runs ddmin
// (complement reduction with increasing granularity). Any violation — not
// just the original kind — accepts a candidate, which is standard for
// delta debugging and keeps repros as short as possible. Returns the
// minimized ops and the violation they produce, or (nil, nil) if ops
// pass.
func Shrink(mk Factory, ops []Op, cfg Config) ([]Op, *Violation) {
	runs := 0
	replay := func(cand []Op) *Violation {
		runs++
		mem, err := mk()
		if err != nil {
			return nil
		}
		return RunOps(mem, cand, cfg)
	}
	v := replay(ops)
	if v == nil {
		return nil, nil
	}
	cur := truncate(ops, v)
	n := 2
	for len(cur) > 1 && n <= len(cur) && runs < maxShrinkRuns {
		chunk := (len(cur) + n - 1) / n
		reduced := false
		for start := 0; start < len(cur); start += chunk {
			end := start + chunk
			if end > len(cur) {
				end = len(cur)
			}
			cand := make([]Op, 0, len(cur)-(end-start))
			cand = append(cand, cur[:start]...)
			cand = append(cand, cur[end:]...)
			if len(cand) == 0 {
				continue
			}
			if cv := replay(cand); cv != nil {
				cur = truncate(cand, cv)
				v = cv
				n = max(2, n-1)
				reduced = true
				break
			}
			if runs >= maxShrinkRuns {
				break
			}
		}
		if !reduced {
			if n == len(cur) {
				break
			}
			n = min(len(cur), 2*n)
		}
	}
	return cur, v
}

// truncate drops everything after the violating op: later ops cannot
// matter to a violation already raised.
func truncate(ops []Op, v *Violation) []Op {
	if v.OpIndex+1 < len(ops) {
		return ops[:v.OpIndex+1]
	}
	return ops
}

// EncodeOps renders ops as a compact single-line repro string: one token
// per op — r<hex> read, w<hex> write, b<hex> writeback.
func EncodeOps(ops []Op) string {
	var sb strings.Builder
	for i, op := range ops {
		if i > 0 {
			sb.WriteByte(' ')
		}
		switch {
		case op.WB:
			sb.WriteByte('b')
		case op.Write:
			sb.WriteByte('w')
		default:
			sb.WriteByte('r')
		}
		sb.WriteString(strconv.FormatUint(uint64(op.Addr), 16))
	}
	return sb.String()
}

// DecodeOps parses the EncodeOps format back into ops.
func DecodeOps(s string) ([]Op, error) {
	fields := strings.Fields(s)
	ops := make([]Op, 0, len(fields))
	for _, f := range fields {
		if len(f) < 2 {
			return nil, fmt.Errorf("check: bad op token %q", f)
		}
		a, err := strconv.ParseUint(f[1:], 16, 64)
		if err != nil {
			return nil, fmt.Errorf("check: bad op token %q: %v", f, err)
		}
		op := Op{Addr: addr.Addr(a)}
		switch f[0] {
		case 'r':
		case 'w':
			op.Write = true
		case 'b':
			op.WB = true
		default:
			return nil, fmt.Errorf("check: bad op kind %q", f[0])
		}
		ops = append(ops, op)
	}
	return ops, nil
}

// OpsFromBytes decodes a raw fuzz-corpus byte stream: 9 bytes per op
// (1 flag byte — bit0 write, bit1 writeback — then 8 bytes LE address),
// capped at maxOps. Trailing partial records are dropped.
func OpsFromBytes(data []byte, maxOps int) []Op {
	n := len(data) / 9
	if n > maxOps {
		n = maxOps
	}
	ops := make([]Op, 0, n)
	for i := 0; i < n; i++ {
		rec := data[i*9 : i*9+9]
		ops = append(ops, Op{
			Addr:  addr.Addr(binary.LittleEndian.Uint64(rec[1:])),
			Write: rec[0]&1 != 0,
			WB:    rec[0]&2 != 0,
		})
	}
	return ops
}

// BytesFromOps is the inverse of OpsFromBytes, used to seed fuzz corpora.
func BytesFromOps(ops []Op) []byte {
	out := make([]byte, 0, len(ops)*9)
	for _, op := range ops {
		var flag byte
		if op.Write {
			flag |= 1
		}
		if op.WB {
			flag |= 2
		}
		var rec [9]byte
		rec[0] = flag
		binary.LittleEndian.PutUint64(rec[1:], uint64(op.Addr))
		out = append(out, rec[:]...)
	}
	return out
}
