package tracecodec

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode/utf8"
)

// zsim-style text traces: an optional "cycle, address, type" header
// line, then one record per line. The exemplar's memory controller
// writes exactly that header (SNIPPETS.md, mc.cpp); field separators in
// the wild vary between commas and whitespace, addresses appear in
// decimal or 0x-hex, and the type column is 0/1 or a letter mnemonic,
// so the reader accepts all of those. The writer emits one canonical
// form — "cycle, 0xaddr, type" — so converting any accepted variant
// through this package normalizes it byte-deterministically.

// textHeader is the canonical header line the writer emits and the
// reader skips.
const textHeader = "cycle, address, type"

// TextWriter encodes records as canonical zsim-style text.
type TextWriter struct {
	w      *bufio.Writer
	wroteH bool
	buf    []byte
}

// NewTextWriter returns a text Writer over w.
func NewTextWriter(w io.Writer) *TextWriter {
	return &TextWriter{w: bufio.NewWriterSize(w, 64*1024)}
}

// Write implements Writer.
func (t *TextWriter) Write(r Rec) error {
	if !t.wroteH {
		t.wroteH = true
		if _, err := t.w.WriteString(textHeader + "\n"); err != nil {
			return err
		}
	}
	b := t.buf[:0]
	b = strconv.AppendUint(b, r.Cycle, 10)
	b = append(b, ", 0x"...)
	b = strconv.AppendUint(b, r.Addr, 16)
	if r.Write {
		b = append(b, ", 1\n"...)
	} else {
		b = append(b, ", 0\n"...)
	}
	t.buf = b
	_, err := t.w.Write(b)
	return err
}

// Close implements Writer: it flushes, emitting the header even for an
// empty trace so the output is recognizably a trace file.
func (t *TextWriter) Close() error {
	if !t.wroteH {
		t.wroteH = true
		if _, err := t.w.WriteString(textHeader + "\n"); err != nil {
			return err
		}
	}
	return t.w.Flush()
}

// TextReader decodes zsim-style text traces.
type TextReader struct {
	r    *bufio.Reader
	line int
	err  error
	done bool
}

// NewTextReader returns a text Reader over r.
func NewTextReader(r io.Reader) *TextReader {
	if br, ok := r.(*bufio.Reader); ok {
		return &TextReader{r: br}
	}
	return &TextReader{r: bufio.NewReaderSize(r, 64*1024)}
}

// maxLineBytes bounds one text line; a longer one is damage, not data
// (a maximal record is well under 64 bytes).
const maxLineBytes = 1 << 16

// Next implements Reader.
func (t *TextReader) Next() (Rec, bool) {
	for !t.done && t.err == nil {
		line, err := t.r.ReadString('\n')
		if err == io.EOF {
			t.done = true
			if line == "" {
				return Rec{}, false
			}
			// A final line without a newline still decodes.
		} else if err != nil {
			t.err = fmt.Errorf("tracecodec: text: line %d: %w", t.line+1, err)
			return Rec{}, false
		}
		if len(line) > maxLineBytes {
			t.err = fmt.Errorf("tracecodec: text: line %d: longer than %d bytes", t.line+1, maxLineBytes)
			return Rec{}, false
		}
		t.line++
		s := strings.TrimSpace(line)
		if s == "" || s[0] == '#' {
			continue
		}
		if t.line == 1 && !(s[0] >= '0' && s[0] <= '9') {
			// The zsim header ("cycle, address, type") or any other
			// single descriptive first line. Control bytes or invalid
			// UTF-8 there are binary damage, not a description.
			if !printable(s) {
				t.err = fmt.Errorf("tracecodec: text: line 1: not a header or record: holds control bytes or invalid UTF-8")
				return Rec{}, false
			}
			continue
		}
		rec, err := parseTextRec(s)
		if err != nil {
			t.err = fmt.Errorf("tracecodec: text: line %d: %v", t.line, err)
			return Rec{}, false
		}
		return rec, true
	}
	return Rec{}, false
}

// Err implements Reader.
func (t *TextReader) Err() error { return t.err }

// printable reports whether s is valid UTF-8 holding no control byte
// other than tab.
func printable(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 && c != '\t' || c == 0x7f {
			return false
		}
	}
	return utf8.ValidString(s)
}

// parseTextRec decodes one record line: three fields split on commas
// and/or whitespace.
func parseTextRec(s string) (Rec, error) {
	fields := splitFields(s)
	if len(fields) != 3 {
		return Rec{}, fmt.Errorf("want 3 fields (cycle, address, type), got %d in %q", len(fields), s)
	}
	cycle, err := strconv.ParseUint(fields[0], 10, 64)
	if err != nil {
		return Rec{}, fmt.Errorf("bad cycle %q", fields[0])
	}
	a := fields[1]
	base := 10
	if len(a) > 2 && (a[:2] == "0x" || a[:2] == "0X") {
		a, base = a[2:], 16
	}
	addrV, err := strconv.ParseUint(a, base, 64)
	if err != nil {
		return Rec{}, fmt.Errorf("bad address %q", fields[1])
	}
	wr, err := parseType(fields[2])
	if err != nil {
		return Rec{}, err
	}
	return Rec{Cycle: cycle, Addr: addrV, Write: wr}, nil
}

// splitFields splits on any run of commas, spaces, and tabs.
func splitFields(s string) []string {
	return strings.FieldsFunc(s, func(r rune) bool {
		return r == ',' || r == ' ' || r == '\t' || r == '\r'
	})
}

// parseType maps the type column onto load/store: numeric 0/1 as zsim
// writes, plus the common letter mnemonics.
func parseType(s string) (bool, error) {
	switch strings.ToUpper(s) {
	case "0", "R", "RD", "L", "LD", "READ", "LOAD":
		return false, nil
	case "1", "W", "WR", "S", "ST", "WRITE", "STORE":
		return true, nil
	default:
		return false, fmt.Errorf("bad access type %q (want 0/1 or R/W)", s)
	}
}
