// Package tracecodec is the streaming trace-ingestion layer: it reads
// and writes real memory-trace files so the simulator can replay
// captured workloads instead of only synthesizing them. Three
// interchangeable encodings are supported behind one Reader/Writer pair:
//
//   - zsim-style text ("cycle, address, type" header plus one record per
//     line), the format the zsim-bumblebee exemplar emits;
//   - BBT1, a compact length-prefixed binary framing with a CRC32 per
//     block, so torn or bit-flipped trace files are refused instead of
//     silently replayed short (the internal/ckpt damage model);
//   - either of the above behind gzip, detected transparently by magic
//     bytes.
//
// The legacy .bbtr recording format, which older versions of bbtrace
// wrote, is refused: it has no checksum, so a flipped bit would decode
// to a different, well-formed trace. Open names it in the error rather
// than handing it to the text decoder.
//
// Readers are bounded-memory: they decode one record (text) or one
// framed block (binary) at a time regardless of trace size, and the
// Stream adapter feeds the decoded records straight into cpu.Run's
// batch ingestion path.
package tracecodec

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io"
)

// Rec is one decoded trace record: the cycle the access was issued, its
// byte address, and whether it is a store. This is the schema of the
// zsim "cycle, address, type" text traces; every codec in this package
// round-trips it exactly.
type Rec struct {
	Cycle uint64
	Addr  uint64
	Write bool
}

// Reader decodes a trace record stream. Next returns false at end of
// trace OR on damage; Err distinguishes the two (nil means clean EOF).
// A Reader never silently truncates: any framing, checksum, or syntax
// damage is an Err, because a short replay would poison every result
// derived from it.
type Reader interface {
	Next() (Rec, bool)
	Err() error
}

// Writer encodes a trace record stream. Close flushes all buffered
// framing (and the gzip trailer when compressing) but does not close
// the underlying io.Writer, which the caller owns.
type Writer interface {
	Write(Rec) error
	Close() error
}

// Kind names a concrete encoding.
type Kind int

const (
	KindText   Kind = iota // zsim-style "cycle, address, type" text
	KindBinary             // BBT1 length-prefixed CRC32-framed binary
)

func (k Kind) String() string {
	switch k {
	case KindText:
		return "text"
	case KindBinary:
		return "binary"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Format selects a Writer encoding: the record codec plus optional gzip
// compression around it.
type Format struct {
	Kind Kind
	Gzip bool
}

func (f Format) String() string {
	if f.Gzip {
		return f.Kind.String() + "+gzip"
	}
	return f.Kind.String()
}

// ParseKind parses a -to flag value.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "text":
		return KindText, nil
	case "binary":
		return KindBinary, nil
	default:
		return 0, fmt.Errorf("tracecodec: unknown format %q (want text or binary)", s)
	}
}

// NewWriter returns a Writer encoding recs to w in the given format.
func NewWriter(w io.Writer, f Format) Writer {
	if f.Gzip {
		gz := gzip.NewWriter(w)
		var inner Writer
		switch f.Kind {
		case KindBinary:
			inner = NewBinaryWriter(gz)
		default:
			inner = NewTextWriter(gz)
		}
		return &gzipWriter{inner: inner, gz: gz}
	}
	switch f.Kind {
	case KindBinary:
		return NewBinaryWriter(w)
	default:
		return NewTextWriter(w)
	}
}

// gzipWriter closes the compression layer after the inner codec's own
// Close, so the gzip trailer lands after the final flushed block.
type gzipWriter struct {
	inner Writer
	gz    *gzip.Writer
}

func (g *gzipWriter) Write(r Rec) error { return g.inner.Write(r) }

func (g *gzipWriter) Close() error {
	if err := g.inner.Close(); err != nil {
		return err
	}
	return g.gz.Close()
}

// Magic bytes the sniffer distinguishes.
const (
	binaryMagic = "BBT1"
	bbtrMagic   = "BBTR" // legacy recording format, refused
)

// Open sniffs r's leading bytes and returns a Reader for whichever
// encoding it finds: gzip (unwrapped, then sniffed again), BBT1 binary,
// or text. Sniffing consumes nothing the codec does
// not own. Open reads only magic bytes up front, so arbitrarily large
// traces stream in bounded memory.
func Open(r io.Reader) (Reader, error) {
	br := bufio.NewReaderSize(r, 64*1024)
	head, err := br.Peek(2)
	if err != nil {
		if err == io.EOF {
			return nil, fmt.Errorf("tracecodec: empty trace")
		}
		return nil, fmt.Errorf("tracecodec: sniff: %w", err)
	}
	if head[0] == 0x1f && head[1] == 0x8b {
		gz, err := gzip.NewReader(br)
		if err != nil {
			return nil, fmt.Errorf("tracecodec: gzip: %w", err)
		}
		// One unwrap only: a double-gzipped file decodes to its inner
		// gzip stream, which no record codec claims, and fails cleanly.
		return openPlain(bufio.NewReaderSize(gz, 64*1024))
	}
	return openPlain(br)
}

func openPlain(br *bufio.Reader) (Reader, error) {
	head, err := br.Peek(4)
	if err != nil && len(head) == 0 {
		return nil, fmt.Errorf("tracecodec: empty trace")
	}
	switch {
	case string(head) == binaryMagic:
		return NewBinaryReader(br)
	case string(head) == bbtrMagic:
		return nil, fmt.Errorf("tracecodec: legacy .bbtr recording: no longer read (it has no checksum)")
	default:
		return NewTextReader(br), nil
	}
}

// Convert streams every record of in to out, returning the record
// count. It fails on the first decode or encode error; out.Close is the
// caller's (a partially converted file must not look finished).
func Convert(in Reader, out Writer) (uint64, error) {
	var n uint64
	for {
		rec, ok := in.Next()
		if !ok {
			break
		}
		if err := out.Write(rec); err != nil {
			return n, err
		}
		n++
	}
	return n, in.Err()
}
