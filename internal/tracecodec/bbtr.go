package tracecodec

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// bbtr is the legacy recording format older bbtrace versions wrote.
// It is read-only: Open still decodes it, nothing writes it.
//
//	magic "BBTR" | version u8 | record*
//	record: addrDelta zigzag-varint | gap uvarint | flags u8 (bit0 = write)
//
// Addresses are deltas against the previous record; the gap is the
// access's instruction gap, so cycles are rebuilt by accumulating gaps.
// The format has no checksum. The reader refuses the damage it can see
// (bad header, torn record, a gap wider than 32 bits), but a flipped bit
// inside a record decodes to a different, well-formed trace; BBT1's
// per-frame CRC is why it replaced this format.
const bbtrVersion = 1

// bbtrReader decodes a .bbtr recording straight into Recs.
type bbtrReader struct {
	r     *bufio.Reader
	cycle uint64
	addr  uint64
	err   error
}

// newBBTRReader validates the header Open sniffed.
func newBBTRReader(br *bufio.Reader) (Reader, error) {
	var head [len(bbtrMagic) + 1]byte
	if _, err := io.ReadFull(br, head[:]); err != nil {
		return nil, fmt.Errorf("tracecodec: bbtr: reading header: %w", err)
	}
	if string(head[:len(bbtrMagic)]) != bbtrMagic {
		return nil, fmt.Errorf("tracecodec: bbtr: bad magic %q", head[:len(bbtrMagic)])
	}
	if v := head[len(bbtrMagic)]; v != bbtrVersion {
		return nil, fmt.Errorf("tracecodec: bbtr: unsupported version %d", v)
	}
	return &bbtrReader{r: br}, nil
}

// Next implements Reader. Clean EOF is only an EOF before a record's
// first byte; anything else mid-record is truncation.
func (b *bbtrReader) Next() (Rec, bool) {
	if b.err != nil {
		return Rec{}, false
	}
	delta, err := binary.ReadUvarint(b.r)
	if errors.Is(err, io.EOF) {
		return Rec{}, false
	}
	if err != nil {
		return b.fail(fmt.Errorf("address delta: %w", err))
	}
	gap, err := binary.ReadUvarint(b.r)
	if err != nil {
		return b.fail(fmt.Errorf("truncated record: %w", err))
	}
	if gap > math.MaxUint32 {
		return b.fail(fmt.Errorf("gap %d does not fit 32 bits", gap))
	}
	flags, err := b.r.ReadByte()
	if err != nil {
		return b.fail(fmt.Errorf("truncated record: %w", err))
	}
	b.cycle += gap
	b.addr = uint64(int64(b.addr) + unzigzag(delta))
	return Rec{Cycle: b.cycle, Addr: b.addr, Write: flags&1 != 0}, true
}

func (b *bbtrReader) fail(err error) (Rec, bool) {
	b.err = fmt.Errorf("tracecodec: bbtr: %w", err)
	return Rec{}, false
}

// Err implements Reader.
func (b *bbtrReader) Err() error { return b.err }
