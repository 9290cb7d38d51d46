package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Compact trace format (version 2): per-record varint encoding with
// address deltas. Synthetic traces are dominated by small strides, so
// zig-zag deltas shrink a record from 13 bytes to typically 3–4.
//
// Layout: magic "CAMPSTR2", then per record:
//
//	uvarint gap
//	svarint addressDelta (from the previous record's address; first record
//	        is a delta from zero)
//	byte    flags (bit0 write)

var compactMagic = [8]byte{'C', 'A', 'M', 'P', 'S', 'T', 'R', '2'}

// CompactWriter streams records in the compact format.
type CompactWriter struct {
	w     *bufio.Writer
	prev  uint64
	count uint64
	began bool
}

// NewCompactWriter returns a compact-format writer on w.
func NewCompactWriter(w io.Writer) *CompactWriter {
	return &CompactWriter{w: bufio.NewWriter(w)}
}

// Write appends one record.
func (cw *CompactWriter) Write(rec Record) error {
	if !cw.began {
		if _, err := cw.w.Write(compactMagic[:]); err != nil {
			return err
		}
		cw.began = true
	}
	var buf [binary.MaxVarintLen64 * 2]byte
	n := binary.PutUvarint(buf[:], uint64(rec.Gap))
	n += binary.PutVarint(buf[n:], int64(rec.Addr)-int64(cw.prev))
	if _, err := cw.w.Write(buf[:n]); err != nil {
		return err
	}
	flags := byte(0)
	if rec.Write {
		flags = 1
	}
	if err := cw.w.WriteByte(flags); err != nil {
		return err
	}
	cw.prev = rec.Addr
	cw.count++
	return nil
}

// Count returns records written.
func (cw *CompactWriter) Count() uint64 { return cw.count }

// Flush flushes buffered output.
func (cw *CompactWriter) Flush() error {
	if !cw.began {
		if _, err := cw.w.Write(compactMagic[:]); err != nil {
			return err
		}
		cw.began = true
	}
	return cw.w.Flush()
}

// CompactReader reads the compact format. It implements Reader.
type CompactReader struct {
	r      *bufio.Reader
	prev   uint64
	header bool
}

// newCompactReader wraps r.
func newCompactReader(r io.Reader) *CompactReader {
	return &CompactReader{r: bufio.NewReader(r)}
}

// Next implements Reader.
func (cr *CompactReader) Next() (Record, error) {
	if !cr.header {
		var magic [8]byte
		if _, err := io.ReadFull(cr.r, magic[:]); err != nil {
			// A stream with no header at all is corrupt, not empty: a valid
			// empty trace still carries the magic, so plain EOF here would
			// let a truncated file masquerade as zero records.
			if errors.Is(err, io.EOF) {
				err = io.ErrUnexpectedEOF
			}
			return Record{}, fmt.Errorf("trace: compact header: %w", err)
		}
		if magic != compactMagic {
			return Record{}, fmt.Errorf("trace: bad compact magic %q", magic[:])
		}
		cr.header = true
	}
	gap, err := binary.ReadUvarint(cr.r)
	if err != nil {
		if errors.Is(err, io.EOF) {
			return Record{}, io.EOF
		}
		return Record{}, fmt.Errorf("trace: compact gap: %w", err)
	}
	if gap > 0xFFFFFFFF {
		return Record{}, fmt.Errorf("trace: compact gap %d overflows uint32", gap)
	}
	delta, err := binary.ReadVarint(cr.r)
	if err != nil {
		return Record{}, fmt.Errorf("trace: compact delta: %w", err)
	}
	flags, err := cr.r.ReadByte()
	if err != nil {
		return Record{}, fmt.Errorf("trace: compact flags: %w", err)
	}
	if flags > 1 {
		return Record{}, fmt.Errorf("trace: corrupt compact flags %#x", flags)
	}
	addr := uint64(int64(cr.prev) + delta)
	cr.prev = addr
	return Record{Gap: uint32(gap), Addr: addr, Write: flags == 1}, nil
}

// OpenReader sniffs the magic of a trace stream and returns the matching
// reader (fixed v1 or compact v2). The reader must support at least 8
// bytes of lookahead, which bufio provides.
func OpenReader(r io.Reader) (Reader, error) {
	br := bufio.NewReader(r)
	magic, err := br.Peek(8)
	if err != nil {
		return nil, fmt.Errorf("trace: sniffing format: %w", err)
	}
	switch {
	case [8]byte(magic) == fileMagic:
		return newFileReader(br), nil
	case [8]byte(magic) == compactMagic:
		return newCompactReader(br), nil
	default:
		return nil, fmt.Errorf("trace: unrecognized magic %q", magic)
	}
}
