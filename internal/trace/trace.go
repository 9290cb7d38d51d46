// Package trace defines the memory-reference trace format that drives the
// simulated cores, plus deterministic synthetic generators that stand in
// for SPEC CPU2006 (whose traces are proprietary; see DESIGN.md for the
// substitution argument).
//
// A trace is a stream of Records: each record is one data-memory reference
// annotated with the number of non-memory instructions the core executes
// before it. Generators are infinite and fully determined by their seed.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Record is one memory reference in a core's instruction stream.
type Record struct {
	Gap   uint32 // non-memory instructions executed before this reference
	Addr  uint64 // byte address (line-aligned addresses are conventional)
	Write bool
}

// Reader yields trace records. Next returns io.EOF after the last record.
type Reader interface {
	Next() (Record, error)
}

// SliceReader replays an in-memory record slice.
type SliceReader struct {
	recs []Record
	pos  int
}

// NewSliceReader wraps recs.
func NewSliceReader(recs []Record) *SliceReader { return &SliceReader{recs: recs} }

// Next implements Reader.
func (r *SliceReader) Next() (Record, error) {
	if r.pos >= len(r.recs) {
		return Record{}, io.EOF
	}
	rec := r.recs[r.pos]
	r.pos++
	return rec, nil
}

// The v1 file format: magic, version, then fixed 13-byte little-endian
// records (gap uint32, addr uint64, flags uint8). tracegen writes the
// compact v2 format (compact.go); FileReader is here so that OpenReader
// reads v1 files too.

var fileMagic = [8]byte{'C', 'A', 'M', 'P', 'S', 'T', 'R', '1'}

const recordBytes = 13

// FileReader reads the v1 trace format.
type FileReader struct {
	r      *bufio.Reader
	header bool
}

// newFileReader wraps r.
func newFileReader(r io.Reader) *FileReader { return &FileReader{r: bufio.NewReader(r)} }

// Next implements Reader.
func (fr *FileReader) Next() (Record, error) {
	if !fr.header {
		var magic [8]byte
		if _, err := io.ReadFull(fr.r, magic[:]); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return Record{}, fmt.Errorf("trace: truncated header: %w", io.ErrUnexpectedEOF)
			}
			return Record{}, err
		}
		if magic != fileMagic {
			return Record{}, fmt.Errorf("trace: bad magic %q", magic[:])
		}
		fr.header = true
	}
	var buf [recordBytes]byte
	if _, err := io.ReadFull(fr.r, buf[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return Record{}, io.EOF
		}
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return Record{}, fmt.Errorf("trace: truncated record: %w", err)
		}
		return Record{}, err
	}
	rec := Record{
		Gap:   binary.LittleEndian.Uint32(buf[0:4]),
		Addr:  binary.LittleEndian.Uint64(buf[4:12]),
		Write: buf[12] != 0,
	}
	if buf[12] > 1 {
		return Record{}, fmt.Errorf("trace: corrupt flags byte %#x", buf[12])
	}
	return rec, nil
}
