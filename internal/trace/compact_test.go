package trace

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

func TestCompactRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewCompactWriter(&buf)
	want := []Record{
		{Gap: 0, Addr: 0x1000},
		{Gap: 7, Addr: 0x1040, Write: true}, // +64 delta
		{Gap: 3, Addr: 0x0fc0},              // negative delta
		{Gap: 0xFFFFFFFF, Addr: 1 << 40},    // big jump
	}
	for _, rec := range want {
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != uint64(len(want)) {
		t.Fatalf("count = %d", w.Count())
	}
	r := newCompactReader(&buf)
	for i, wr := range want {
		got, err := r.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if got != wr {
			t.Fatalf("record %d = %+v, want %+v", i, got, wr)
		}
	}
	if _, err := r.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("want EOF, got %v", err)
	}
}

func TestCompactIsSmallerForStreams(t *testing.T) {
	g := mustGenerator(t, testProfile(), 0, 9)
	var recs []Record
	var v2 bytes.Buffer
	w2 := NewCompactWriter(&v2)
	for i := 0; i < 10000; i++ {
		rec, _ := g.Next()
		recs = append(recs, rec)
		if err := w2.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	_ = w2.Flush()
	if v1 := len(v1Bytes(recs...)); v2.Len() >= v1 {
		t.Fatalf("compact (%d B) not smaller than fixed (%d B)", v2.Len(), v1)
	}
}

func TestCompactRejectsBadInput(t *testing.T) {
	// Bad magic.
	if _, err := newCompactReader(bytes.NewReader([]byte("XXXXXXXXYY"))).Next(); err == nil {
		t.Fatal("bad magic accepted")
	}
	// Corrupt flags.
	var buf bytes.Buffer
	w := NewCompactWriter(&buf)
	_ = w.Write(Record{Addr: 64})
	_ = w.Flush()
	data := buf.Bytes()
	data[len(data)-1] = 0x7E
	if _, err := newCompactReader(bytes.NewReader(data)).Next(); err == nil {
		t.Fatal("corrupt flags accepted")
	}
	// Truncated mid-record.
	var buf2 bytes.Buffer
	w2 := NewCompactWriter(&buf2)
	_ = w2.Write(Record{Gap: 300, Addr: 1 << 30})
	_ = w2.Flush()
	trunc := buf2.Bytes()[:buf2.Len()-2]
	r := newCompactReader(bytes.NewReader(trunc))
	if _, err := r.Next(); err == nil {
		t.Fatal("truncated record accepted")
	}
}

func TestOpenReaderSniffsFormats(t *testing.T) {
	rec := Record{Gap: 5, Addr: 0x80, Write: true}

	r1, err := OpenReader(bytes.NewReader(v1Bytes(rec)))
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := r1.Next(); got != rec {
		t.Fatalf("v1 sniffed read = %+v", got)
	}

	var v2 bytes.Buffer
	w2 := NewCompactWriter(&v2)
	_ = w2.Write(rec)
	_ = w2.Flush()
	r2, err := OpenReader(&v2)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := r2.Next(); got != rec {
		t.Fatalf("v2 sniffed read = %+v", got)
	}

	if _, err := OpenReader(bytes.NewReader([]byte("NOTATRACE"))); err == nil {
		t.Fatal("unknown magic accepted")
	}
}
