package trace

import (
	"bytes"
	"errors"
	"io"
	"math"
	"reflect"
	"testing"
)

func TestSliceReaderAndLimit(t *testing.T) {
	recs := []Record{{Gap: 1, Addr: 64}, {Gap: 2, Addr: 128, Write: true}, {Gap: 3, Addr: 192}}
	r := NewLimit(NewSliceReader(recs), 2)
	var got []Record
	for {
		rec, err := r.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, rec)
	}
	if len(got) != 2 || got[0] != recs[0] || got[1] != recs[1] {
		t.Fatalf("got %+v", got)
	}
}

func TestFileRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	want := []Record{
		{Gap: 0, Addr: 0},
		{Gap: 7, Addr: 0xdeadbeef00, Write: true},
		{Gap: math.MaxUint32, Addr: math.MaxUint64 &^ 63},
	}
	for _, rec := range want {
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != 3 {
		t.Fatalf("count = %d", w.Count())
	}
	fr := NewFileReader(&buf)
	for i, wantRec := range want {
		got, err := fr.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if got != wantRec {
			t.Fatalf("record %d = %+v, want %+v", i, got, wantRec)
		}
	}
	if _, err := fr.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestFileReaderEmptyFileHasHeader(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	fr := NewFileReader(&buf)
	if _, err := fr.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("empty trace should EOF cleanly, got %v", err)
	}
}

func TestFileReaderRejectsBadMagic(t *testing.T) {
	fr := NewFileReader(bytes.NewReader([]byte("NOTATRACE_____")))
	if _, err := fr.Next(); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestFileReaderRejectsTruncation(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	_ = w.Write(Record{Addr: 64})
	_ = w.Flush()
	data := buf.Bytes()[:buf.Len()-3] // chop the last record
	fr := NewFileReader(bytes.NewReader(data))
	if _, err := fr.Next(); err == nil {
		t.Fatal("truncated record accepted")
	}
}

func TestFileReaderRejectsCorruptFlags(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	_ = w.Write(Record{Addr: 64})
	_ = w.Flush()
	data := buf.Bytes()
	data[len(data)-1] = 0xFF
	fr := NewFileReader(bytes.NewReader(data))
	if _, err := fr.Next(); err == nil {
		t.Fatal("corrupt flags accepted")
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := 0
	a2 := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a2.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds collide %d/1000 times", same)
	}
}

func TestRNGRanges(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 10000; i++ {
		if v := r.Intn(7); v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
		if v := r.Int63n(1000); v < 0 || v >= 1000 {
			t.Fatalf("Int63n out of range: %d", v)
		}
		if v := r.Float64(); v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %g", v)
		}
	}
}

func TestRNGPanicsOnBadBounds(t *testing.T) {
	r := NewRNG(1)
	for _, fn := range []func(){
		func() { r.Intn(0) },
		func() { r.Int63n(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("bad bound did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestGeometricMean(t *testing.T) {
	r := NewRNG(9)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += float64(r.Geometric(3.0))
	}
	mean := sum / n
	// Truncation to uint32 biases the mean down ~0.5; accept a loose band.
	if mean < 1.8 || mean > 3.5 {
		t.Fatalf("geometric mean = %g, want near 3", mean)
	}
	if r.Geometric(0) != 0 {
		t.Fatal("Geometric(0) should be 0")
	}
}

func testProfile() Profile {
	return Profile{
		Name:            "test",
		FootprintBytes:  4 << 20,
		GapMean:         3,
		ReadFrac:        0.7,
		Streams:         4,
		StreamProb:      0.6,
		StrideBytes:     64,
		ConflictProb:    0.2,
		ConflictStreams: 4,
		ConflictStride:  512 << 10,
		LineBytes:       64,
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	g1 := MustGenerator(testProfile(), 0, 77)
	g2 := MustGenerator(testProfile(), 0, 77)
	for i := 0; i < 5000; i++ {
		a, _ := g1.Next()
		b, _ := g2.Next()
		if a != b {
			t.Fatalf("diverged at %d: %+v vs %+v", i, a, b)
		}
	}
}

// NextAccess yields Next's addresses and directions and leaves the
// generator where Next would, with and without instruction gaps.
func TestGeneratorNextAccessMatchesNext(t *testing.T) {
	for _, gapMean := range []float64{0, 3} {
		p := testProfile()
		p.GapMean = gapMean
		g := MustGenerator(p, 1<<30, 77)
		fast := g.Clone()
		for i := 0; i < 5000; i++ {
			want, _ := g.Next()
			addr, write := fast.NextAccess()
			if addr != want.Addr || write != want.Write {
				t.Fatalf("GapMean %g, record %d: NextAccess = (%#x, %v), Next = %+v",
					gapMean, i, addr, write, want)
			}
		}
		if !reflect.DeepEqual(g, fast) {
			t.Fatalf("GapMean %g: generators differ after the same records", gapMean)
		}
	}
}

func TestGeneratorAddressProperties(t *testing.T) {
	p := testProfile()
	base := uint64(1) << 30
	g := MustGenerator(p, base, 5)
	reads, writes := 0, 0
	for i := 0; i < 20000; i++ {
		rec, err := g.Next()
		if err != nil {
			t.Fatal(err)
		}
		if rec.Addr%64 != 0 {
			t.Fatalf("address %#x not line aligned", rec.Addr)
		}
		if rec.Addr < base || rec.Addr >= base+uint64(p.FootprintBytes) {
			t.Fatalf("address %#x outside [base, base+footprint)", rec.Addr)
		}
		if rec.Write {
			writes++
		} else {
			reads++
		}
	}
	frac := float64(reads) / float64(reads+writes)
	if frac < 0.65 || frac > 0.75 {
		t.Fatalf("read fraction = %g, want ~0.7", frac)
	}
}

func TestGeneratorStreamsSweepRows(t *testing.T) {
	// A pure-stream profile must touch consecutive lines: consecutive
	// stream accesses from the same stream differ by the stride.
	p := testProfile()
	p.Streams = 1
	p.StreamProb = 1.0
	p.ConflictProb = 0
	g := MustGenerator(p, 0, 3)
	prev, _ := g.Next()
	for i := 0; i < 100; i++ {
		rec, _ := g.Next()
		delta := (rec.Addr - prev.Addr) % uint64(p.FootprintBytes)
		if delta != uint64(p.StrideBytes) {
			t.Fatalf("stream stride = %d, want %d", delta, p.StrideBytes)
		}
		prev = rec
	}
}

func TestGeneratorConflictGroupCollidesInBank(t *testing.T) {
	p := testProfile()
	p.ConflictProb = 1.0
	p.StreamProb = 0.0
	p.FootprintBytes = 8 << 20
	g := MustGenerator(p, 0, 11)
	// Conflict-group members stay one bank stride apart: at every point the
	// active positions pairwise differ by a multiple of ConflictStride
	// modulo at most one line of skew per member, so all observed
	// addresses' (addr mod ConflictStride) values cluster into a window of
	// at most ConflictStreams rows.
	for i := 0; i < 2000; i++ {
		rec, _ := g.Next()
		if rec.Addr%64 != 0 {
			t.Fatalf("unaligned conflict access %#x", rec.Addr)
		}
	}
	// Group members advance one line per touch; over N touches each member
	// moves less than N lines, so two consecutive accesses from different
	// members must differ by nearly a multiple of the stride.
	a, _ := g.Next()
	sawSameBankDifferentRow := false
	for i := 0; i < 2000; i++ {
		b, _ := g.Next()
		diff := int64(b.Addr) - int64(a.Addr)
		if diff < 0 {
			diff = -diff
		}
		if diff >= p.ConflictStride/2 && diff%p.ConflictStride < 2048 {
			sawSameBankDifferentRow = true
			break
		}
		a = b
	}
	if !sawSameBankDifferentRow {
		t.Fatal("conflict group never interleaved distinct rows of the same bank")
	}
}

func TestGeneratorConflictGroupAdvances(t *testing.T) {
	p := testProfile()
	p.ConflictProb = 1.0
	p.StreamProb = 0.0
	p.ConflictStreams = 1 // single member: strictly sequential
	g := MustGenerator(p, 0, 3)
	prev, _ := g.Next()
	for i := 0; i < 50; i++ {
		rec, _ := g.Next()
		if rec.Addr != prev.Addr+uint64(p.StrideBytes) &&
			rec.Addr >= prev.Addr { // allow the wrap/reset case
			t.Fatalf("single-member group did not advance by stride: %#x -> %#x",
				prev.Addr, rec.Addr)
		}
		prev = rec
	}
}

func TestGeneratorValidation(t *testing.T) {
	bad := []func(*Profile){
		func(p *Profile) { p.FootprintBytes = 0 },
		func(p *Profile) { p.ReadFrac = 1.5 },
		func(p *Profile) { p.Streams = 0 },
		func(p *Profile) { p.StreamProb = 0.9; p.ConflictProb = 0.5 },
		func(p *Profile) { p.StrideBytes = 0 },
		func(p *Profile) { p.ConflictProb = 0.1; p.ConflictStreams = 0 },
		func(p *Profile) { p.ConflictStride = 0 },
		func(p *Profile) { p.ConflictStreams = 64; p.FootprintBytes = 1 << 20 },
		func(p *Profile) { p.LineBytes = 0 },
	}
	for i, mutate := range bad {
		p := testProfile()
		mutate(&p)
		if _, err := NewGenerator(p, 0, 1); err == nil {
			t.Fatalf("case %d: invalid profile accepted", i)
		}
	}
}

func TestGeneratorClone(t *testing.T) {
	g := MustGenerator(testProfile(), 0, 77)
	for i := 0; i < 1000; i++ {
		g.Next()
	}
	cp := g.Clone()
	for i := 0; i < 5000; i++ {
		a, _ := g.Next()
		b, _ := cp.Next()
		if a != b {
			t.Fatalf("clone diverged at %d: %+v vs %+v", i, a, b)
		}
	}
	// Advancing the clone alone must not move the original.
	want, _ := g.Clone().Next()
	cp.Next()
	if got, _ := g.Next(); got != want {
		t.Fatalf("advancing the clone moved the original: %+v, want %+v", got, want)
	}
}
