package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"reflect"
	"testing"
)

func TestSliceReader(t *testing.T) {
	recs := []Record{{Gap: 1, Addr: 64}, {Gap: 2, Addr: 128, Write: true}, {Gap: 3, Addr: 192}}
	r := NewSliceReader(recs)
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
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("got %+v", got)
	}
}

// v1Bytes encodes recs in the v1 file format by hand: the magic, then
// one 13-byte little-endian record each (gap uint32, addr uint64, flags
// uint8).
func v1Bytes(recs ...Record) []byte {
	out := []byte("CAMPSTR1")
	for _, rec := range recs {
		var flags byte
		if rec.Write {
			flags = 1
		}
		out = binary.LittleEndian.AppendUint32(out, rec.Gap)
		out = binary.LittleEndian.AppendUint64(out, rec.Addr)
		out = append(out, flags)
	}
	return out
}

func TestFileRoundTrip(t *testing.T) {
	want := []Record{
		{Gap: 0, Addr: 0},
		{Gap: 7, Addr: 0xdeadbeef00, Write: true},
		{Gap: math.MaxUint32, Addr: math.MaxUint64 &^ 63},
	}
	fr := newFileReader(bytes.NewReader(v1Bytes(want...)))
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
	fr := newFileReader(bytes.NewReader(v1Bytes()))
	if _, err := fr.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("empty trace should EOF cleanly, got %v", err)
	}
}

func TestFileReaderRejectsBadMagic(t *testing.T) {
	fr := newFileReader(bytes.NewReader([]byte("NOTATRACE_____")))
	if _, err := fr.Next(); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestFileReaderRejectsTruncation(t *testing.T) {
	data := v1Bytes(Record{Addr: 64})
	data = data[:len(data)-3] // chop the last record
	fr := newFileReader(bytes.NewReader(data))
	if _, err := fr.Next(); err == nil {
		t.Fatal("truncated record accepted")
	}
}

func TestFileReaderRejectsCorruptFlags(t *testing.T) {
	data := v1Bytes(Record{Addr: 64})
	data[len(data)-1] = 0xFF
	fr := newFileReader(bytes.NewReader(data))
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

// mustGenerator is NewGenerator for the tests' known-good profiles.
func mustGenerator(tb testing.TB, p Profile, base, seed uint64) *Generator {
	tb.Helper()
	g, err := NewGenerator(p, base, seed)
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

func TestGeneratorDeterminism(t *testing.T) {
	g1 := mustGenerator(t, testProfile(), 0, 77)
	g2 := mustGenerator(t, testProfile(), 0, 77)
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
	for _, gapMean := range []float64{0, 3, 1000} {
		p := testProfile()
		p.GapMean = gapMean
		g := mustGenerator(t, p, 1<<30, 77)
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

// Next's records are those of the Log1p sampler the gap table replaced,
// whether the mean gets a table (3) or keeps the Log1p path (1000, gaps
// up to 16000). The reference below is that sampler as it was written.
func TestGeneratorNextMatchesLog1pReference(t *testing.T) {
	for _, gapMean := range []float64{3, 1000} {
		p := testProfile()
		p.GapMean = gapMean
		g := mustGenerator(t, p, 0, 77)
		if tabled := g.gaps != nil; tabled != (gapMean < 1000) {
			t.Fatalf("GapMean %g: gap table present = %v", gapMean, tabled)
		}
		ref := g.Clone()
		for i := 0; i < 200_000; i++ {
			got, _ := g.Next()
			v := -gapMean * math.Log1p(-ref.rng.Float64())
			if v > 16*gapMean {
				v = 16 * gapMean
			}
			addr, write := ref.access()
			if want := (Record{Gap: uint32(v), Addr: addr, Write: write}); got != want {
				t.Fatalf("GapMean %g, record %d: Next = %+v, reference %+v", gapMean, i, got, want)
			}
		}
	}
}

// A stream advances by StrideBytes modulo the footprint, even when the
// stride is longer than the footprint.
func TestGeneratorStreamWrapsModuloFootprint(t *testing.T) {
	p := testProfile()
	p.Streams, p.StreamProb, p.ConflictProb = 1, 1, 0
	p.StrideBytes = 3*p.FootprintBytes + 192
	const base = 1 << 30
	g := mustGenerator(t, p, base, 7)
	off, fp := g.streams[0], uint64(p.FootprintBytes)
	for i := 0; i < 100_000; i++ {
		addr, _ := g.NextAccess()
		if want := (base + off) &^ 63; addr != want {
			t.Fatalf("access %d: address %#x, want %#x", i, addr, want)
		}
		off = (off + uint64(p.StrideBytes)) % fp
	}
}

func TestGeneratorAddressProperties(t *testing.T) {
	p := testProfile()
	base := uint64(1) << 30
	g := mustGenerator(t, p, base, 5)
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
	g := mustGenerator(t, p, 0, 3)
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
	g := mustGenerator(t, p, 0, 11)
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
	g := mustGenerator(t, p, 0, 3)
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

// A gap mean must be a finite, non-negative number: Next and NextAccess
// only agree on how many draws a gap takes for those.
func TestProfileValidate(t *testing.T) {
	cases := []struct {
		gapMean float64
		ok      bool
	}{
		{3, true},
		{0, true},
		{1000, true},
		{math.NaN(), false},
		{math.Inf(1), false},
		{math.Inf(-1), false},
		{-1, false},
	}
	for _, tc := range cases {
		p := testProfile()
		p.GapMean = tc.gapMean
		err := p.Validate()
		switch {
		case tc.ok && err != nil:
			t.Errorf("GapMean %g rejected: %v", tc.gapMean, err)
		case !tc.ok && (err == nil || err.Error() != `trace: profile "test": gap mean must be finite and non-negative`):
			t.Errorf("GapMean %g: Validate() = %v, want the gap-mean error", tc.gapMean, err)
		}
	}
}

func TestGeneratorClone(t *testing.T) {
	g := mustGenerator(t, testProfile(), 0, 77)
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
