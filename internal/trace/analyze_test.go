package trace

import (
	"testing"
)

func TestAnalyzeSequentialStream(t *testing.T) {
	// 64 references walking one line at a time: 4 full rows.
	recs := make([]Record, 64)
	for i := range recs {
		recs[i] = Record{Gap: 2, Addr: uint64(i) * 64, Write: i%4 == 3}
	}
	a, err := Analyze(NewSliceReader(recs), 64, 1024, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.Records != 64 || a.Reads != 48 || a.Writes != 16 {
		t.Fatalf("counts wrong: %+v", a)
	}
	if a.MeanGap != 2 {
		t.Fatalf("mean gap = %g", a.MeanGap)
	}
	if a.UniqueLines != 64 || a.FootprintBytes != 64*64 {
		t.Fatalf("footprint wrong: %d lines, %d bytes", a.UniqueLines, a.FootprintBytes)
	}
	if a.RowEpisodes != 4 {
		t.Fatalf("episodes = %d, want 4", a.RowEpisodes)
	}
	if a.MeanEpisodeLen != 16 || a.MeanEpisodeUtil != 16 {
		t.Fatalf("episode len/util = %g/%g, want 16/16", a.MeanEpisodeLen, a.MeanEpisodeUtil)
	}
	// 60 of 63 transitions stay in-row.
	if a.SameRowRate < 0.94 || a.SameRowRate > 0.96 {
		t.Fatalf("same-row rate = %g", a.SameRowRate)
	}
	if len(a.TopStrides) == 0 || a.TopStrides[0].Stride != 64 {
		t.Fatalf("top stride = %+v, want 64", a.TopStrides)
	}
}

func TestAnalyzePingPong(t *testing.T) {
	// Alternate between two rows: every transition changes row.
	recs := make([]Record, 32)
	for i := range recs {
		addr := uint64(i%2) * 512 << 10 // two rows, one bank stride apart
		recs[i] = Record{Addr: addr + uint64(i/2)*64}
	}
	a, err := Analyze(NewSliceReader(recs), 64, 1024, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.SameRowRate != 0 {
		t.Fatalf("ping-pong same-row rate = %g, want 0", a.SameRowRate)
	}
	if a.RowEpisodes != 32 {
		t.Fatalf("episodes = %d, want 32", a.RowEpisodes)
	}
	if a.MeanEpisodeLen != 1 {
		t.Fatalf("episode length = %g, want 1", a.MeanEpisodeLen)
	}
}

func TestAnalyzeMaxRecords(t *testing.T) {
	recs := make([]Record, 100)
	for i := range recs {
		recs[i] = Record{Addr: uint64(i) * 64}
	}
	a, err := Analyze(NewSliceReader(recs), 64, 1024, 10)
	if err != nil {
		t.Fatal(err)
	}
	if a.Records != 10 {
		t.Fatalf("records = %d, want 10", a.Records)
	}
}

func TestAnalyzeEmptyAndInvalid(t *testing.T) {
	a, err := Analyze(NewSliceReader(nil), 64, 1024, 0)
	if err != nil || a.Records != 0 {
		t.Fatalf("empty analyze: %+v, %v", a, err)
	}
	if _, err := Analyze(NewSliceReader(nil), 0, 1024, 0); err == nil {
		t.Fatal("accepted zero line size")
	}
	if _, err := Analyze(NewSliceReader(nil), 64, 96, 0); err == nil {
		t.Fatal("accepted row not multiple of line")
	}
}

// records reads the next n records of g.
func records(g *Generator, n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		recs[i], _ = g.Next()
	}
	return recs
}

func TestAnalyzeGeneratorMatchesProfileIntent(t *testing.T) {
	// A stream-dominated profile should show long row episodes; a
	// conflict-dominated one should show short episodes.
	streamy := testProfile()
	streamy.Streams = 1 // one stream: global episodes reflect its sweeps
	streamy.StreamProb = 0.95
	streamy.ConflictProb = 0
	ga := mustGenerator(t, streamy, 0, 3)
	sa, err := Analyze(NewSliceReader(records(ga, 20000)), 64, 1024, 0)
	if err != nil {
		t.Fatal(err)
	}

	conflicty := testProfile()
	conflicty.StreamProb = 0
	conflicty.ConflictProb = 0.95
	gb := mustGenerator(t, conflicty, 0, 3)
	sb, err := Analyze(NewSliceReader(records(gb, 20000)), 64, 1024, 0)
	if err != nil {
		t.Fatal(err)
	}

	if sa.MeanEpisodeLen <= 2*sb.MeanEpisodeLen {
		t.Fatalf("stream episodes (%g) not clearly longer than conflict episodes (%g)",
			sa.MeanEpisodeLen, sb.MeanEpisodeLen)
	}
}
