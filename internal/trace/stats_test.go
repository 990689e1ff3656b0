package trace

import "testing"

func TestSummarize(t *testing.T) {
	tr := Trace{
		{Op: Read, Addr: 0},
		{Op: Write, Addr: 100},         // same page 0
		{Op: Read, Addr: PageSize},     // page 1
		{Op: Read, Addr: 5 * PageSize}, // page 5
	}
	s := Summarize(tr)
	if s.Records != 4 || s.Reads != 3 || s.Writes != 1 {
		t.Errorf("counts wrong: %+v", s)
	}
	if s.UniquePages != 3 {
		t.Errorf("UniquePages = %d, want 3", s.UniquePages)
	}
	if s.FootprintBytes != 3*PageSize {
		t.Errorf("FootprintBytes = %d", s.FootprintBytes)
	}
	if s.MinPage != 0 || s.MaxPage != 5 {
		t.Errorf("page range [%d, %d], want [0, 5]", s.MinPage, s.MaxPage)
	}
	if s.ReusedPages != 1 {
		t.Errorf("ReusedPages = %d, want 1", s.ReusedPages)
	}
	if got := s.ReadFraction(); got != 0.75 {
		t.Errorf("ReadFraction = %v, want 0.75", got)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(Trace{})
	if s.Records != 0 || s.UniquePages != 0 || s.ReadFraction() != 0 {
		t.Errorf("empty summary wrong: %+v", s)
	}
}

func TestSpatialHistogram(t *testing.T) {
	// 100 accesses on page 0, 50 on page 9.
	var tr Trace
	for i := 0; i < 100; i++ {
		tr = append(tr, Record{Addr: 0})
	}
	for i := 0; i < 50; i++ {
		tr = append(tr, Record{Addr: 9 * PageSize})
	}
	centers, counts := SpatialHistogram(tr, 10)
	if len(centers) != 10 || len(counts) != 10 {
		t.Fatalf("got %d bins", len(centers))
	}
	if counts[0] != 100 {
		t.Errorf("bin 0 = %d, want 100", counts[0])
	}
	if counts[9] != 50 {
		t.Errorf("bin 9 = %d, want 50", counts[9])
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != len(tr) {
		t.Errorf("histogram total %d != trace size %d", total, len(tr))
	}
}

func TestSpatialHistogramDegenerate(t *testing.T) {
	c, n := SpatialHistogram(Trace{}, 10)
	if c != nil || n != nil {
		t.Error("empty trace should yield nil histogram")
	}
	c, n = SpatialHistogram(Trace{{Addr: 0}}, 0)
	if c != nil || n != nil {
		t.Error("zero bins should yield nil histogram")
	}
	// Single page trace: everything in one bin.
	tr := Trace{{Addr: 0}, {Addr: 1}, {Addr: 2}}
	_, counts := SpatialHistogram(tr, 4)
	if counts[0] != 3 {
		t.Errorf("single-page histogram = %v", counts)
	}
}

func TestTemporalScatter(t *testing.T) {
	tr := make(Trace, 1000)
	for i := range tr {
		tr[i] = Record{Addr: uint64(i) * PageSize, Time: uint64(i)}
	}
	times, pages := TemporalScatter(tr, 100)
	if len(times) == 0 || len(times) != len(pages) {
		t.Fatalf("scatter sizes %d/%d", len(times), len(pages))
	}
	if len(times) > 110 {
		t.Errorf("scatter has %d points, want <= ~100", len(times))
	}
	if times[0] != 0 || pages[0] != 0 {
		t.Errorf("first point (%v, %v)", times[0], pages[0])
	}
}

func TestTemporalScatterDegenerate(t *testing.T) {
	if ts, _ := TemporalScatter(Trace{}, 10); ts != nil {
		t.Error("empty trace should yield nil scatter")
	}
	ts, ps := TemporalScatter(Trace{{Addr: 0, Time: 5}}, 10)
	if len(ts) != 1 || ps[0] != 0 {
		t.Error("single record scatter wrong")
	}
}
