package trace

// Stats summarizes a trace: volume, read/write mix, footprint, and reuse.
type Stats struct {
	Records     int
	Reads       int
	Writes      int
	UniquePages int
	// FootprintBytes is UniquePages * PageSize.
	FootprintBytes uint64
	// MaxPage and MinPage bound the touched page-index range.
	MinPage, MaxPage uint64
	// ReusedPages counts pages touched more than once.
	ReusedPages int
}

// ReadFraction returns reads / records, or 0 for an empty trace.
func (s Stats) ReadFraction() float64 {
	if s.Records == 0 {
		return 0
	}
	return float64(s.Reads) / float64(s.Records)
}

// Summarize computes Stats over the trace.
func Summarize(t Trace) Stats {
	var s Stats
	s.Records = len(t)
	counts := make(map[uint64]int)
	for i, r := range t {
		if r.Op == Read {
			s.Reads++
		} else {
			s.Writes++
		}
		p := r.Page()
		counts[p]++
		if i == 0 {
			s.MinPage, s.MaxPage = p, p
		} else {
			if p < s.MinPage {
				s.MinPage = p
			}
			if p > s.MaxPage {
				s.MaxPage = p
			}
		}
	}
	s.UniquePages = len(counts)
	s.FootprintBytes = uint64(s.UniquePages) * PageSize
	for _, c := range counts {
		if c > 1 {
			s.ReusedPages++
		}
	}
	return s
}

// SpatialHistogram bins page accesses into nbins equal-width page-index bins
// across the touched range and returns (bin center page, count) pairs. It is
// the data behind the paper's Fig. 2 left-hand plots.
func SpatialHistogram(t Trace, nbins int) (centers []float64, counts []int) {
	if len(t) == 0 || nbins <= 0 {
		return nil, nil
	}
	s := Summarize(t)
	span := s.MaxPage - s.MinPage + 1
	counts = make([]int, nbins)
	centers = make([]float64, nbins)
	width := float64(span) / float64(nbins)
	for i := range centers {
		centers[i] = float64(s.MinPage) + (float64(i)+0.5)*width
	}
	for _, r := range t {
		idx := int(float64(r.Page()-s.MinPage) / width)
		if idx >= nbins {
			idx = nbins - 1
		}
		counts[idx]++
	}
	return centers, counts
}

// TemporalScatter subsamples up to maxPoints (time, page) points from the
// trace, the data behind the paper's Fig. 2 right-hand plots.
func TemporalScatter(t Trace, maxPoints int) (times []float64, pages []float64) {
	if len(t) == 0 || maxPoints <= 0 {
		return nil, nil
	}
	stride := len(t) / maxPoints
	if stride < 1 {
		stride = 1
	}
	for i := 0; i < len(t); i += stride {
		times = append(times, float64(t[i].Time))
		pages = append(pages, float64(t[i].Page()))
	}
	return times, pages
}
