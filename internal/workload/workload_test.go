package workload

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/trace"
)

// hotPages returns the n most frequently accessed pages in descending
// frequency order, breaking ties by page index for determinism.
func hotPages(t trace.Trace, n int) []uint64 {
	counts := make(map[uint64]int)
	for _, r := range t {
		counts[r.Page()]++
	}
	pages := make([]uint64, 0, len(counts))
	for p := range counts {
		pages = append(pages, p)
	}
	sort.Slice(pages, func(i, j int) bool {
		ci, cj := counts[pages[i]], counts[pages[j]]
		if ci != cj {
			return ci > cj
		}
		return pages[i] < pages[j]
	})
	return pages[:min(n, len(pages))]
}

func TestRegistryNames(t *testing.T) {
	want := []string{"parsec", "memtier", "hashmap", "heap", "sysbench", "stream", "dlrm"}
	gens := Registry()
	if len(gens) != len(want) {
		t.Fatalf("Registry has %d generators, want %d", len(gens), len(want))
	}
	for i, g := range gens {
		if g.Name() != want[i] {
			t.Errorf("Registry[%d] = %q, want %q", i, g.Name(), want[i])
		}
	}
}

func TestByName(t *testing.T) {
	g, err := ByName("dlrm")
	if err != nil {
		t.Fatal(err)
	}
	if g.Name() != "dlrm" {
		t.Errorf("ByName returned %q", g.Name())
	}
	if _, err := ByName("nosuch"); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestGeneratorsBasicContract(t *testing.T) {
	const n = 20000
	for _, g := range Registry() {
		g := g
		t.Run(g.Name(), func(t *testing.T) {
			tr := g.Generate(n, 1)
			if len(tr) != n {
				t.Fatalf("generated %d records, want %d", len(tr), n)
			}
			s := trace.Summarize(tr)
			if s.Reads == 0 {
				t.Error("no reads generated")
			}
			if s.Writes == 0 {
				t.Error("no writes generated")
			}
			if s.UniquePages < 100 {
				t.Errorf("only %d unique pages; generator degenerate", s.UniquePages)
			}
			// Timestamps must be arrival-ordered.
			for i := 1; i < len(tr); i++ {
				if tr[i].Time != tr[i-1].Time+1 {
					t.Fatal("records not stamped in arrival order")
				}
			}
		})
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	for _, g := range Registry() {
		a := g.Generate(5000, 42)
		b := g.Generate(5000, 42)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: records differ at %d for same seed", g.Name(), i)
			}
		}
		c := g.Generate(5000, 43)
		same := true
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
		if same {
			t.Errorf("%s: different seeds produced identical traces", g.Name())
		}
	}
}

func TestGeneratorsReuseExists(t *testing.T) {
	// Every benchmark must exhibit page reuse — a cache is useless otherwise.
	for _, g := range Registry() {
		tr := g.Generate(50000, 7)
		s := trace.Summarize(tr)
		if s.ReusedPages == 0 {
			t.Errorf("%s: no page reuse", g.Name())
		}
		if float64(s.UniquePages) >= 0.95*float64(s.Records) {
			t.Errorf("%s: %d unique pages in %d records — no locality",
				g.Name(), s.UniquePages, s.Records)
		}
	}
}

func TestStreamIsSequentialHeavy(t *testing.T) {
	tr := NewStream().Generate(30000, 3)
	// Stream mixes sequential sweeps with a hot control region, so many
	// consecutive requests should land on the same or an adjacent page.
	small := 0
	total := 0
	for i := 1; i < len(tr); i++ {
		d := int64(tr[i].Page()) - int64(tr[i-1].Page())
		if d < 0 {
			d = -d
		}
		total++
		if d <= 1 {
			small++
		}
	}
	if float64(small)/float64(total) < 0.3 {
		t.Errorf("stream locality structure missing: %d/%d small steps", small, total)
	}
}

func TestDLRMFootprintExceedsCache(t *testing.T) {
	d := NewDLRM()
	tr := d.Generate(100000, 5)
	s := trace.Summarize(tr)
	cachePages := uint64(16384) // 64 MiB / 4 KiB
	if uint64(s.UniquePages) < cachePages {
		t.Errorf("dlrm unique pages %d should exceed cache capacity %d",
			s.UniquePages, cachePages)
	}
}

func TestParsecHotSetMostlyFitsCache(t *testing.T) {
	// The parsec hot working set is designed to (mostly) fit in the
	// 64 MiB cache, giving the low miss rates of Fig. 6: the pages
	// covering the bulk of accesses must number below cache capacity.
	tr := NewParsec().Generate(200000, 1)
	hot := hotPages(tr, 16384)
	counts := make(map[uint64]bool, len(hot))
	for _, p := range hot {
		counts[p] = true
	}
	covered := 0
	for _, r := range tr {
		if counts[r.Page()] {
			covered++
		}
	}
	if frac := float64(covered) / float64(len(tr)); frac < 0.9 {
		t.Errorf("top-16384 pages cover only %.1f%% of parsec accesses", 100*frac)
	}
}

func TestClusterSampleBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := cluster{center: 10, spread: 100}
	for i := 0; i < 10000; i++ {
		p := c.sample(rng, 50)
		if p > 50 {
			t.Fatalf("sample %d outside [0, 50]", p)
		}
	}
}

func TestZipfPagesBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	zp := newZipfPages(rng, 100, 1000, 1.2, true)
	seen := map[uint64]int{}
	for i := 0; i < 20000; i++ {
		p := zp.sample()
		if p < 100 || p >= 1100 {
			t.Fatalf("zipf sample %d outside [100, 1100)", p)
		}
		seen[p]++
	}
	// Skewed: the most popular page should dominate.
	max := 0
	for _, c := range seen {
		if c > max {
			max = c
		}
	}
	if max < 500 {
		t.Errorf("zipf max frequency %d; distribution not skewed", max)
	}
}

func TestZipfZeroSpan(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	zp := newZipfPages(rng, 5, 0, 1.2, false)
	if p := zp.sample(); p != 5 {
		t.Errorf("zero-span zipf sample = %d, want 5", p)
	}
}

func TestPhaseSchedule(t *testing.T) {
	ps := newPhaseSchedule(3, 2)
	var got []int
	for i := 0; i < 9; i++ {
		got = append(got, ps.next())
	}
	want := []int{0, 0, 0, 1, 1, 1, 0, 0, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("phases = %v, want %v", got, want)
		}
	}
}

func TestPhaseScheduleDegenerate(t *testing.T) {
	ps := newPhaseSchedule(0, 0)
	for i := 0; i < 10; i++ {
		if p := ps.next(); p != 0 {
			t.Fatal("degenerate schedule should stay in phase 0")
		}
	}
}

func TestPageRecordOffsetWithinPage(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 1000; i++ {
		r := pageRecord(rng, 42, i%2 == 0)
		if r.Page() != 42 {
			t.Fatalf("record page = %d, want 42", r.Page())
		}
		if r.Addr%64 != 0 {
			t.Fatalf("address %d not 64-byte aligned", r.Addr)
		}
	}
}
