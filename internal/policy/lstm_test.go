package policy

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/lstm"
	"repro/internal/trace"
)

// tinyLSTM returns a small network so tests stay fast.
func tinyLSTM(t *testing.T) *lstm.Network {
	t.Helper()
	n, err := lstm.New(lstm.Config{InputDim: 2, HiddenDim: 8, Layers: 1, SeqLen: 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func newTestLSTMPolicy(t *testing.T, admit, evict bool, threshold float64) *LSTMPolicy {
	t.Helper()
	return NewLSTMPolicy(LSTMPolicyConfig{
		Net:        tinyLSTM(t),
		Normalizer: trace.Normalizer{PageScale: 1e-3, TimeScale: 1e-3},
		Transform:  trace.DefaultTransformConfig(),
		Threshold:  threshold,
		Admission:  admit,
		Eviction:   evict,
	})
}

func TestLSTMPolicyBasicTraffic(t *testing.T) {
	p := newTestLSTMPolicy(t, false, true, 0)
	c := tinyCache(t, p)
	for i := uint64(0); i < 100; i++ {
		c.Access(i%10, i%3 == 0)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Error(err)
	}
	st := c.Stats()
	if st.Accesses() != 100 {
		t.Errorf("accesses = %d", st.Accesses())
	}
	if p.Inferences == 0 {
		t.Error("no LSTM inferences ran despite misses")
	}
	if p.Inferences > st.Misses {
		t.Errorf("inferences %d exceed misses %d (memoization broken)",
			p.Inferences, st.Misses)
	}
}

// TestLSTMPolicyOnAccessAllocs pins the window update at zero allocations:
// every request shifts the ring, so a row allocated per request is the
// shadow policy's per-request garbage.
func TestLSTMPolicyOnAccessAllocs(t *testing.T) {
	p := newTestLSTMPolicy(t, false, true, 0)
	tinyCache(t, p)
	var page uint64
	if got := testing.AllocsPerRun(100, func() {
		page++
		p.OnAccess(cache.Request{Page: page})
	}); got != 0 {
		t.Errorf("OnAccess allocates %v per request, want 0", got)
	}
}

// TestLSTMPolicyMissAllocs pins a warmed-up miss at zero allocations: the
// inference behind Admit and OnInsert runs in the policy's own lstm.Scratch.
func TestLSTMPolicyMissAllocs(t *testing.T) {
	p := newTestLSTMPolicy(t, true, true, -1e18)
	tinyCache(t, p)
	var page uint64
	miss := func() {
		page++
		req := cache.Request{Page: page, Seq: page}
		p.OnAccess(req)
		if !p.Admit(req) {
			t.Fatal("miss bypassed at a threshold of -inf")
		}
		p.OnInsert(0, 0, req)
	}
	miss()
	before := p.Inferences
	if got := testing.AllocsPerRun(100, miss); got != 0 {
		t.Errorf("a miss allocates %v, want 0", got)
	}
	if p.Inferences == before {
		t.Error("the measured misses ran no inference")
	}
}

// TestNewLSTMPolicyRejectsInputDim: the window feeds (page, timestamp) rows,
// so a network of any other input dim could never score one. Building the
// policy panics, naming both dims, instead of bypassing every miss later.
func TestNewLSTMPolicyRejectsInputDim(t *testing.T) {
	net, err := lstm.New(lstm.Config{InputDim: 3, HiddenDim: 4, Layers: 1, SeqLen: 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, "input dim 3") || !strings.Contains(msg, "want 2") {
			t.Errorf("panic %q does not name both input dims", msg)
		}
	}()
	NewLSTMPolicy(LSTMPolicyConfig{Net: net, Normalizer: trace.Normalizer{PageScale: 1, TimeScale: 1}})
}

// TestLSTMPolicyScorePanicsOnForwardError: a failed inference is a broken
// invariant, not a score of 0 that silently bypasses the miss.
func TestLSTMPolicyScorePanicsOnForwardError(t *testing.T) {
	p := newTestLSTMPolicy(t, true, true, 0)
	tinyCache(t, p)
	other, err := lstm.New(lstm.Config{InputDim: 2, HiddenDim: 5, Layers: 1, SeqLen: 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	p.scratch = other.NewScratch()
	defer func() {
		if recover() == nil {
			t.Error("a failed inference scored instead of panicking")
		}
	}()
	p.Admit(cache.Request{Page: 1})
}

func TestLSTMPolicyHitsSkipInference(t *testing.T) {
	p := newTestLSTMPolicy(t, false, true, 0)
	c := tinyCache(t, p)
	c.Access(1, false)
	before := p.Inferences
	for i := 0; i < 50; i++ {
		c.Access(1, false)
	}
	if p.Inferences != before {
		t.Errorf("hits triggered %d extra inferences", p.Inferences-before)
	}
}

func TestLSTMPolicyAdmissionThreshold(t *testing.T) {
	// With an impossibly high threshold everything is bypassed.
	p := newTestLSTMPolicy(t, true, true, 1e18)
	c := tinyCache(t, p)
	c.Access(1, false)
	if c.Occupancy() != 0 {
		t.Error("page admitted despite absurd threshold")
	}
	// With a very low threshold everything is admitted.
	p2 := newTestLSTMPolicy(t, true, true, -1e18)
	c2 := tinyCache(t, p2)
	c2.Access(1, false)
	if c2.Occupancy() != 1 {
		t.Error("page rejected despite threshold of -inf")
	}
}

func TestLSTMPolicyLRUFallback(t *testing.T) {
	// Eviction disabled: behaves exactly like LRU on the victim side.
	p := newTestLSTMPolicy(t, false, false, 0)
	c := tinyCache(t, p)
	access(c, 1, 2, 3, 4)
	access(c, 1)
	res := c.Access(5, false)
	if res.VictimPage != 2 {
		t.Errorf("victim = %d, want LRU choice 2", res.VictimPage)
	}
	if p.Inferences != 0 {
		t.Error("pure-LRU mode should never run the network")
	}
}

func TestLSTMPolicyName(t *testing.T) {
	if newTestLSTMPolicy(t, false, false, 0).Name() != "lstm" {
		t.Error("name wrong")
	}
}

func TestTrainLSTMOnTrace(t *testing.T) {
	// Tiny end-to-end training run: must produce decreasing loss and a
	// usable normalizer.
	var tr trace.Trace
	for i := 0; i < 4000; i++ {
		page := uint64(i % 7) // heavily reused pages
		if i%13 == 0 {
			page = uint64(100 + i) // cold singletons
		}
		tr = append(tr, trace.Record{Op: trace.Read, Addr: page << trace.PageShift})
	}
	tr.Stamp()
	net := tinyLSTM(t)
	res, norm, err := TrainLSTMOnTrace(net, tr, trace.DefaultTransformConfig(), 64, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.EpochMSE) != 5 {
		t.Fatalf("epochs = %d", len(res.EpochMSE))
	}
	if res.EpochMSE[4] >= res.EpochMSE[0] {
		t.Errorf("loss did not improve: %v", res.EpochMSE)
	}
	if norm.PageScale == 0 {
		t.Error("degenerate normalizer")
	}

	// The trained policy must still run valid cache traffic.
	p := NewLSTMPolicy(LSTMPolicyConfig{
		Net: net, Normalizer: norm,
		Transform: trace.DefaultTransformConfig(),
		Eviction:  true,
	})
	c, err := cache.New(cache.Config{SizeBytes: 16 * 4096, BlockBytes: 4096, Ways: 4}, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tr[:1000] {
		c.Access(r.Page(), false)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Error(err)
	}
}
