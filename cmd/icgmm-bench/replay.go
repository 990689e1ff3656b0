package main

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/cache"
	"repro/internal/cxl"
	"repro/internal/device"
	"repro/internal/fpga"
	"repro/internal/gmm"
	"repro/internal/hbm"
	"repro/internal/lstm"
	"repro/internal/policy"
	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/ssd"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// The traced run attributes time to layers from outside: it calls each
// layer's public functions on the same inputs the serve loop sees, with a
// span around every call. Two replays do that.
//
// The set-up replay runs initial training step by step on the spec's warm
// trace. The hot-path replay feeds the spec's request stream, in the same
// batch shape, single-threaded through the serve path's layers, one layer
// pass over the whole batch at a time. It follows the serve loop's data
// flow, scenario events and closed-loop feedback, but no controller or
// refresh acts on it: admission uses the plain GMM policy at the initially
// calibrated threshold. replay.hit_ratio against the live hit ratio says
// how close it came.
//
// The replay repeats serve's partition hash, drift shift and tenant
// steering, which serve keeps private. checkReplay fails the traced run
// when those copies stop matching the live run.

// checkReplay compares the replay's request counts with the live run's:
// the total must be the spec's ops, and, unless closed-loop clients make
// the arrival mix depend on latencies the replay does not reproduce, every
// partition must have received exactly the requests it served live.
func checkReplay(spec serve.Spec, live []uint64, rr replayResult) error {
	if rr.ops != spec.EffectiveOps() {
		return fmt.Errorf("replay served %d ops, spec asks for %d", rr.ops, spec.EffectiveOps())
	}
	if spec.Clients != nil {
		return nil
	}
	if len(live) != len(rr.partOps) {
		return fmt.Errorf("replay has %d partitions, the live run %d", len(rr.partOps), len(live))
	}
	for i, n := range rr.partOps {
		if n != live[i] {
			return fmt.Errorf("replay routed %d ops to partition %d, the live run %d: the replay no longer follows serve", n, i, live[i])
		}
	}
	return nil
}

// warmTrace materializes the spec's initial-training trace the way serve
// does: the merged tenant mux, or the single stream's generator output.
func warmTrace(spec serve.Spec) (trace.Trace, error) {
	if len(spec.Tenants) > 0 {
		mux, err := serve.NewTenantMux(spec.Tenants)
		if err != nil {
			return nil, err
		}
		return mux.Trace(spec.EffectiveWarmup()), nil
	}
	gen, err := workload.ByName(spec.Workload.Name)
	if err != nil {
		return nil, err
	}
	return gen.Generate(spec.EffectiveWarmup(), spec.Workload.Seed), nil
}

// replaySetup times initial training's public steps on the warm trace:
// trace generation, Algorithm 1 preprocessing, the normalizer, the EM fit
// and threshold calibration, plus the shadow network's training when the
// spec has one. It returns that network and its normalizer for the
// hot-path replay.
func replaySetup(spec serve.Spec, cfg serve.Config, tr *tracer) (*lstm.Network, trace.Normalizer, error) {
	id := tr.begin("setup.replay", -1)
	defer tr.end(id)

	sid := tr.begin("workload.warm_trace", -1)
	warm, err := warmTrace(spec)
	tr.end(sid)
	if err != nil {
		return nil, trace.Normalizer{}, err
	}
	sid = tr.begin("trace.preprocess", -1)
	samples := trace.Preprocess(warm, cfg.Transform)
	tr.end(sid)
	sid = tr.begin("trace.normalizer", -1)
	norm := trace.FitNormalizer(samples)
	normed := norm.ApplyAll(samples)
	tr.end(sid)
	train := cfg.Train
	if train.Workers == 0 {
		train.Workers = cfg.Shards // serve's default: the E-step fans out over the shard pool
	}
	sid = tr.begin("gmm.fit", -1)
	fit, err := gmm.Fit(normed, train)
	tr.end(sid)
	if err != nil {
		return nil, trace.Normalizer{}, err
	}
	sid = tr.begin("policy.calibrate", -1)
	policy.CalibrateThreshold(fit.Model, normed, cfg.ThresholdPct)
	tr.end(sid)

	sh := spec.Shadow
	if sh == nil {
		return nil, trace.Normalizer{}, nil
	}
	seed := sh.Seed
	if seed == 0 {
		seed = spec.Train.Seed
	}
	sid = tr.begin("lstm.train", -1)
	defer tr.end(sid)
	net, err := lstm.New(lstm.Config{InputDim: 2, HiddenDim: sh.Hidden, Layers: sh.Layers, SeqLen: sh.SeqLen}, seed)
	if err != nil {
		return nil, trace.Normalizer{}, err
	}
	_, shadowNorm, err := policy.TrainLSTMOnTrace(net, warm, cfg.Transform, sh.MaxExamples, sh.Epochs)
	if err != nil {
		return nil, trace.Normalizer{}, err
	}
	return net, shadowNorm, nil
}

// replayTenant is one (partition, tenant) cell of the histograms the serve
// path feeds per request.
type replayTenant struct {
	hist, cxl, hbm, ssd, ctrl *stats.Histogram
}

// replayPart is one partition's layers and its share of the current batch.
type replayPart struct {
	cache  *cache.Cache
	pol    *policy.GMM
	flat   *device.Flat
	df     *device.Dataflow
	now    int64
	hist   *stats.Histogram
	ten    []replayTenant
	shadow *cache.Cache

	reqs                 []serve.Request
	ts                   []int
	pages, times, scores []float64
	out                  []device.Outcome
	host                 []bool
	sojourn, link, dev   []int64
}

// replayResult is what the hot-path replay served: all requests, and the
// device-routed ones with their cache hits (host-routed pages never reach
// the cache, as in the serve path's cache statistics).
type replayResult struct {
	ops, devOps, hits uint64
	partOps           []uint64 // requests per partition
}

// replayHotPath runs the spec's request stream through the layers.
func replayHotPath(w benchWorkload, cfg serve.Config, b *serve.Bundle, shadowNet *lstm.Network, shadowNorm trace.Normalizer, tr *tracer) (replayResult, error) {
	var r replayResult
	spec := w.spec
	scorer, ok := b.Scorer.(policy.ScratchBatchScorer)
	if !ok {
		return r, errors.New("replay: bundle scorer has no batched path")
	}
	parts, err := replayParts(spec, cfg, b, shadowNet, shadowNorm)
	if err != nil {
		return r, err
	}
	r.partOps = make([]uint64, len(parts))
	src, ts, err := replaySource(spec)
	if err != nil {
		return r, err
	}
	tcfg := cfg.Transform.Sanitized()
	var scratch gmm.Scratch
	buf := make([]serve.Request, cfg.BatchSize)
	var seq uint64

	id := tr.begin("replay.loop", -1)
	for batch := 0; ; batch++ {
		t0 := time.Now()
		if err := ts.begin(uint64(batch)); err != nil {
			tr.end(id)
			return r, err
		}
		n := src.Next(buf)
		t1 := time.Now()
		tr.record("workload.next", batch, t0, t1)
		if n == 0 {
			break
		}

		for _, req := range buf[:n] {
			req.Seq = seq
			p := parts[route(req.Page, uint64(len(parts)))]
			p.reqs = append(p.reqs, req)
			p.ts = append(p.ts, int((seq/uint64(tcfg.LenWindow))%uint64(tcfg.LenAccessShot)))
			seq++
		}
		t2 := time.Now()
		tr.record("serve.route", batch, t1, t2)

		for _, p := range parts {
			p.pages, p.times, p.scores = grow(p.pages, len(p.reqs)), grow(p.times, len(p.reqs)), grow(p.scores, len(p.reqs))
			for i, req := range p.reqs {
				p.pages[i], p.times[i] = b.Norm.ApplyPageTime(req.Page, p.ts[i])
			}
		}
		t3 := time.Now()
		tr.record("trace.normalize", batch, t2, t3)

		for _, p := range parts {
			if len(p.reqs) > 0 {
				scorer.ScorePageTimeBatchScratch(p.pages, p.times, p.scores, &scratch)
			}
		}
		t4 := time.Now()
		tr.record("gmm.score", batch, t3, t4)

		for _, p := range parts {
			p.out, p.host = p.out[:0], p.host[:0]
			for i, req := range p.reqs {
				if p.df != nil {
					if _, local := p.df.HostRoute(req.Page); local {
						p.out = append(p.out, device.Outcome{Hit: true})
						p.host = append(p.host, true)
						continue
					}
				}
				p.pol.ProvideScore(p.scores[i])
				p.out = append(p.out, device.OutcomeOf(p.cache.Access(req.Page, req.Write), req.Write))
				p.host = append(p.host, false)
			}
		}
		t5 := time.Now()
		tr.record("cache.access", batch, t4, t5)

		for _, p := range parts {
			p.serveDevice()
		}
		t6 := time.Now()
		tr.record("device.serve", batch, t5, t6)

		resetCtrl := cfg.Control.Every > 0 && (batch+1)%cfg.Control.Every == 0
		for _, p := range parts {
			p.observe(resetCtrl)
		}
		t7 := time.Now()
		tr.record("stats.observe", batch, t6, t7)

		if shadowNet != nil {
			for _, p := range parts {
				for i, req := range p.reqs {
					if !p.host[i] {
						p.shadow.Access(req.Page, req.Write)
					}
				}
			}
			tr.record("lstm.shadow", batch, t7, time.Now())
		}

		if w.scrapeEvery > 0 && (batch+1)%w.scrapeEvery == 0 {
			sid := tr.begin("stats.summarize", batch)
			summarize(parts, len(cfg.Tenants))
			tr.end(sid)
		}

		t8 := time.Now()
		ts.feedback(parts)
		tr.record("workload.next", batch, t8, time.Now())

		for pi, p := range parts {
			r.partOps[pi] += uint64(len(p.reqs))
			for i := range p.reqs {
				r.ops++
				if !p.host[i] {
					r.devOps++
					if p.out[i].Hit {
						r.hits++
					}
				}
			}
			p.reqs, p.ts = p.reqs[:0], p.ts[:0]
		}
	}
	tr.end(id)
	// One more summary after the loop, as the snapshot after a run.
	id = tr.begin("stats.summarize", -1)
	summarize(parts, len(cfg.Tenants))
	tr.end(id)
	return r, nil
}

// serveDevice times the partition's batch through its device model, the
// way the serve path does: host-routed pages at host latency, flat timing
// as a single server per partition, dataflow through the fpga timeline.
func (p *replayPart) serveDevice() {
	n := len(p.reqs)
	p.sojourn, p.link, p.dev = grow(p.sojourn, n), grow(p.link, n), grow(p.dev, n)
	for i, req := range p.reqs {
		switch {
		case p.host[i]:
			lat, _ := p.df.HostRoute(req.Page)
			p.sojourn[i], p.link[i], p.dev[i] = lat, 0, lat
			p.now = max(p.now, req.ArrivalNs+lat)
		case p.df != nil:
			res := p.df.Serve(req.Page, p.out[i], req.ArrivalNs)
			p.sojourn[i], p.link[i], p.dev[i] = res.DoneNs-req.ArrivalNs, res.LinkNs, res.DevNs
			p.now = max(p.now, res.DoneNs)
		default:
			start := max(req.ArrivalNs, p.now)
			rt, dev, _ := p.flat.Serve(req.Page, p.out[i], start)
			done := start + rt + dev
			p.sojourn[i], p.link[i], p.dev[i] = done-req.ArrivalNs, rt, dev
			p.now = max(p.now, done)
		}
	}
}

// observe feeds the batch's latencies to the histograms the serve path
// keeps per request: the partition's, and the tenant's sojourn, link and
// hit-or-miss device time, plus the control-interval histogram of tenants
// under a QoS target (reset every control period, as the controller does).
func (p *replayPart) observe(resetCtrl bool) {
	for i, req := range p.reqs {
		t := &p.ten[req.Tenant]
		p.hist.Observe(p.sojourn[i])
		t.hist.Observe(p.sojourn[i])
		switch {
		case p.host[i]:
			t.hbm.Observe(p.dev[i])
		case p.out[i].Hit:
			t.cxl.Observe(p.link[i])
			t.hbm.Observe(p.dev[i])
		default:
			t.cxl.Observe(p.link[i])
			t.ssd.Observe(p.dev[i])
		}
		if t.ctrl != nil {
			t.ctrl.Observe(p.sojourn[i])
		}
	}
	if resetCtrl {
		for _, t := range p.ten {
			if t.ctrl != nil {
				t.ctrl.Reset()
			}
		}
	}
}

// summarize builds the percentile summaries a Session.Metrics snapshot
// builds: every partition's, the merged aggregate, and every tenant's four
// merged histograms.
func summarize(parts []*replayPart, tenants int) {
	agg := stats.DefaultLatencyHistogram()
	agg.SetRetention(len(parts) << 16)
	for _, p := range parts {
		agg.Merge(p.hist)
		p.hist.Summarize()
	}
	agg.Summarize()
	for ti := 0; ti < max(tenants, 1); ti++ {
		merged := [4]*stats.Histogram{}
		for k := range merged {
			merged[k] = stats.DefaultLatencyHistogram()
			merged[k].SetRetention(len(parts) << 16)
		}
		for _, p := range parts {
			t := p.ten[ti]
			for k, h := range []*stats.Histogram{t.hist, t.cxl, t.hbm, t.ssd} {
				merged[k].Merge(h)
			}
		}
		for _, h := range merged {
			h.Summarize()
		}
	}
}

// replayParts builds one partition's worth of layers per spec partition.
func replayParts(spec serve.Spec, cfg serve.Config, b *serve.Bundle, shadowNet *lstm.Network, shadowNorm trace.Normalizer) ([]*replayPart, error) {
	pc := cfg.Cache
	pc.SizeBytes /= uint64(cfg.Partitions)
	tenants := max(len(cfg.Tenants), 1)
	parts := make([]*replayPart, cfg.Partitions)
	for i := range parts {
		pol := policy.NewGMM(policy.GMMConfig{
			Scorer:     b.Scorer,
			Normalizer: b.Norm,
			Transform:  cfg.Transform,
			Threshold:  b.Threshold,
			Mode:       cfg.Mode,
		})
		c, err := cache.New(pc, pol)
		if err != nil {
			return nil, err
		}
		link, err := cxl.NewLink(cfg.Link)
		if err != nil {
			return nil, err
		}
		p := &replayPart{cache: c, pol: pol, hist: stats.DefaultLatencyHistogram(), ten: make([]replayTenant, tenants)}
		for t := range p.ten {
			p.ten[t] = replayTenant{
				hist: stats.DefaultLatencyHistogram(),
				cxl:  stats.DefaultLatencyHistogram(),
				hbm:  stats.DefaultLatencyHistogram(),
				ssd:  stats.DefaultLatencyHistogram(),
			}
			if t < len(cfg.Tenants) && cfg.Tenants[t].QoS != nil {
				p.ten[t].ctrl = stats.DefaultLatencyHistogram()
			}
		}
		if cfg.Device.Timing == serve.TimingDataflow {
			tl, err := fpga.NewDeviceTimeline(cfg.Device.Dataflow)
			if err != nil {
				return nil, err
			}
			p.df = &device.Dataflow{Link: link, Timeline: tl, HostPages: cfg.Device.HostPages, HostLatNs: cfg.Device.HostLatencyNs}
		} else {
			mem, err := hbm.New(cfg.HBM)
			if err != nil {
				return nil, err
			}
			dev, err := ssd.New(cfg.SSD, cfg.SSDChannels)
			if err != nil {
				return nil, err
			}
			p.flat = &device.Flat{Mem: mem, Dev: dev, Link: link, OverheadNs: cfg.GMMInference.Nanoseconds(), Overlap: cfg.Overlap}
		}
		if shadowNet != nil {
			sp := policy.NewLSTMPolicy(policy.LSTMPolicyConfig{
				Net:        shadowNet,
				Normalizer: shadowNorm,
				Transform:  cfg.Transform,
				Threshold:  spec.Shadow.Threshold,
				Admission:  true,
				Eviction:   true,
			})
			if p.shadow, err = cache.New(pc, sp); err != nil {
				return nil, err
			}
		}
		parts[i] = p
	}
	return parts, nil
}

// replaySource builds the spec's request stream with serve's public source
// constructors, and for tenant runs the tenantStream that steers it.
func replaySource(spec serve.Spec) (serve.Source, *tenantStream, error) {
	if len(spec.Tenants) > 0 {
		var mux *workload.Mux
		var err error
		if spec.Clients != nil {
			mux, err = serve.NewClientMux(spec.Tenants, spec.Clients.EffectiveUsers(), spec.Clients.Alpha)
		} else {
			mux, err = serve.NewTenantMux(spec.Tenants)
		}
		if err != nil {
			return nil, nil, err
		}
		ts := &tenantStream{
			mux:     mux,
			index:   map[string]int{},
			diurnal: make([]*scenario.Event, len(spec.Tenants)),
			closed:  spec.Clients != nil,
			latSum:  make([]int64, len(spec.Tenants)),
			ops:     make([]int64, len(spec.Tenants)),
		}
		if spec.Scenario != nil {
			ts.timeline = scenario.NewTimeline(spec.Scenario)
		}
		for i, t := range spec.Tenants {
			ts.index[t.Name] = i
		}
		return serve.NewMuxSource(mux, spec.EffectiveOps()), ts, nil
	}
	gen, err := workload.ByName(spec.Workload.Name)
	if err != nil {
		return nil, nil, err
	}
	olc := workload.OpenLoopConfig{RatePerSec: spec.Workload.Rate, Seed: spec.Workload.Seed}
	if spec.Workload.Drift {
		// serve's "drift" moves the working set by 2^30 pages halfway
		// through the run.
		olc.ShiftAfter = spec.EffectiveOps() / 2
		olc.ShiftOffsetPages = 1 << 30
	}
	ol, err := workload.NewOpenLoop(gen, olc)
	if err != nil {
		return nil, nil, err
	}
	return serve.NewOpenLoopSource(ol, spec.EffectiveOps()), nil, nil
}

// tenantStream steers the replay's tenant mux the way a session steers
// its own: scenario events and diurnal rates at each batch boundary, and
// the closed-loop clients' latency feedback after each batch. A nil
// *tenantStream (single-stream runs) does nothing.
type tenantStream struct {
	mux      *workload.Mux
	timeline *scenario.Timeline
	index    map[string]int
	diurnal  []*scenario.Event // each tenant's active diurnal profile
	closed   bool
	latSum   []int64 // per tenant, over the current batch
	ops      []int64
}

// begin applies the events scheduled at the boundary before batch.
func (t *tenantStream) begin(batch uint64) error {
	if t == nil || t.timeline == nil {
		return nil
	}
	for _, ev := range t.timeline.Take(batch) {
		ti := t.index[ev.Tenant]
		switch ev.Kind {
		case scenario.KindJoin, scenario.KindLeave:
			t.mux.SetActive(ti, ev.Kind == scenario.KindJoin)
		case scenario.KindRate:
			t.diurnal[ti] = nil
			t.mux.SetRate(ti, ev.Rate)
		case scenario.KindDiurnal:
			t.diurnal[ti] = &ev
		case scenario.KindPhase:
			gen, err := workload.ByName(ev.Workload)
			if err != nil {
				return err
			}
			t.mux.SetGenerator(ti, gen)
		}
	}
	for ti, d := range t.diurnal {
		if d != nil {
			t.mux.SetRate(ti, scenario.DiurnalRate(d.Rate, d.Amp, d.Batch, d.Period, batch))
		}
	}
	return nil
}

// feedback hands each tenant's mean sojourn over the batch just served to
// its closed-loop clients.
func (t *tenantStream) feedback(parts []*replayPart) {
	if t == nil || !t.closed {
		return
	}
	for _, p := range parts {
		for i, req := range p.reqs {
			t.latSum[req.Tenant] += p.sojourn[i]
			t.ops[req.Tenant]++
		}
	}
	for ti := range t.ops {
		if t.ops[ti] > 0 {
			t.mux.ObserveLatency(ti, float64(t.latSum[ti])/float64(t.ops[ti]))
		}
		t.latSum[ti], t.ops[ti] = 0, 0
	}
}

// checkReplayable rejects specs whose replay would need serve's private
// defaults: the single stream must name its generator, seed and rate, and a
// shadow must spell out its network and training parameters.
func checkReplayable(spec serve.Spec) error {
	if w := spec.Workload; w != nil && (w.Name == "" || w.Custom != nil || w.Seed == 0 || w.Rate <= 0 || w.Burst != 0) {
		return fmt.Errorf("replay needs a named single-stream workload with explicit seed and positive rate, and no burst")
	}
	if sh := spec.Shadow; sh != nil && (sh.Hidden == 0 || sh.Layers == 0 || sh.SeqLen == 0 || sh.Threshold == 0 || sh.Epochs == 0 || sh.MaxExamples == 0) {
		return fmt.Errorf("replay needs explicit shadow hidden, layers, seq_len, threshold, epochs and max_examples")
	}
	return nil
}

// route is serve's page → partition hash (the splitmix64 finalizer), which
// the replay needs to give each partition the same requests.
func route(page, nParts uint64) uint64 {
	x := page
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x % nParts
}

// grow returns s resized to n, reallocating only when it is too small.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
