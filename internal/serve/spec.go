package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"repro/internal/fpga"
	"repro/internal/policy"
	"repro/internal/scenario"
	"repro/internal/ssd"
	"repro/internal/strictjson"
	"repro/internal/trace"
	"repro/internal/workload"
)

// SpecVersion is the wire-format version this package reads and writes.
const SpecVersion = 1

// Spec is the declarative description of one serving run: a single
// versioned JSON document carrying everything cmd/icgmm-serve's flag set
// used to spell — training and trace-transform parameters, the
// partition/shard decomposition, the tenant population, the adaptive
// controller's levers, refresh/drift detection, the workload generators and
// the metrics sink. It is the wire format: ship the document to another
// machine and the run it describes is the same run, bit for bit.
//
// Defaulting happens when a Spec is turned into a runnable configuration
// (Config), never during decoding: a parsed Spec re-marshals to a document
// that parses back to the identical Spec, so specs survive round trips
// through tooling losslessly. Every omitted field takes the default of the
// corresponding legacy CLI flag (documented in the README's migration
// table).
type Spec struct {
	// Version must be SpecVersion; documents from a future format fail
	// loudly instead of being half-understood.
	Version int `json:"version"`
	// Shards sizes the worker pool (0 = one per core). Results are
	// bit-identical at any value.
	Shards int `json:"shards,omitempty"`
	// Partitions is the fixed address-space decomposition (default 16);
	// unlike Shards it is part of the simulated configuration.
	Partitions int `json:"partitions,omitempty"`
	// Ops bounds the run (default 2,000,000 requests).
	Ops uint64 `json:"ops,omitempty"`
	// Warmup is the initial-training trace length (default 200,000).
	Warmup int `json:"warmup,omitempty"`
	// Batch is the ingest batch size, the unit of partition draining and
	// drift observation (default 8192).
	Batch int `json:"batch,omitempty"`
	// Report is the interval-record period in batches (default 16; -1
	// disables interval records).
	Report int `json:"report,omitempty"`
	// Mode picks the GMM strategy: "gmm-caching-only", "gmm-eviction-only"
	// or "gmm-caching-eviction" (the default).
	Mode string `json:"mode,omitempty"`
	// Scoring picks the admission scorer datapath: "float64" (the default,
	// and the path the determinism goldens pin) or "q16", the Q16.16
	// fixed-point weight-buffer emulation. Checkpoints persist the float
	// model plus this field, so a q16 run resumes by re-quantizing
	// deterministically.
	Scoring string `json:"scoring,omitempty"`
	// Duration is an optional wall-clock ingest bound ("10s"); wall time is
	// non-reproducible by construction, so a spec carrying it trades the
	// determinism contract for a bounded run, exactly like the -duration
	// flag it replaces.
	Duration string `json:"duration,omitempty"`
	// Output is the JSONL metrics sink: a file path, or ""/"-" for stdout.
	// The loader (CLI, example harness) resolves it; the embedded Session
	// API takes an io.Writer directly.
	Output string `json:"output,omitempty"`

	// Cache describes the device cache geometry and backing store.
	Cache *CacheSpec `json:"cache,omitempty"`
	// Train describes GMM training and the Algorithm 1 trace transform.
	Train *TrainSpec `json:"train,omitempty"`
	// Workload is the single anonymous stream; mutually exclusive with
	// Tenants. Both omitted means the default dlrm stream.
	Workload *WorkloadSpec `json:"workload,omitempty"`
	// Tenants switches to multi-tenant serving (the former -tenants file,
	// absorbed into the spec).
	Tenants []TenantSpec `json:"tenants,omitempty"`
	// Refresh configures online model refresh and its drift trigger.
	Refresh *RefreshSpec `json:"refresh,omitempty"`
	// Control parameterizes the adaptive threshold/share controller.
	Control *ControlSpec `json:"control,omitempty"`
	// Telemetry opts into the live debug server and event trace. Like
	// Output it is loader-resolved (the CLI and cluster workers mount the
	// server; the embedded Session API ignores it) and read-side only: a
	// spec with telemetry produces byte-identical metric output to the same
	// spec without it.
	Telemetry *TelemetrySpec `json:"telemetry,omitempty"`
	// Device selects and parameterizes the device timing backend (flat
	// latency constants, the default, or the fpga dataflow pipeline).
	Device *DeviceSpec `json:"device,omitempty"`
	// Scenario attaches a deterministic timeline of batch-indexed events —
	// tenant churn, rate schedules, workload phase swaps — applied at batch
	// boundaries (requires tenants).
	Scenario *scenario.Spec `json:"scenario,omitempty"`
	// Clients switches every tenant from an open-loop arrival schedule to a
	// closed-loop client population whose offered load reacts to served
	// latency (requires tenants).
	Clients *ClientsSpec `json:"clients,omitempty"`
	// Shadow trains an LSTM admission policy on the same warm-up trace and
	// runs it as a shadow scorer over the live traffic: shadow hit-ratio and
	// latency deltas are recorded per tenant, and the live cache is never
	// touched.
	Shadow *ShadowSpec `json:"shadow,omitempty"`
}

// ClientsSpec configures closed-loop client populations (one per tenant).
// Each tenant's RatePerSec becomes the population's zero-latency target
// rate; once the simulated device saturates, completions (fed back through
// the session at batch boundaries) stretch inter-arrival times, so the
// offered load is a function of served latency — the feedback an open loop
// cannot express. Tenant burst modulation is ignored in this mode: the
// client's clock is its think/completion cycle. The warm-up trace remains
// open-loop (training sees page order, not arrival times).
type ClientsSpec struct {
	// Users is the number of simulated clients per tenant (default 8).
	Users int `json:"users,omitempty"`
	// Alpha is the EWMA weight for folding latency observations into the
	// clients' completion estimate (default 0.2).
	Alpha float64 `json:"alpha,omitempty"`
}

// EffectiveUsers returns the per-tenant client count with its default.
func (c *ClientsSpec) EffectiveUsers() int {
	if c == nil || c.Users == 0 {
		return 8
	}
	return c.Users
}

// Validate checks the client population parameters.
func (c ClientsSpec) Validate() error {
	if c.Users < 0 {
		return fmt.Errorf("serve: spec clients users %d negative", c.Users)
	}
	if c.Alpha < 0 || c.Alpha > 1 {
		return fmt.Errorf("serve: spec clients alpha %v outside [0,1]", c.Alpha)
	}
	return nil
}

// CacheSpec sizes the device cache and its backing store.
type CacheSpec struct {
	// SizeMB is the total cache capacity in MiB (default 64).
	SizeMB int `json:"size_mb,omitempty"`
	// Ways is the set associativity (default 8).
	Ways int `json:"ways,omitempty"`
	// SSD picks the backing-store profile: "tlc" (default), "slc", "qlc".
	SSD string `json:"ssd,omitempty"`
	// SSDChannels is the channel count per partition (default 8).
	SSDChannels int `json:"ssd_channels,omitempty"`
}

// TrainSpec describes initial training, refit behaviour and the trace
// transform.
type TrainSpec struct {
	// K is the GMM component count (default 64, the -k flag default).
	K int `json:"k,omitempty"`
	// Seed drives training (and, for the single-workload path, doubles as
	// the stream seed the way -seed did). Default 1.
	Seed int64 `json:"seed,omitempty"`
	// MaxIters bounds EM iterations (default 50).
	MaxIters int `json:"max_iters,omitempty"`
	// Tol is the EM convergence threshold (default 1e-4).
	Tol float64 `json:"tol,omitempty"`
	// MaxSamples caps the training set by uniform subsampling (default
	// 20000; -1 means unlimited).
	MaxSamples int `json:"max_samples,omitempty"`
	// LloydIters is the k-means initialization sweep count (default 4).
	LloydIters int `json:"lloyd_iters,omitempty"`
	// DiagonalCov constrains covariances to be diagonal (the
	// cheaper-datapath ablation).
	DiagonalCov bool `json:"diagonal_cov,omitempty"`
	// Window is Algorithm 1 len_window (default 32).
	Window int `json:"window,omitempty"`
	// Shot is Algorithm 1 len_access_shot (default 2000; window*shot must
	// fit the trimmed warm-up).
	Shot int `json:"shot,omitempty"`
	// ThresholdPct is the admission-threshold quantile over training scores
	// (default 0.02).
	ThresholdPct float64 `json:"threshold_pct,omitempty"`
}

// WorkloadSpec is the single anonymous request stream (the non-tenant
// path).
type WorkloadSpec struct {
	// Name picks a registry generator (default "dlrm"); Custom, when set,
	// takes precedence and composes a bespoke working set.
	Name   string                 `json:"name,omitempty"`
	Custom *workload.CustomConfig `json:"custom,omitempty"`
	// Seed drives the stream (default: the training seed).
	Seed int64 `json:"seed,omitempty"`
	// Rate is the open-loop arrival rate in req/s (default 1e6; negative
	// means a saturating source, the old -rate 0).
	Rate float64 `json:"rate,omitempty"`
	// Burst/BurstPeriod sinusoidally modulate the rate.
	Burst       float64 `json:"burst,omitempty"`
	BurstPeriod int     `json:"burst_period,omitempty"`
	// Drift shifts the working set halfway through Ops (the -drift flag).
	Drift bool `json:"drift,omitempty"`
}

// RefreshSpec configures online model refresh.
type RefreshSpec struct {
	// Mode is "off" (default) or "sync".
	Mode string `json:"mode,omitempty"`
	// Window/Min are the refit sample window and its minimum fill
	// (defaults 65536 / 4096).
	Window int `json:"window,omitempty"`
	Min    int `json:"min,omitempty"`
	// DriftDelta/DriftSustain/DriftWarmup/DriftAlpha parameterize the
	// hit-ratio drift detector (defaults 0.10 / 3 / 8 / 0.05).
	DriftDelta   float64 `json:"drift_delta,omitempty"`
	DriftSustain int     `json:"drift_sustain,omitempty"`
	DriftWarmup  int     `json:"drift_warmup,omitempty"`
	DriftAlpha   float64 `json:"drift_alpha,omitempty"`
}

// ControlSpec parameterizes the adaptive per-tenant controller.
type ControlSpec struct {
	// Every is the control period in batches (default 16); Step the
	// multiplicative threshold step (default 1.25).
	Every int     `json:"every,omitempty"`
	Step  float64 `json:"step,omitempty"`
	// MinMult/MaxMult clamp the threshold multiplier (defaults 2^-10,
	// 2^10).
	MinMult float64 `json:"min_mult,omitempty"`
	MaxMult float64 `json:"max_mult,omitempty"`
	// ShareAdapt enables the elastic capacity-share lever.
	ShareAdapt bool `json:"share_adapt,omitempty"`
	// ShareQuantum/ShareHold are the transfer size and bid patience
	// (defaults 8 / 2).
	ShareQuantum int `json:"share_quantum,omitempty"`
	ShareHold    int `json:"share_hold,omitempty"`
	// ShareCooldown pauses the share lever after a transfer (default 4; an
	// explicit 0 means no pause, which is why this field is a pointer).
	ShareCooldown *int `json:"share_cooldown,omitempty"`
	// ShareFloor is the constant per-partition floor a donor may not shrink
	// below (default ShareQuantum) — the fallback when ShareFloorRateFrac
	// is unset.
	ShareFloor int `json:"share_floor,omitempty"`
	// ShareFloorRateFrac, in (0,1], derives each donor's floor from its
	// arrival-rate share instead of the constant: floor_t =
	// max(1, frac * rateShare_t * blocksPerPartition). A tenant carrying
	// half the traffic then keeps a proportionally larger guaranteed
	// footprint than one trickling requests, where the constant floor
	// treated both alike. Zero keeps the constant-ShareFloor behaviour.
	ShareFloorRateFrac float64 `json:"share_floor_rate_frac,omitempty"`
}

// TelemetrySpec enables the opt-in live telemetry layer: an HTTP debug
// server exposing /metrics (Prometheus text), /status (JSON) and
// /debug/pprof, plus a wall-clock-stamped JSONL event trace. All of it is
// read-side: enabling telemetry never changes the deterministic metric
// output.
type TelemetrySpec struct {
	// Addr is the debug server's listen address; "127.0.0.1:0" picks a free
	// port (the loader reports the bound address). Empty disables the
	// server.
	Addr string `json:"addr,omitempty"`
	// Trace is the event-trace JSONL sink: a file path, or "-" for stderr.
	// Empty disables the trace.
	Trace string `json:"trace,omitempty"`
	// SnapshotEvery is how often (in ingest batches) the loader publishes a
	// full Session.Metrics snapshot to the /metrics and /status endpoints
	// (default 16). Each snapshot merges every partition and tenant
	// histogram, so very small values trade serving throughput for
	// telemetry freshness.
	SnapshotEvery int `json:"snapshot_every,omitempty"`
}

// EffectiveSnapshotEvery returns the snapshot cadence with its default.
func (t *TelemetrySpec) EffectiveSnapshotEvery() uint64 {
	if t == nil || t.SnapshotEvery == 0 {
		return 16
	}
	return uint64(t.SnapshotEvery)
}

// DeviceSpec selects the device timing backend and overrides its
// parameters. All cycle counts are in device clock cycles (233 MHz, ~4.29 ns
// each); omitted fields keep the paper's measured defaults
// (fpga.DefaultDataflowConfig).
type DeviceSpec struct {
	// Timing is "flat" (the default: per-outcome latency constants, the
	// path the determinism goldens pin) or "dataflow" (the Fig. 5 pipeline:
	// host/link routing in front of per-partition tag-compare / inference /
	// SSD module contention behind a bounded outstanding-request window).
	Timing string `json:"timing,omitempty"`
	// Outstanding is the host's request window under dataflow timing:
	// request i enters the device only after response i-Outstanding left
	// (default 1, a fully synchronous host).
	Outstanding int `json:"outstanding,omitempty"`
	// Overlap, when set, selects whether policy-engine scoring and SSD
	// access start concurrently on a miss (default true; false is the
	// serialized ablation). A pointer because an explicit false must be
	// distinguishable from omitted.
	Overlap *bool `json:"overlap,omitempty"`
	// TagCompareCycles/HitCycles/SSDReadCycles/SSDWriteCycles override the
	// pipeline stage timings (defaults 2 / 233 / 17475 / 209700).
	TagCompareCycles int64 `json:"tag_compare_cycles,omitempty"`
	HitCycles        int64 `json:"hit_cycles,omitempty"`
	SSDReadCycles    int64 `json:"ssd_read_cycles,omitempty"`
	SSDWriteCycles   int64 `json:"ssd_write_cycles,omitempty"`
	// InferenceCycles overrides the policy-engine scoring latency (default:
	// the paper's K=256 engine, 699 cycles).
	InferenceCycles int64 `json:"inference_cycles,omitempty"`
	// HostPages routes pages below it to host DRAM at HostLatencyNs
	// (default 100 ns), bypassing the link and the device entirely
	// (dataflow timing; 0 sends everything to the device).
	HostPages     uint64 `json:"host_pages,omitempty"`
	HostLatencyNs int64  `json:"host_latency_ns,omitempty"`
	// Link overrides the CXL port characteristics (both timing kinds).
	Link *LinkSpec `json:"link,omitempty"`
}

// LinkSpec overrides the CXL link model (cxl.DefaultLinkConfig defaults:
// 150 ns one-way, 25 B/ns, 64 B flits).
type LinkSpec struct {
	OneWayNs   int64   `json:"one_way_ns,omitempty"`
	BytesPerNs float64 `json:"bytes_per_ns,omitempty"`
	FlitBytes  uint64  `json:"flit_bytes,omitempty"`
}

// ParseSpec decodes and validates a spec document. Decoding is strict:
// unknown keys anywhere in the document are rejected with a field-path
// error (e.g. "spec.tenants[1].sahre: unknown field") instead of silently
// configuring defaults.
func ParseSpec(data []byte) (Spec, error) {
	var s Spec
	if err := strictjson.Unmarshal(data, &s, "spec"); err != nil {
		return Spec{}, err
	}
	// Normalize "tenants": [] to the absent form: omitempty drops an empty
	// array on re-marshal, and the two spell the same run, so keeping the
	// distinction would break the Marshal∘ParseSpec losslessness contract.
	if len(s.Tenants) == 0 {
		s.Tenants = nil
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// Marshal renders the spec as an indented JSON document. Marshal and
// ParseSpec are lossless inverses for any valid spec.
func (s Spec) Marshal() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// Validate checks the spec: version, structural exclusions, warm-up
// coverage, and every derived configuration constraint (the same checks
// Config.Validate applies to a hand-built configuration).
func (s Spec) Validate() error {
	if s.Version != SpecVersion {
		return fmt.Errorf("serve: spec version %d not supported (this build reads version %d)", s.Version, SpecVersion)
	}
	if s.Workload != nil && len(s.Tenants) > 0 {
		return errors.New("serve: spec sets both workload and tenants; a run is one or the other")
	}
	if s.Report < -1 {
		return fmt.Errorf("serve: spec report %d invalid (use -1 to disable interval records)", s.Report)
	}
	if s.Warmup < 0 {
		return errors.New("serve: negative warmup")
	}
	if s.Duration != "" {
		if _, err := time.ParseDuration(s.Duration); err != nil {
			return fmt.Errorf("serve: spec duration: %w", err)
		}
	}
	if c := s.Cache; c != nil && c.SizeMB < 0 {
		// Guard the sign extension: uint64(-1 MiB) << 20 is a multi-petabyte
		// cache that passes the geometry checks and OOMs at Open. Specs are
		// remotely-supplied input, so fail here, not at allocation.
		return fmt.Errorf("serve: spec cache size_mb %d negative", c.SizeMB)
	}
	if w := s.Workload; w != nil {
		if w.Custom == nil {
			if _, err := workload.ByName(s.workloadName()); err != nil {
				return err
			}
		} else if _, err := workload.NewCustom(*w.Custom); err != nil {
			return fmt.Errorf("serve: spec workload custom: %w", err)
		}
		if w.Burst < 0 || w.Burst >= 1 {
			return errors.New("serve: spec workload burst outside [0,1)")
		}
	}
	if c := s.Control; c != nil && (c.ShareFloorRateFrac < 0 || c.ShareFloorRateFrac > 1) {
		return errors.New("serve: spec control share_floor_rate_frac outside [0,1]")
	}
	if t := s.Telemetry; t != nil && t.SnapshotEvery < 0 {
		return fmt.Errorf("serve: spec telemetry snapshot_every %d negative", t.SnapshotEvery)
	}
	if sc := s.Scenario; sc != nil {
		if len(s.Tenants) == 0 {
			return errors.New("serve: spec scenario requires tenants")
		}
		names := make([]string, len(s.Tenants))
		byName := make(map[string]TenantSpec, len(s.Tenants))
		for i, ts := range s.Tenants {
			names[i] = ts.Name
			byName[ts.Name] = ts
		}
		if err := sc.Validate(names); err != nil {
			return fmt.Errorf("serve: spec scenario: %w", err)
		}
		for _, ev := range sc.Events {
			// A phase swap and a working-set shift race for the same
			// generator slot: OpenLoop.SetGenerator defers swaps while a
			// ShiftTo segment is live, which would make the swap batch
			// non-deterministic relative to the shift point. Reject the
			// combination outright.
			if ev.Kind == scenario.KindPhase && byName[ev.Tenant].ShiftAfter > 0 {
				return fmt.Errorf("serve: spec scenario: phase event at batch %d targets tenant %q which has shift_after; a tenant uses scenario phases or a working-set shift, not both", ev.Batch, ev.Tenant)
			}
		}
	}
	if c := s.Clients; c != nil {
		if len(s.Tenants) == 0 {
			return errors.New("serve: spec clients requires tenants")
		}
		if err := c.Validate(); err != nil {
			return err
		}
	}
	if sh := s.Shadow; sh != nil {
		if err := sh.Validate(); err != nil {
			return err
		}
	}
	cfg, err := s.config()
	if err != nil {
		return err
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	return ValidateWarmup(s.EffectiveWarmup(), cfg.Transform, s.Tenants)
}

// Config derives the runnable serving configuration, applying the
// documented defaults to every omitted field. The spec is validated first.
func (s Spec) Config() (Config, error) {
	if err := s.Validate(); err != nil {
		return Config{}, err
	}
	return s.config()
}

// EffectiveOps returns the request bound with its default applied.
func (s Spec) EffectiveOps() uint64 {
	if s.Ops == 0 {
		return 2_000_000
	}
	return s.Ops
}

// EffectiveWarmup returns the warm-up length with its default applied.
func (s Spec) EffectiveWarmup() int {
	if s.Warmup == 0 {
		return 200_000
	}
	return s.Warmup
}

// workloadName returns the single-stream generator name with its default.
func (s Spec) workloadName() string {
	if s.Workload != nil && s.Workload.Name != "" {
		return s.Workload.Name
	}
	return "dlrm"
}

// trainSeed returns the training seed with its default.
func (s Spec) trainSeed() int64 {
	if s.Train != nil && s.Train.Seed != 0 {
		return s.Train.Seed
	}
	return 1
}

// config builds the Config without validating the result.
func (s Spec) config() (Config, error) {
	cfg := DefaultConfig()
	// The CLI flag defaults differ from DefaultConfig in two places; the
	// spec mirrors the flags, which are the documented migration surface.
	cfg.Train.K = 64
	cfg.Transform.LenAccessShot = 2000
	cfg.Train.Seed = s.trainSeed()
	if s.Shards != 0 {
		cfg.Shards = s.Shards
	}
	if s.Partitions != 0 {
		cfg.Partitions = s.Partitions
	}
	if s.Batch != 0 {
		cfg.BatchSize = s.Batch
	}
	switch {
	case s.Report > 0:
		cfg.ReportEvery = s.Report
	case s.Report == -1:
		cfg.ReportEvery = 0
	}
	if s.Mode != "" {
		mode, err := policy.ParseGMMMode(s.Mode)
		if err != nil {
			return Config{}, fmt.Errorf("serve: %w", err)
		}
		cfg.Mode = mode
	}
	if s.Scoring != "" {
		kind, err := ParseScoringKind(s.Scoring)
		if err != nil {
			return Config{}, err
		}
		cfg.Scoring = kind
	}
	if c := s.Cache; c != nil {
		if c.SizeMB != 0 {
			cfg.Cache.SizeBytes = uint64(c.SizeMB) << 20
		}
		if c.Ways != 0 {
			cfg.Cache.Ways = c.Ways
		}
		if c.SSD != "" {
			prof, err := parseSSDProfile(c.SSD)
			if err != nil {
				return Config{}, err
			}
			cfg.SSD = prof
		}
		if c.SSDChannels != 0 {
			cfg.SSDChannels = c.SSDChannels
		}
	}
	if t := s.Train; t != nil {
		if t.K != 0 {
			cfg.Train.K = t.K
		}
		if t.MaxIters != 0 {
			cfg.Train.MaxIters = t.MaxIters
		}
		if t.Tol != 0 {
			cfg.Train.Tol = t.Tol
		}
		switch {
		case t.MaxSamples > 0:
			cfg.Train.MaxSamples = t.MaxSamples
		case t.MaxSamples < 0:
			cfg.Train.MaxSamples = 0 // unlimited
		}
		if t.LloydIters != 0 {
			cfg.Train.LloydIters = t.LloydIters
		}
		cfg.Train.DiagonalCov = t.DiagonalCov
		if t.Window != 0 {
			cfg.Transform.LenWindow = t.Window
		}
		if t.Shot != 0 {
			cfg.Transform.LenAccessShot = t.Shot
		}
		if t.ThresholdPct != 0 {
			cfg.ThresholdPct = t.ThresholdPct
		}
	}
	if r := s.Refresh; r != nil {
		if r.Mode != "" {
			mode, err := ParseRefreshMode(r.Mode)
			if err != nil {
				return Config{}, err
			}
			cfg.Refresh.Mode = mode
		}
		if r.Window != 0 {
			cfg.Refresh.WindowSamples = r.Window
		}
		if r.Min != 0 {
			cfg.Refresh.MinSamples = r.Min
		}
		if r.DriftDelta != 0 {
			cfg.Refresh.Drift.Delta = r.DriftDelta
		}
		if r.DriftSustain != 0 {
			cfg.Refresh.Drift.Sustain = r.DriftSustain
		}
		if r.DriftWarmup != 0 {
			cfg.Refresh.Drift.Warmup = r.DriftWarmup
		}
		if r.DriftAlpha != 0 {
			cfg.Refresh.Drift.Alpha = r.DriftAlpha
		}
	}
	if c := s.Control; c != nil {
		if c.Every != 0 {
			cfg.Control.Every = c.Every
		}
		if c.Step != 0 {
			cfg.Control.Step = c.Step
		}
		if c.MinMult != 0 {
			cfg.Control.MinMult = c.MinMult
		}
		if c.MaxMult != 0 {
			cfg.Control.MaxMult = c.MaxMult
		}
		cfg.Control.ShareAdapt = c.ShareAdapt
		if c.ShareQuantum != 0 {
			cfg.Control.ShareQuantum = c.ShareQuantum
		}
		if c.ShareHold != 0 {
			cfg.Control.ShareHold = c.ShareHold
		}
		if c.ShareCooldown != nil {
			cfg.Control.ShareCooldown = *c.ShareCooldown
		}
		if c.ShareFloor != 0 {
			cfg.Control.ShareFloor = c.ShareFloor
		}
		cfg.Control.ShareFloorRateFrac = c.ShareFloorRateFrac
	}
	if d := s.Device; d != nil {
		if d.Timing != "" {
			kind, err := ParseTimingKind(d.Timing)
			if err != nil {
				return Config{}, err
			}
			cfg.Device.Timing = kind
		}
		if d.Outstanding != 0 {
			cfg.Device.Dataflow.Outstanding = d.Outstanding
		}
		if d.Overlap != nil {
			cfg.Device.Dataflow.Overlap = *d.Overlap
		}
		if d.TagCompareCycles != 0 {
			cfg.Device.Dataflow.TagCompareCycles = d.TagCompareCycles
		}
		if d.HitCycles != 0 {
			cfg.Device.Dataflow.HitCycles = d.HitCycles
		}
		if d.SSDReadCycles != 0 {
			cfg.Device.Dataflow.SSDReadCycles = d.SSDReadCycles
		}
		if d.SSDWriteCycles != 0 {
			cfg.Device.Dataflow.SSDWriteCycles = d.SSDWriteCycles
		}
		if d.InferenceCycles != 0 {
			// A bare cycle count: an engine with no pipeline ramp whose K-term
			// drain is exactly the requested latency.
			cfg.Device.Dataflow.GMM = fpga.GMMEngineModel{K: int(d.InferenceCycles)}
		}
		cfg.Device.HostPages = d.HostPages
		if d.HostLatencyNs != 0 {
			cfg.Device.HostLatencyNs = d.HostLatencyNs
		}
		if l := d.Link; l != nil {
			if l.OneWayNs != 0 {
				cfg.Link.OneWayLatency = time.Duration(l.OneWayNs) * time.Nanosecond
			}
			if l.BytesPerNs != 0 {
				cfg.Link.BytesPerNs = l.BytesPerNs
			}
			if l.FlitBytes != 0 {
				cfg.Link.FlitBytes = l.FlitBytes
			}
		}
	}
	cfg.Tenants = s.Tenants
	return cfg, nil
}

// parseSSDProfile maps a spec ssd string to its latency profile.
func parseSSDProfile(s string) (ssd.Profile, error) {
	for _, p := range []ssd.Profile{ssd.TLC(), ssd.SLC(), ssd.QLC()} {
		if p.Name == s {
			return p, nil
		}
	}
	return ssd.Profile{}, fmt.Errorf("serve: unknown ssd profile %q (valid: tlc|slc|qlc)", s)
}

// warmTrace materializes the initial-training trace the spec describes: the
// merged multi-tenant view for tenant runs, the raw generator output for the
// single-stream path (matching what the legacy CLI trained on).
func (s Spec) warmTrace() (trace.Trace, error) {
	if len(s.Tenants) > 0 {
		mux, err := NewTenantMux(s.Tenants)
		if err != nil {
			return nil, err
		}
		return mux.Trace(s.EffectiveWarmup()), nil
	}
	gen, err := s.generator()
	if err != nil {
		return nil, err
	}
	return gen.Generate(s.EffectiveWarmup(), s.streamSeed()), nil
}

// generator resolves the single-stream generator.
func (s Spec) generator() (workload.Generator, error) {
	if s.Workload != nil && s.Workload.Custom != nil {
		return workload.NewCustom(*s.Workload.Custom)
	}
	return workload.ByName(s.workloadName())
}

// streamSeed returns the single-stream seed: the workload's own, falling
// back to the training seed exactly as the legacy -seed flag seeded both.
func (s Spec) streamSeed() int64 {
	if s.Workload != nil && s.Workload.Seed != 0 {
		return s.Workload.Seed
	}
	return s.trainSeed()
}

// openLoopConfig builds the single-stream open-loop configuration.
func (s Spec) openLoopConfig() workload.OpenLoopConfig {
	cfg := workload.OpenLoopConfig{RatePerSec: 1e6, Seed: s.streamSeed()}
	if w := s.Workload; w != nil {
		if w.Rate > 0 {
			cfg.RatePerSec = w.Rate
		} else if w.Rate < 0 {
			cfg.RatePerSec = 0 // saturating
		}
		cfg.BurstAmp = w.Burst
		cfg.BurstPeriod = w.BurstPeriod
		if w.Drift {
			cfg.ShiftAfter = s.EffectiveOps() / 2
			cfg.ShiftOffsetPages = 1 << 30
		}
	}
	return cfg
}

// TrainBundleFromSpec runs initial training as the spec describes it and
// packages the scoring bundle (see TrainBundle).
func TrainBundleFromSpec(s Spec) (*Bundle, error) {
	cfg, err := s.Config()
	if err != nil {
		return nil, err
	}
	warm, err := s.warmTrace()
	if err != nil {
		return nil, err
	}
	return TrainBundle(warm, cfg)
}
