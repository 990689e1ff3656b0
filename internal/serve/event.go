package serve

// Event kinds emitted through Session.Observe. These are the serving-path
// state transitions worth tracing live: the deterministic metric JSONL
// records them too (as "refresh"/"share" records and detector state), but an
// observer sees them as they happen, which is what a telemetry trace wants.
const (
	// EventDrift: the hit-ratio drift detector fired (one per episode).
	EventDrift = "drift"
	// EventRefresh: a refitted model bundle was installed.
	EventRefresh = "refresh"
	// EventRefreshFailed: a refit errored; the previous bundle keeps
	// serving.
	EventRefreshFailed = "refresh-failed"
	// EventShare: the controller moved HBM capacity between tenants.
	EventShare = "share"
	// EventCheckpoint: a checkpoint document was captured (explicit
	// Checkpoint or the CheckpointEvery hook).
	EventCheckpoint = "checkpoint"
	// EventCongestion: under dataflow timing, every device-routed request in
	// a reporting interval stalled on a full outstanding window — the device
	// was saturated for the whole interval.
	EventCongestion = "congestion"
	// EventTenantJoin / EventTenantLeave: a scenario timeline event changed
	// the tenant population and the capacity rebalance ran; Tenant names the
	// churned tenant and Blocks its post-rebalance budget (summed over
	// partitions).
	EventTenantJoin  = "tenant-join"
	EventTenantLeave = "tenant-leave"
	// EventShadowDivergence: at a reporting interval, the shadow policy's
	// cumulative hit ratio diverged from the live policy's beyond the spec's
	// divergence threshold. HitRatio carries the live value, Baseline the
	// shadow's.
	EventShadowDivergence = "shadow_divergence"
)

// Event is one observed serving-path state transition. Batch locates it on
// the deterministic virtual timeline; which fields beyond that are set
// depends on Kind (see the kind constants). Events carry no wall-clock
// time — stamping, if wanted, is the observer's business.
type Event struct {
	Kind  string
	Batch uint64
	// Drift fields: the firing batch's hit ratio against the detector
	// baseline.
	HitRatio float64
	Baseline float64
	// Refresh fields: the new bundle's calibrated threshold and the install
	// count after this one.
	Threshold float64
	Refreshes uint64
	// Refresh-failed field: the refit error text.
	Err string
	// Share fields: receiving and donating tenant names and the blocks
	// moved (summed over partitions).
	Tenant string
	Donor  string
	Blocks uint64
	// Congestion field: the interval's mean outstanding-window depth.
	QueueDepth float64
}

// emit hands an event to the observer, if any. Called only from the
// session's own goroutine at batch boundaries (or within batch-boundary
// work), so observers need no locking against the serving path.
func (s *Service) emit(ev Event) {
	if s.obs != nil {
		ev.Batch = s.batches
		s.obs(ev)
	}
}

// Observe registers fn to receive serving-path events (drift fired, refresh
// installed, share transferred, checkpoint captured). fn is called
// synchronously on the session's goroutine at batch boundaries: it must not
// block, and it needs no locking against the session. A nil fn removes the
// observer. Observers see state transitions only — they cannot influence
// them — so registering one never changes the deterministic output.
func (s *Session) Observe(fn func(Event)) { s.svc.obs = fn }
