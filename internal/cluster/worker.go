package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
	"repro/internal/strictjson"
	"repro/internal/telemetry"
)

// Worker hosts serving sessions behind the cluster protocol. It is an
// http.Handler: mount it on any listener and its URL is a worker address.
// The same type backs both the spawned `icgmm-cluster worker` process and
// the in-process workers the tests run.
//
// Sessions are single-goroutine; the worker serializes all session-touching
// requests behind one mutex, so a coordinator may issue requests for
// different sessions on the same worker concurrently and they simply queue.
type Worker struct {
	mu       sync.Mutex
	sessions map[string]*workerSession
	// count mirrors len(sessions) atomically so the health endpoint never
	// waits on the session mutex: a worker mid-step must still answer
	// heartbeats, or a long step reads as a death.
	count atomic.Int64
	// reg is the worker's telemetry registry: session progress, snapshots
	// and event counters, published at batch boundaries. The health endpoint
	// and the debug endpoints (/metrics, /status, /debug/pprof) read only
	// it, which is what keeps them independent of the session mutex.
	reg   *telemetry.Registry
	debug http.Handler
}

// workerSession is one hosted session plus its incarnation-local metric
// accounting. emitted counts every byte the session has written since it
// was opened or resumed here; the buffer holds the bytes not yet drained
// into a step response.
type workerSession struct {
	sess    *serve.Session
	buf     bytes.Buffer
	emitted uint64
	// lastCkpt is the most recent periodic checkpoint captured by the hook,
	// waiting to ride out on the next step response.
	lastCkpt *checkpointInfo
	closed   bool
	// lastPub is when the session's full snapshot was last published to the
	// telemetry registry. Each snapshot merges every partition and tenant
	// histogram, so publishing is time-gated (snapshotMinGap) rather than
	// per-step.
	lastPub time.Time
}

// snapshotMinGap is the minimum wall-clock spacing between full snapshot
// publications for one session. Cheap progress counters publish every step
// regardless.
const snapshotMinGap = 500 * time.Millisecond

// Write is the session's metrics sink: into the drain buffer, counting.
func (ws *workerSession) Write(p []byte) (int, error) {
	ws.emitted += uint64(len(p))
	return ws.buf.Write(p)
}

// NewWorker returns an empty worker.
func NewWorker() *Worker {
	reg := telemetry.NewRegistry()
	return &Worker{
		sessions: make(map[string]*workerSession),
		reg:      reg,
		debug:    telemetry.NewHandler(reg),
	}
}

// Registry exposes the worker's telemetry registry (read-side state the
// debug endpoints serve); embedding callers can scrape it directly.
func (w *Worker) Registry() *telemetry.Registry { return w.reg }

// ServeHTTP routes the protocol endpoints; everything outside /v1/ goes to
// the telemetry debug handler (/metrics, /status, /debug/pprof/).
func (w *Worker) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/" + protocolVersion + "/open":
		w.post(rw, r, w.handleOpen)
	case "/" + protocolVersion + "/resume":
		w.post(rw, r, w.handleResume)
	case "/" + protocolVersion + "/step":
		w.post(rw, r, w.handleStep)
	case "/" + protocolVersion + "/checkpoint":
		w.post(rw, r, w.handleCheckpoint)
	case "/" + protocolVersion + "/detach":
		w.post(rw, r, w.handleDetach)
	case "/" + protocolVersion + "/health":
		writeJSON(rw, http.StatusOK, w.health())
	default:
		if !strings.HasPrefix(r.URL.Path, "/"+protocolVersion+"/") {
			w.debug.ServeHTTP(rw, r)
			return
		}
		writeJSON(rw, http.StatusNotFound, errorResponse{Error: fmt.Sprintf("cluster: unknown endpoint %s (this worker speaks %s)", r.URL.Path, protocolVersion)})
	}
}

// health assembles the heartbeat reply from the telemetry registry alone:
// no session mutex, so a worker mid-step (which can hold the mutex for a
// long refit) still answers within the prober's deadline.
func (w *Worker) health() healthResponse {
	resp := healthResponse{Sessions: int(w.count.Load())}
	st := w.reg.Status()
	for i := range st.Sessions {
		s := &st.Sessions[i]
		resp.Detail = append(resp.Detail, sessionHealth{
			Session:             s.Name,
			Batches:             s.Batches,
			Done:                s.Done,
			LastCheckpointBatch: s.LastCheckpointBatch,
		})
	}
	return resp
}

// post reads the body and dispatches to an endpoint handler, mapping its
// error to a JSON error reply.
func (w *Worker) post(rw http.ResponseWriter, r *http.Request, h func(body []byte) (any, error)) {
	if r.Method != http.MethodPost {
		writeJSON(rw, http.StatusMethodNotAllowed, errorResponse{Error: "cluster: POST required"})
		return
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		writeJSON(rw, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	resp, err := h(body)
	if err != nil {
		writeJSON(rw, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	writeJSON(rw, http.StatusOK, resp)
}

func writeJSON(rw http.ResponseWriter, code int, v any) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(code)
	json.NewEncoder(rw).Encode(v) //nolint:errcheck // nothing to do about a dead client
}

func (w *Worker) handleOpen(body []byte) (any, error) {
	var req openRequest
	if err := strictjson.Unmarshal(body, &req, "open"); err != nil {
		return nil, err
	}
	if req.Session == "" {
		return nil, fmt.Errorf("cluster: open: empty session name")
	}
	spec, err := serve.ParseSpec(req.Spec)
	if err != nil {
		return nil, err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, ok := w.sessions[req.Session]; ok {
		return nil, fmt.Errorf("cluster: session %q already open on this worker", req.Session)
	}
	ws := &workerSession{}
	sess, err := serve.Open(spec, ws)
	if err != nil {
		return nil, err
	}
	ws.sess = sess
	w.adopt(req.Session, ws, req.CheckpointEvery)
	return openResponse{Batches: sess.Batches()}, nil
}

func (w *Worker) handleResume(body []byte) (any, error) {
	var req resumeRequest
	if err := strictjson.Unmarshal(body, &req, "resume"); err != nil {
		return nil, err
	}
	if req.Session == "" {
		return nil, fmt.Errorf("cluster: resume: empty session name")
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, ok := w.sessions[req.Session]; ok {
		return nil, fmt.Errorf("cluster: session %q already open on this worker", req.Session)
	}
	ws := &workerSession{}
	sess, err := serve.Resume(bytes.NewReader(req.Checkpoint), ws)
	if err != nil {
		return nil, err
	}
	ws.sess = sess
	w.adopt(req.Session, ws, req.CheckpointEvery)
	return openResponse{Batches: sess.Batches()}, nil
}

// adopt is the shared tail of open and resume: arm the periodic-checkpoint
// hook, wire the session's event observer into the telemetry registry,
// publish its starting position, and register it. Caller holds w.mu.
func (w *Worker) adopt(name string, ws *workerSession, every uint64) {
	w.armCheckpointHook(name, ws, every)
	ws.sess.Observe(telemetry.SessionObserver(w.reg, nil, name))
	w.reg.PublishProgress(name, ws.sess.Batches(), false)
	w.sessions[name] = ws
	w.count.Store(int64(len(w.sessions)))
}

// armCheckpointHook registers the periodic-checkpoint hook: at every
// boundary it snapshots the document together with the session's position
// in its metric stream. The hook fires mid-Step, so emitted is read at the
// boundary — before any bytes the rest of the step will add.
func (w *Worker) armCheckpointHook(name string, ws *workerSession, every uint64) {
	if every == 0 {
		return
	}
	ws.sess.CheckpointEvery(every, func(doc []byte) error {
		ws.lastCkpt = &checkpointInfo{
			Batches: ws.sess.Batches(),
			Emitted: ws.emitted,
			Doc:     json.RawMessage(append([]byte(nil), doc...)),
		}
		w.reg.RecordCheckpoint(name, ws.sess.Batches())
		return nil
	})
}

func (w *Worker) handleStep(body []byte) (any, error) {
	var req stepRequest
	if err := strictjson.Unmarshal(body, &req, "step"); err != nil {
		return nil, err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	ws, ok := w.sessions[req.Session]
	if !ok {
		return nil, fmt.Errorf("cluster: no session %q on this worker", req.Session)
	}
	if ws.closed {
		return nil, fmt.Errorf("cluster: session %q already finished", req.Session)
	}
	for ws.sess.Batches() < req.Target && !ws.sess.Done() {
		n, err := ws.sess.Step(1)
		if err != nil {
			return nil, err
		}
		if n == 0 {
			break
		}
	}
	resp := stepResponse{Batches: ws.sess.Batches(), Done: ws.sess.Done()}
	if ws.sess.Done() {
		// Close here so the final records travel back in this response;
		// the coordinator never has to make a separate closing round-trip.
		if err := ws.sess.Close(); err != nil {
			return nil, err
		}
		ws.closed = true
		resp.Closed = true
	}
	// Telemetry: cheap progress counters every step; the full snapshot
	// (which sorts retained histogram samples) only when snapshotMinGap has
	// passed or the session just finished. Both happen at a batch boundary
	// on the session's own goroutine, so Metrics() is legal, and neither
	// writes to the metric stream.
	w.reg.PublishProgress(req.Session, ws.sess.Batches(), ws.closed)
	if now := time.Now(); ws.closed || now.Sub(ws.lastPub) >= snapshotMinGap {
		ws.lastPub = now
		w.reg.PublishSnapshot(req.Session, ws.sess.Metrics())
	}
	if ws.buf.Len() > 0 {
		resp.Metrics = append([]byte(nil), ws.buf.Bytes()...)
		ws.buf.Reset()
	}
	resp.Checkpoint = ws.lastCkpt
	ws.lastCkpt = nil
	return resp, nil
}

func (w *Worker) handleCheckpoint(body []byte) (any, error) {
	var req checkpointRequest
	if err := strictjson.Unmarshal(body, &req, "checkpoint"); err != nil {
		return nil, err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	ws, ok := w.sessions[req.Session]
	if !ok {
		return nil, fmt.Errorf("cluster: no session %q on this worker", req.Session)
	}
	if ws.closed {
		return nil, fmt.Errorf("cluster: session %q already finished", req.Session)
	}
	var doc bytes.Buffer
	if err := ws.sess.Checkpoint(&doc); err != nil {
		return nil, err
	}
	w.reg.RecordCheckpoint(req.Session, ws.sess.Batches())
	return checkpointInfo{
		Batches: ws.sess.Batches(),
		Emitted: ws.emitted,
		Doc:     json.RawMessage(doc.Bytes()),
	}, nil
}

func (w *Worker) handleDetach(body []byte) (any, error) {
	var req detachRequest
	if err := strictjson.Unmarshal(body, &req, "detach"); err != nil {
		return nil, err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	ws, ok := w.sessions[req.Session]
	if !ok {
		return nil, fmt.Errorf("cluster: no session %q on this worker", req.Session)
	}
	ws.sess.Detach()
	delete(w.sessions, req.Session)
	w.count.Store(int64(len(w.sessions)))
	// The session's live state now belongs to whoever resumed it; keep this
	// worker's telemetry to sessions it actually hosts.
	w.reg.Remove(req.Session)
	return detachResponse{Detached: true}, nil
}
