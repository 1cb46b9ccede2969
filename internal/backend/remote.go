package backend

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"readduo/internal/telemetry"
)

// ComputePath is the worker endpoint Remote posts specs to.
const ComputePath = "/compute"

// ComputeRequest is the wire body of one POST /compute call.
type ComputeRequest struct {
	// Key is the canonical spec key the frontend routed on; the worker
	// recomputes it from Spec and refuses a mismatch, so version skew
	// between frontend and worker fails loudly instead of poisoning
	// caches with wrong bytes.
	Key  string `json:"key"`
	Spec Spec   `json:"spec"`
}

// DeadlineHeader carries the frontend's remaining per-computation
// budget in milliseconds, so a worker bounds its own compute even when
// the TCP connection outlives the caller's patience.
const DeadlineHeader = "X-Deadline-Ms"

// RemoteOptions tunes a Remote backend.
type RemoteOptions struct {
	// ComputeTimeout caps one remote attempt; <= 0 leaves the caller's
	// ctx deadline as the only bound.
	ComputeTimeout time.Duration
	// Sink receives remote.* telemetry; nil disables probes.
	Sink *telemetry.Sink
}

// breaker is the per-node circuit breaker's timing: a node's circuit
// opens after failThreshold consecutive failures, refuses the node for
// cooldown before a half-open trial, and is probed on /healthz every
// healthInterval while open (a 200 closes it early).
type breaker struct {
	failThreshold  int
	cooldown       time.Duration
	healthInterval time.Duration
}

// defaultBreaker is every Remote's breaker.
var defaultBreaker = breaker{failThreshold: 3, cooldown: 5 * time.Second, healthInterval: time.Second}

// NodeStatus is one worker's live routing state, surfaced on /statusz.
type NodeStatus struct {
	Addr     string `json:"addr"`
	Open     bool   `json:"circuit_open"`
	Failures int    `json:"consecutive_failures"`
	OK       uint64 `json:"ok"`
	Errors   uint64 `json:"errors"`
}

// nodeState is one worker's circuit breaker: consecutive failures past
// the threshold open the circuit for a cooldown; the first request
// after the cooldown is the half-open trial, and a health-probe 200
// closes it early. The transition methods report state changes (not
// every call) so the breaker counters count transitions, which is what
// an operator alerts on: "opened 40 times this hour" means flapping,
// while raw failure counts just restate the error rate.
type nodeState struct {
	addr string

	mu        sync.Mutex
	fails     int
	openUntil time.Time
	tripped   bool // circuit opened and not yet closed by success/probe

	ok     atomic.Uint64
	errors atomic.Uint64

	openGauge *telemetry.Gauge // remote.node.<addr>.circuit_open
}

func (n *nodeState) isOpen(now time.Time) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return now.Before(n.openUntil)
}

func (n *nodeState) success() (closed bool) {
	n.ok.Add(1)
	n.mu.Lock()
	closed = n.tripped
	n.fails = 0
	n.openUntil = time.Time{}
	n.tripped = false
	n.mu.Unlock()
	if closed {
		n.openGauge.Set(0)
	}
	return closed
}

func (n *nodeState) failure(now time.Time, threshold int, cooldown time.Duration) (opened bool) {
	n.errors.Add(1)
	n.mu.Lock()
	n.fails++
	if n.fails >= threshold {
		// A failure while already tripped (the half-open trial, or racing
		// requests) extends the cooldown but is not a new transition.
		opened = !n.tripped
		n.openUntil = now.Add(cooldown)
		n.tripped = true
	}
	n.mu.Unlock()
	if opened {
		n.openGauge.Set(1)
	}
	return opened
}

func (n *nodeState) reset() (closed bool) {
	n.mu.Lock()
	closed = n.tripped
	n.fails = 0
	n.openUntil = time.Time{}
	n.tripped = false
	n.mu.Unlock()
	if closed {
		n.openGauge.Set(0)
	}
	return closed
}

// remoteProbes is the Remote backend's telemetry (nil-safe).
type remoteProbes struct {
	ok          *telemetry.Counter
	nodeErrors  *telemetry.Counter
	fallbacks   *telemetry.Counter
	circuitOpen *telemetry.Counter
	remoteMS    *telemetry.Histogram

	// Breaker state transitions: open counts closed->open trips, close
	// counts open->closed recoveries (trial success or health probe),
	// probe counts /healthz attempts against open circuits.
	breakerOpen  *telemetry.Counter
	breakerClose *telemetry.Counter
	breakerProbe *telemetry.Counter
}

// Remote routes canonical spec keys across worker nodes by consistent
// hashing, with per-node circuit breaking and degradation to local
// compute: a node failure (connection error, timeout, or a 5xx/429/503
// from the worker) falls back to the Local backend for that request and
// counts against the node's breaker. An open circuit skips the network
// round trip entirely. Responses are byte-identical across routes
// because every node runs the same deterministic evaluator.
type Remote struct {
	workers []string
	ring    *ring
	nodes   []*nodeState
	local   *Local
	opts    RemoteOptions
	brk     breaker
	client  *http.Client
	tel     remoteProbes

	inflight atomic.Int64
	now      func() time.Time // injectable for breaker tests

	stop     chan struct{}
	probeWG  sync.WaitGroup
	stopOnce sync.Once
}

// NewRemote builds a Remote over the given worker base addresses
// (host:port). local, when non-nil, is the per-request fallback; nil
// surfaces ErrCircuitOpen / node errors to the caller instead.
func NewRemote(workers []string, local *Local, opts RemoteOptions) (*Remote, error) {
	return newRemote(workers, local, opts, defaultBreaker)
}

// newRemote is NewRemote with an explicit breaker, so tests can open,
// cool down and probe circuits on short timescales.
func newRemote(workers []string, local *Local, opts RemoteOptions, brk breaker) (*Remote, error) {
	if len(workers) == 0 {
		return nil, fmt.Errorf("backend: remote needs at least one worker address")
	}
	r := &Remote{
		workers: workers,
		ring:    newRing(workers),
		local:   local,
		opts:    opts,
		brk:     brk,
		client:  &http.Client{},
		now:     time.Now,
		stop:    make(chan struct{}),
		tel: remoteProbes{
			ok:           opts.Sink.Counter("remote.ok"),
			nodeErrors:   opts.Sink.Counter("remote.node_errors"),
			fallbacks:    opts.Sink.Counter("remote.fallbacks"),
			circuitOpen:  opts.Sink.Counter("remote.circuit_open"),
			remoteMS:     opts.Sink.Histogram("remote.wall_ms"),
			breakerOpen:  opts.Sink.Counter("remote.breaker.open"),
			breakerClose: opts.Sink.Counter("remote.breaker.close"),
			breakerProbe: opts.Sink.Counter("remote.breaker.probe"),
		},
	}
	for _, w := range workers {
		r.nodes = append(r.nodes, &nodeState{
			addr:      w,
			openGauge: opts.Sink.Gauge("remote.node." + w + ".circuit_open"),
		})
	}
	r.probeWG.Add(1)
	go r.healthLoop()
	return r, nil
}

// Compute routes key to its ring node and executes there, degrading to
// the local backend on node failure or an open circuit.
func (r *Remote) Compute(ctx context.Context, key string, spec Spec) ([]byte, error) {
	r.inflight.Add(1)
	defer r.inflight.Add(-1)

	node := r.nodes[r.ring.node(key)]
	if node.isOpen(r.now()) {
		r.tel.circuitOpen.Inc()
		return r.fallback(ctx, key, spec, ErrCircuitOpen)
	}

	buf, err, nodeFault := r.call(ctx, node, key, spec)
	if err == nil {
		if node.success() {
			r.tel.breakerClose.Inc()
		}
		r.tel.ok.Inc()
		return buf, nil
	}
	if !nodeFault {
		// Deterministic request error (bad spec) or our own caller's
		// cancellation: not the node's fault, no fallback.
		return nil, err
	}
	if node.failure(r.now(), r.brk.failThreshold, r.brk.cooldown) {
		r.tel.breakerOpen.Inc()
	}
	r.tel.nodeErrors.Inc()
	return r.fallback(ctx, key, spec, err)
}

// call performs one HTTP attempt against node. nodeFault reports
// whether a failure should count against the node's breaker and trigger
// fallback (network errors, worker saturation/drain/timeout) as opposed
// to request-level or caller-side errors.
func (r *Remote) call(ctx context.Context, node *nodeState, key string, spec Spec) (buf []byte, err error, nodeFault bool) {
	attempt, cancel := ctx, context.CancelFunc(func() {})
	if r.opts.ComputeTimeout > 0 {
		attempt, cancel = context.WithTimeout(ctx, r.opts.ComputeTimeout)
	}
	defer cancel()

	body, err := json.Marshal(ComputeRequest{Key: key, Spec: spec})
	if err != nil {
		return nil, fmt.Errorf("backend: marshal compute request: %w", err), false
	}
	req, err := http.NewRequestWithContext(attempt, http.MethodPost,
		"http://"+node.addr+ComputePath, bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("backend: build compute request: %w", err), false
	}
	req.Header.Set("Content-Type", "application/json")
	if dl, ok := attempt.Deadline(); ok {
		if ms := time.Until(dl).Milliseconds(); ms > 0 {
			req.Header.Set(DeadlineHeader, strconv.FormatInt(ms, 10))
		}
	}

	start := r.now()
	resp, err := r.client.Do(req)
	r.tel.remoteMS.Observe(uint64(r.now().Sub(start).Milliseconds()))
	if err != nil {
		if ctx.Err() != nil {
			// The caller itself is done (client hung up, request
			// deadline): surface that, don't blame the node.
			return nil, ctx.Err(), false
		}
		// Includes the per-attempt timeout: the node was too slow.
		return nil, fmt.Errorf("backend: worker %s: %w", node.addr, err), true
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err(), false
		}
		return nil, fmt.Errorf("backend: worker %s: read response: %w", node.addr, err), true
	}
	switch resp.StatusCode {
	case http.StatusOK:
		return payload, nil, false
	case http.StatusBadRequest:
		return nil, BadSpecError{Msg: errorMessage(payload)}, false
	default:
		// 429 (worker saturated), 503 (draining), 504 (compute timeout),
		// 5xx: the node cannot serve this request right now.
		return nil, fmt.Errorf("backend: worker %s: status %d: %s",
			node.addr, resp.StatusCode, errorMessage(payload)), true
	}
}

// fallback degrades a failed remote computation to the local backend;
// without one, cause surfaces to the caller.
func (r *Remote) fallback(ctx context.Context, key string, spec Spec, cause error) ([]byte, error) {
	if r.local == nil {
		return nil, cause
	}
	r.tel.fallbacks.Inc()
	return r.local.Compute(ctx, key, spec)
}

// errorMessage extracts the {"error": ...} body the taxonomy writes,
// falling back to the raw payload.
func errorMessage(payload []byte) string {
	var body struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(payload, &body) == nil && body.Error != "" {
		return body.Error
	}
	return string(bytes.TrimSpace(payload))
}

// healthLoop probes open circuits: a worker that answers /healthz gets
// its breaker closed without waiting out the cooldown, so recovery is
// bounded by the probe interval rather than by traffic.
func (r *Remote) healthLoop() {
	defer r.probeWG.Done()
	ticker := time.NewTicker(r.brk.healthInterval)
	defer ticker.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-ticker.C:
		}
		for _, node := range r.nodes {
			if !node.isOpen(r.now()) {
				continue
			}
			r.tel.breakerProbe.Inc()
			ctx, cancel := context.WithTimeout(context.Background(), r.brk.healthInterval)
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+node.addr+"/healthz", nil)
			if err == nil {
				if resp, err := r.client.Do(req); err == nil {
					resp.Body.Close()
					if resp.StatusCode == http.StatusOK && node.reset() {
						r.tel.breakerClose.Inc()
					}
				}
			}
			cancel()
		}
	}
}

// Depth reports in-flight computations routed through this backend
// (remote attempts and their local fallbacks alike).
func (r *Remote) Depth() int { return int(r.inflight.Load()) }

// Nodes snapshots every worker's routing state for /statusz.
func (r *Remote) Nodes() []NodeStatus {
	now := r.now()
	out := make([]NodeStatus, len(r.nodes))
	for i, n := range r.nodes {
		n.mu.Lock()
		out[i] = NodeStatus{
			Addr:     n.addr,
			Open:     now.Before(n.openUntil),
			Failures: n.fails,
			OK:       n.ok.Load(),
			Errors:   n.errors.Load(),
		}
		n.mu.Unlock()
	}
	return out
}

// Close stops the health probe loop. In-flight Computes finish.
func (r *Remote) Close() error {
	r.stopOnce.Do(func() { close(r.stop) })
	r.probeWG.Wait()
	return nil
}
