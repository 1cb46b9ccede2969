package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"readduo/internal/backend"
	"readduo/internal/campaign"
	"readduo/internal/sim"
)

// Response shapes. These are the service's wire contract; they flatten
// the internal types into explicit JSON so internal refactors don't
// silently change the API.

type lerResponse struct {
	Metric    string      `json:"metric"`
	TempK     float64     `json:"temp_k"`
	Intervals []float64   `json:"intervals_s"`
	ECCs      []int       `json:"eccs"`
	Targets   []float64   `json:"targets"`
	Values    [][]float64 `json:"values"`
}

type policyResponse struct {
	Metric         string  `json:"metric"`
	TempK          float64 `json:"temp_k"`
	E              int     `json:"e"`
	S              float64 `json:"s"`
	W              int     `json:"w"`
	FirstInterval  float64 `json:"first_interval"`
	SecondInterval float64 `json:"second_interval,omitempty"`
	ThirdInterval  float64 `json:"third_interval,omitempty"`
	TargetFirst    float64 `json:"target_first"`
	TargetSecond   float64 `json:"target_second,omitempty"`
	TargetThird    float64 `json:"target_third,omitempty"`
	Meets          bool    `json:"meets"`
}

type mcResponse struct {
	Cells            int     `json:"cells"`
	Seed             int64   `json:"seed"`
	Shards           int     `json:"shards"`
	FirstFailSeconds float64 `json:"first_fail_s"`
	P01Seconds       float64 `json:"p01_s"`
	MedianSeconds    float64 `json:"median_s"`
	MeanSeconds      float64 `json:"mean_s"`
}

type compareRow struct {
	Scheme           string  `json:"scheme"`
	ExecSeconds      float64 `json:"exec_s"`
	NormExecTime     float64 `json:"norm_exec_time"`
	SystemEnergyPJ   float64 `json:"system_energy_pj"`
	CellWrites       uint64  `json:"cell_writes"`
	RReads           uint64  `json:"r_reads"`
	MReads           uint64  `json:"m_reads"`
	RMReads          uint64  `json:"rm_reads"`
	Conversions      uint64  `json:"conversions"`
	SilentErrors     uint64  `json:"silent_errors"`
	AreaCellsPerLine float64 `json:"area_cells_per_line"`
}

type compareResponse struct {
	Benchmark string       `json:"benchmark"`
	Budget    uint64       `json:"budget"`
	Seed      int64        `json:"seed"`
	Rows      []compareRow `json:"rows"`
}

type schemesResponse struct {
	Grammars []string            `json:"grammars"`
	Sets     map[string][]string `json:"sets"`
	Resolved string              `json:"resolved,omitempty"`
}

// handleSpec serves one computable op: /v1/ler (the drift line-error-rate
// grid of Tables III/IV), /v1/policy (one (E, S, W) scrub-policy verdict),
// /v1/mc (a bounded Monte-Carlo endurance study) or /v1/compare (a bounded
// full-system scheme comparison on one benchmark, driven through the
// campaign engine with in-flight cancellation so an abandoned request
// stops simulating). It decodes and normalizes the request, renders it as
// a backend spec, and serves through the store.
func (s *Server) handleSpec(op string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		req, err := readSpecRequest(r, op)
		if err != nil {
			s.writeError(w, r, err)
			return
		}
		spec, err := specFor(op, req)
		if err != nil {
			s.writeError(w, r, err)
			return
		}
		s.serve(w, r, req.Key(), spec)
	}
}

// readSpecRequest decodes and normalizes an op's request from a GET
// query or a POST JSON body.
func readSpecRequest(r *http.Request, op string) (specRequest, error) {
	req, err := newSpecRequest(op)
	if err == nil {
		err = decodeRequest(r, req)
	}
	if err == nil {
		err = req.normalize()
	}
	return req, err
}

// handleCompute executes one spec routed here by another node's Remote
// backend. It always computes on this node's own Local pool, never
// through its cache tiers or its backend: a cache write would let a
// worker serve stale bytes, and a Remote hop would let nodes that list
// each other forward in a cycle. The canonical key is re-derived from
// the spec and a mismatch with the routed key is refused, so version
// skew between nodes fails loudly instead of filling the caller's cache
// with wrong bytes.
func (s *Server) handleCompute(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeError(w, r, badf("method %s not allowed", r.Method))
		return
	}
	var creq backend.ComputeRequest
	if err := decodeJSON(http.MaxBytesReader(w, r.Body, 1<<20), &creq); err != nil {
		s.writeError(w, r, badf("bad compute request: %v", err))
		return
	}
	req, err := decodeSpec(creq.Spec)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	if key := req.Key(); key != creq.Key {
		s.writeError(w, r, badf("spec key mismatch: routed %q, derived %q", creq.Key, key))
		return
	}

	ctx := r.Context()
	if h := r.Header.Get(backend.DeadlineHeader); h != "" {
		ms, err := strconv.ParseInt(h, 10, 64)
		if err != nil || ms <= 0 {
			s.writeError(w, r, badf("bad %s header %q", backend.DeadlineHeader, h))
			return
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(ms)*time.Millisecond)
		defer cancel()
	}

	buf, err := s.local.Compute(ctx, creq.Key, creq.Spec)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(buf)
}

// handleSchemes serves scheme-spec introspection: the registered
// grammars, the named scheme sets, and (with ?spec=) the canonical name
// a spec string resolves to. Pure metadata — served directly, uncached.
func (s *Server) handleSchemes(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(w, r, badf("method %s not allowed", r.Method))
		return
	}
	resp := schemesResponse{
		Grammars: sim.SchemeGrammars(),
		Sets: map[string][]string{
			"prior":   schemeNames(sim.PriorSchemes()),
			"readduo": schemeNames(sim.ReadDuoSchemes()),
			"all":     schemeNames(sim.AllSchemes()),
			"edap":    schemeNames(sim.EDAPSchemes()),
		},
	}
	if spec := r.URL.Query().Get("spec"); spec != "" {
		sch, err := sim.Parse(spec)
		if err != nil {
			s.writeError(w, r, badRequestError{err})
			return
		}
		resp.Resolved = sch.Name()
	}
	s.writeJSON(w, http.StatusOK, resp)
}

func schemeNames(schemes []sim.Scheme) []string {
	out := make([]string, len(schemes))
	for i, sch := range schemes {
		out[i] = sch.Name()
	}
	return out
}

// serve funnels a cacheable request through the store and translates the
// outcome onto the wire. Cached and freshly computed responses are the
// same bytes; X-Cache distinguishes them for observability only.
func (s *Server) serve(w http.ResponseWriter, r *http.Request, key string, spec backend.Spec) {
	buf, m, err := s.store.do(r.Context(), key, spec)
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	switch {
	case m.Cached:
		w.Header().Set("X-Cache", "hit")
	case m.Shared:
		w.Header().Set("X-Cache", "shared")
	default:
		w.Header().Set("X-Cache", "miss")
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(buf)
}

// statusClientClosedRequest is nginx's conventional code for a request
// abandoned by the client; the write usually lands nowhere, but logs and
// metrics see an honest status.
const statusClientClosedRequest = 499

// retryAfterSeconds is the Retry-After hint attached to 429 responses.
const retryAfterSeconds = 1

// writeError maps the store/backend error taxonomy onto HTTP statuses.
func (s *Server) writeError(w http.ResponseWriter, r *http.Request, err error) {
	var status int
	var bad badRequestError
	var badSpec backend.BadSpecError
	switch {
	case errors.As(err, &bad):
		status = http.StatusBadRequest
	case errors.As(err, &badSpec):
		// A worker rejected the spec deterministically: the client's
		// request is at fault, not the node.
		status = http.StatusBadRequest
	case errors.Is(err, campaign.ErrSaturated):
		status = http.StatusTooManyRequests
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
	case errors.Is(err, campaign.ErrPoolClosed):
		status = http.StatusServiceUnavailable
	case errors.Is(err, backend.ErrCircuitOpen):
		status = http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		status = http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		if r.Context().Err() != nil {
			status = statusClientClosedRequest
		} else {
			status = http.StatusServiceUnavailable // server shutting down
		}
	default:
		status = http.StatusInternalServerError
	}
	s.tel.errsByStatus(status).Inc()
	s.writeJSON(w, status, map[string]string{"error": err.Error()})
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	buf, err := json.Marshal(v)
	if err != nil {
		http.Error(w, fmt.Sprintf(`{"error":%q}`, err), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(buf, '\n'))
}
