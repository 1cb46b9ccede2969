package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	"readduo/internal/backend"
	"readduo/internal/campaign"
	"readduo/internal/lifetime"
	"readduo/internal/reliability"
	"readduo/internal/telemetry"
	"readduo/internal/trace"
)

// This file is the compute side of the backend split: a backend.Spec
// (op + normalized body) deterministically reproduces the response
// bytes on any node. The /v1/* handlers and a worker's /compute both
// funnel through decodeSpec/newEvaluator, which is what makes responses
// byte-identical across topologies.

// Spec op names. /v1/schemes is pure metadata and never reaches a
// backend.
const (
	opLER     = "ler"
	opPolicy  = "policy"
	opMC      = "mc"
	opCompare = "compare"
)

// specRequest is the common shape of the four computable request types:
// fill from GET query parameters, normalize to canonical form, render the
// canonical key, compute.
type specRequest interface {
	fromQuery(qv *queryValues) error
	normalize() error
	Key() string
	compute(ctx context.Context, reg *telemetry.Registry) (any, error)
}

// newSpecRequest returns an empty request of the op's type.
func newSpecRequest(op string) (specRequest, error) {
	switch op {
	case opLER:
		return &lerRequest{}, nil
	case opPolicy:
		return &policyRequest{}, nil
	case opMC:
		return &mcRequest{}, nil
	case opCompare:
		return &compareRequest{}, nil
	}
	return nil, badf("unknown op %q", op)
}

// decodeSpec rebuilds the normalized request a Spec describes. Unknown
// ops and malformed bodies are deterministic request errors (400), not
// compute failures. Normalization is idempotent, so a frontend's
// already-normalized body round-trips to the identical canonical key.
func decodeSpec(spec backend.Spec) (specRequest, error) {
	req, err := newSpecRequest(spec.Op)
	if err != nil {
		return nil, err
	}
	if err := decodeJSON(bytes.NewReader(spec.Body), req); err != nil {
		return nil, badf("bad %s spec body: %v", spec.Op, err)
	}
	if err := req.normalize(); err != nil {
		return nil, err
	}
	return req, nil
}

// specFor renders a normalized request as its wire Spec.
func specFor(op string, req specRequest) (backend.Spec, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return backend.Spec{}, fmt.Errorf("server: marshal %s spec: %w", op, err)
	}
	return backend.Spec{Op: op, Body: body}, nil
}

// newEvaluator builds the backend.Evaluator for this node: Spec in,
// marshaled newline-terminated response bytes out. reg receives
// campaign telemetry from compare runs; nil disables it.
func newEvaluator(reg *telemetry.Registry) backend.Evaluator {
	return func(ctx context.Context, spec backend.Spec) ([]byte, error) {
		req, err := decodeSpec(spec)
		if err != nil {
			return nil, err
		}
		val, err := req.compute(ctx, reg)
		if err != nil {
			return nil, err
		}
		out, err := json.Marshal(val)
		if err != nil {
			return nil, fmt.Errorf("server: marshal result: %w", err)
		}
		return append(out, '\n'), nil
	}
}

// --- per-op compute bodies (moved verbatim from the PR-5 handlers) ----

func (q *lerRequest) compute(context.Context, *telemetry.Registry) (any, error) {
	an, err := reliability.NewAnalyzer(q.cfg)
	if err != nil {
		return nil, err
	}
	tab := an.BuildTable(q.Intervals, q.ECCs)
	return lerResponse{
		Metric:    q.Metric,
		TempK:     q.TempK,
		Intervals: tab.Intervals,
		ECCs:      tab.ECCs,
		Targets:   tab.Targets,
		Values:    tab.Values,
	}, nil
}

func (q *policyRequest) compute(context.Context, *telemetry.Registry) (any, error) {
	an, err := reliability.NewAnalyzer(q.cfg)
	if err != nil {
		return nil, err
	}
	rep, err := an.Check(reliability.Policy{E: q.E, S: q.S, W: q.W})
	if err != nil {
		return nil, err
	}
	return policyResponse{
		Metric: q.Metric, TempK: q.TempK, E: q.E, S: q.S, W: q.W,
		FirstInterval:  rep.FirstInterval,
		SecondInterval: rep.SecondInterval,
		ThirdInterval:  rep.ThirdInterval,
		TargetFirst:    rep.TargetFirst,
		TargetSecond:   rep.TargetSecond,
		TargetThird:    rep.TargetThird,
		Meets:          rep.Meets,
	}, nil
}

func (q *mcRequest) compute(ctx context.Context, _ *telemetry.Registry) (any, error) {
	res, err := lifetime.SimulateMCContext(ctx, lifetime.MCConfig{
		Cells:           q.Cells,
		MedianEndurance: q.MedianEndurance,
		Sigma:           q.Sigma,
		WearRate:        q.WearRate,
		Seed:            q.Seed,
		Shards:          q.Shards,
		Workers:         1, // one pool slot per request; fairness over speed
	})
	if err != nil {
		if ctx.Err() == nil {
			err = badRequestError{err} // MCConfig.Validate rejection
		}
		return nil, err
	}
	return mcResponse{
		Cells: q.Cells, Seed: q.Seed, Shards: q.Shards,
		FirstFailSeconds: res.FirstFailSeconds,
		P01Seconds:       res.P01Seconds,
		MedianSeconds:    res.MedianSeconds,
		MeanSeconds:      res.MeanSeconds,
	}, nil
}

func (q *compareRequest) compute(ctx context.Context, reg *telemetry.Registry) (any, error) {
	spec := campaign.Spec{
		Benchmarks: []trace.Benchmark{q.bench},
		Schemes:    q.schemes,
		Seeds:      []int64{q.Seed},
		Budget:     q.Budget,
	}
	out, err := campaign.Run(ctx, spec, campaign.Options{
		Parallel:       1, // the request already occupies one pool slot
		Telemetry:      reg,
		CancelInFlight: true,
	})
	if err != nil {
		return nil, err
	}
	if out.Interrupted {
		return nil, ctx.Err()
	}
	mats, err := out.Matrices(spec)
	if err != nil {
		return nil, err
	}
	results := mats[0].Matrix.Results[0]
	resp := compareResponse{
		Benchmark: q.Benchmark,
		Budget:    q.Budget,
		Seed:      q.Seed,
		Rows:      make([]compareRow, len(results)),
	}
	base := results[0].ExecTime.Seconds()
	for i, res := range results {
		norm := 0.0
		if base > 0 {
			norm = res.ExecTime.Seconds() / base
		}
		resp.Rows[i] = compareRow{
			Scheme:           res.Scheme,
			ExecSeconds:      res.ExecTime.Seconds(),
			NormExecTime:     norm,
			SystemEnergyPJ:   res.SystemEnergyPJ,
			CellWrites:       res.CellWrites,
			RReads:           res.RReads,
			MReads:           res.MReads,
			RMReads:          res.RMReads,
			Conversions:      res.Conversions,
			SilentErrors:     res.SilentErrors,
			AreaCellsPerLine: res.AreaCellsPerLine,
		}
	}
	return resp, nil
}
