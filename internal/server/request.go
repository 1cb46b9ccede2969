package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"readduo/internal/drift"
	"readduo/internal/reliability"
	"readduo/internal/sim"
	"readduo/internal/trace"
)

// Every request type normalizes to a canonical form whose Key() string
// identifies the computation: same key, same bytes. Keys render every
// field explicitly (defaults applied first), so "metric=R" and an empty
// metric produce one cache entry, and float rendering goes through
// strconv's shortest-round-trip %g.

// The admission caps every Server enforces before any work is queued;
// together they bound the cost of a single request. They are constants,
// so a node routing a request and the node computing it always agree.
const (
	maxGridCells      = 4096       // LER table: len(intervals) * len(eccs)
	maxCompareSchemes = 8          // schemes per comparison
	maxMCCells        = 10_000_000 // Monte-Carlo population size
	maxCompareBudget  = 2_000_000  // per-core instruction budget
)

// badRequestError marks client errors (HTTP 400) apart from compute
// failures.
type badRequestError struct{ err error }

func (e badRequestError) Error() string { return e.err.Error() }
func (e badRequestError) Unwrap() error { return e.err }

func badf(format string, args ...any) error {
	return badRequestError{fmt.Errorf(format, args...)}
}

// metricConfig resolves the metric name ("R" or "M", case-insensitive)
// and the ambient temperature (0 means the 300 K default) to a drift
// configuration. The returned temperature is always explicit so request
// keys stay canonical: temp omitted and temp=300 are the same entry.
func metricConfig(name string, tempK float64) (string, float64, drift.Config, error) {
	if tempK == 0 {
		tempK = drift.DefaultTempK
	}
	if err := drift.ValidateTempK(tempK); err != nil {
		return "", 0, drift.Config{}, badRequestError{err}
	}
	switch strings.ToUpper(strings.TrimSpace(name)) {
	case "", "R":
		return "R", tempK, drift.RMetricConfigAt(tempK), nil
	case "M":
		return "M", tempK, drift.MMetricConfigAt(tempK), nil
	default:
		return "", 0, drift.Config{}, badf("unknown metric %q (want R or M)", name)
	}
}

// --- LER tables -------------------------------------------------------

// lerRequest asks for the line-error-rate grid of Tables III/IV: one
// readout metric evaluated over scrub intervals x BCH strengths.
type lerRequest struct {
	Metric    string    `json:"metric"`
	TempK     float64   `json:"temp"`
	ECCs      []int     `json:"eccs"`
	Intervals []float64 `json:"intervals"`

	cfg drift.Config
}

func (q *lerRequest) normalize() error {
	name, tempK, cfg, err := metricConfig(q.Metric, q.TempK)
	if err != nil {
		return err
	}
	q.Metric, q.TempK, q.cfg = name, tempK, cfg
	if len(q.ECCs) == 0 {
		q.ECCs = reliability.PaperECCs()
	}
	if len(q.Intervals) == 0 {
		q.Intervals = reliability.PaperIntervals()
	}
	for _, e := range q.ECCs {
		if e < 0 || e > 64 {
			return badf("ecc %d out of range 0..64", e)
		}
	}
	for _, s := range q.Intervals {
		if s <= 0 || s > 1e9 {
			return badf("interval %g out of range (0, 1e9] seconds", s)
		}
	}
	if cells := len(q.ECCs) * len(q.Intervals); cells > maxGridCells {
		return badf("grid of %d cells exceeds the %d-cell cap", cells, maxGridCells)
	}
	sort.Ints(q.ECCs)
	sort.Float64s(q.Intervals)
	q.ECCs = dedupInts(q.ECCs)
	q.Intervals = dedupFloats(q.Intervals)
	return nil
}

func (q *lerRequest) Key() string {
	return fmt.Sprintf("ler|m=%s|t=%s|e=%s|s=%s",
		q.Metric, strconv.FormatFloat(q.TempK, 'g', -1, 64),
		joinInts(q.ECCs), joinFloats(q.Intervals))
}

func (q *lerRequest) fromQuery(qv *queryValues) error {
	qv.str("metric", &q.Metric)
	if err := qv.float("temp", &q.TempK); err != nil {
		return err
	}
	if err := qv.intList("eccs", &q.ECCs); err != nil {
		return err
	}
	return qv.floatList("intervals", &q.Intervals)
}

// --- Policy checks ----------------------------------------------------

// policyRequest asks for the (BCH=E, S, W) acceptability verdict.
type policyRequest struct {
	Metric string  `json:"metric"`
	TempK  float64 `json:"temp"`
	E      int     `json:"e"`
	S      float64 `json:"s"`
	W      int     `json:"w"`

	cfg drift.Config
}

func (q *policyRequest) normalize() error {
	name, tempK, cfg, err := metricConfig(q.Metric, q.TempK)
	if err != nil {
		return err
	}
	q.Metric, q.TempK, q.cfg = name, tempK, cfg
	if q.E < 0 || q.E > 64 {
		return badf("e=%d out of range 0..64", q.E)
	}
	if q.S <= 0 || q.S > 1e9 {
		return badf("s=%g out of range (0, 1e9] seconds", q.S)
	}
	if q.W < 0 || q.W > q.E {
		return badf("w=%d out of range 0..e (e=%d)", q.W, q.E)
	}
	return nil
}

func (q *policyRequest) Key() string {
	return fmt.Sprintf("policy|m=%s|t=%s|e=%d|s=%s|w=%d",
		q.Metric, strconv.FormatFloat(q.TempK, 'g', -1, 64),
		q.E, strconv.FormatFloat(q.S, 'g', -1, 64), q.W)
}

func (q *policyRequest) fromQuery(qv *queryValues) error {
	qv.str("metric", &q.Metric)
	if err := qv.float("temp", &q.TempK); err != nil {
		return err
	}
	if err := qv.int("e", &q.E); err != nil {
		return err
	}
	if err := qv.float("s", &q.S); err != nil {
		return err
	}
	return qv.int("w", &q.W)
}

// --- Monte-Carlo endurance --------------------------------------------

// mcRequest asks for a bounded Monte-Carlo endurance study
// (lifetime.SimulateMCContext).
type mcRequest struct {
	Cells           int     `json:"cells"`
	MedianEndurance float64 `json:"median_endurance"`
	Sigma           float64 `json:"sigma"`
	WearRate        float64 `json:"wear_rate"`
	Seed            int64   `json:"seed"`
	Shards          int     `json:"shards"`
}

func (q *mcRequest) normalize() error {
	if q.Cells == 0 {
		q.Cells = 100_000
	}
	if q.Cells < 1 || q.Cells > maxMCCells {
		return badf("cells=%d out of range 1..%d", q.Cells, maxMCCells)
	}
	if q.MedianEndurance == 0 {
		q.MedianEndurance = 1e8
	}
	if q.Sigma == 0 {
		q.Sigma = 0.25
	}
	if q.WearRate == 0 {
		q.WearRate = 1e-3
	}
	if q.Seed == 0 {
		q.Seed = 1
	}
	if q.Shards == 0 {
		q.Shards = min(q.Cells, 64)
	}
	if q.Shards < 1 || q.Shards > q.Cells {
		return badf("shards=%d out of range 1..cells (%d)", q.Shards, q.Cells)
	}
	// Remaining numeric constraints (positivity) are MCConfig.Validate's
	// job; surface its verdict as a 400, not a compute failure.
	return nil
}

func (q *mcRequest) Key() string {
	return fmt.Sprintf("mc|n=%d|med=%s|sig=%s|rate=%s|seed=%d|shards=%d",
		q.Cells,
		strconv.FormatFloat(q.MedianEndurance, 'g', -1, 64),
		strconv.FormatFloat(q.Sigma, 'g', -1, 64),
		strconv.FormatFloat(q.WearRate, 'g', -1, 64),
		q.Seed, q.Shards)
}

func (q *mcRequest) fromQuery(qv *queryValues) error {
	if err := qv.int("cells", &q.Cells); err != nil {
		return err
	}
	if err := qv.float("median_endurance", &q.MedianEndurance); err != nil {
		return err
	}
	if err := qv.float("sigma", &q.Sigma); err != nil {
		return err
	}
	if err := qv.float("wear_rate", &q.WearRate); err != nil {
		return err
	}
	if err := qv.int64("seed", &q.Seed); err != nil {
		return err
	}
	return qv.int("shards", &q.Shards)
}

// --- Scheme comparison ------------------------------------------------

// compareRequest asks for a bounded full-system comparison: one
// benchmark, several schemes, a capped instruction budget.
type compareRequest struct {
	Benchmark string   `json:"benchmark"`
	Schemes   []string `json:"schemes"`
	Budget    uint64   `json:"budget"`
	Seed      int64    `json:"seed"`

	bench   trace.Benchmark
	schemes []sim.Scheme
}

func (q *compareRequest) normalize() error {
	if q.Benchmark == "" {
		return badf("missing benchmark (known: %s)", strings.Join(benchNames(), ", "))
	}
	bench, ok := trace.ByName(q.Benchmark)
	if !ok {
		return badf("unknown benchmark %q (known: %s)", q.Benchmark, strings.Join(benchNames(), ", "))
	}
	q.bench, q.Benchmark = bench, bench.Name
	if len(q.Schemes) == 0 {
		return badf("missing schemes (e.g. [\"Ideal\",\"LWT-4\"])")
	}
	if len(q.Schemes) > maxCompareSchemes {
		return badf("%d schemes exceed the %d-scheme cap", len(q.Schemes), maxCompareSchemes)
	}
	q.schemes = q.schemes[:0]
	seen := map[string]bool{}
	canonical := make([]string, 0, len(q.Schemes))
	for _, spec := range q.Schemes {
		sch, err := sim.Parse(spec)
		if err != nil {
			return badRequestError{err}
		}
		if seen[sch.Name()] {
			return badf("scheme %q listed twice", sch.Name())
		}
		seen[sch.Name()] = true
		q.schemes = append(q.schemes, sch)
		canonical = append(canonical, sch.Name())
	}
	q.Schemes = canonical
	if q.Budget == 0 {
		q.Budget = 25_000
	}
	if q.Budget > maxCompareBudget {
		return badf("budget %d exceeds the %d-instruction cap", q.Budget, maxCompareBudget)
	}
	if q.Seed == 0 {
		q.Seed = 1
	}
	return nil
}

func (q *compareRequest) Key() string {
	return fmt.Sprintf("compare|b=%s|schemes=%s|budget=%d|seed=%d",
		q.Benchmark, strings.Join(q.Schemes, ","), q.Budget, q.Seed)
}

func (q *compareRequest) fromQuery(qv *queryValues) error {
	qv.str("benchmark", &q.Benchmark)
	if err := qv.strList("schemes", &q.Schemes); err != nil {
		return err
	}
	if err := qv.uint64("budget", &q.Budget); err != nil {
		return err
	}
	return qv.int64("seed", &q.Seed)
}

// --- Decoding ---------------------------------------------------------

// decodeJSON decodes exactly one JSON value from r into dst. Unknown
// fields are rejected so typos fail loudly (mirroring the scheme parser's
// rejectUnknown), and so is anything but whitespace after the value.
func decodeJSON(r io.Reader, dst any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("unexpected data after the JSON value")
	}
	return nil
}

// decodeRequest fills dst from a POST JSON body (see decodeJSON) or GET
// query parameters.
func decodeRequest(r *http.Request, dst specRequest) error {
	switch r.Method {
	case http.MethodPost:
		if err := decodeJSON(http.MaxBytesReader(nil, r.Body, 1<<20), dst); err != nil {
			return badf("bad JSON body: %v", err)
		}
		return nil
	case http.MethodGet:
		qv := &queryValues{values: r.URL.Query()}
		if err := dst.fromQuery(qv); err != nil {
			return err
		}
		return qv.leftover()
	default:
		return badf("method %s not allowed", r.Method)
	}
}

// queryValues is a consuming view over URL query parameters: every Get
// marks the key used, and leftover() rejects whatever remains, so
// ?celsl=5 is an error rather than a silent default.
type queryValues struct {
	values map[string][]string
	used   map[string]bool
}

func (q *queryValues) get(key string) string {
	if q.used == nil {
		q.used = map[string]bool{}
	}
	q.used[key] = true
	vs := q.values[key]
	if len(vs) == 0 {
		return ""
	}
	return vs[0]
}

func (q *queryValues) leftover() error {
	for key := range q.values {
		if !q.used[key] {
			return badf("unknown query parameter %q", key)
		}
	}
	return nil
}

func (q *queryValues) str(key string, dst *string) error {
	if v := q.get(key); v != "" {
		*dst = v
	}
	return nil
}

func (q *queryValues) int(key string, dst *int) error {
	v := q.get(key)
	if v == "" {
		return nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return badf("parameter %s=%q is not an integer", key, v)
	}
	*dst = n
	return nil
}

func (q *queryValues) int64(key string, dst *int64) error {
	v := q.get(key)
	if v == "" {
		return nil
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		return badf("parameter %s=%q is not an integer", key, v)
	}
	*dst = n
	return nil
}

func (q *queryValues) uint64(key string, dst *uint64) error {
	v := q.get(key)
	if v == "" {
		return nil
	}
	n, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		return badf("parameter %s=%q is not a non-negative integer", key, v)
	}
	*dst = n
	return nil
}

func (q *queryValues) float(key string, dst *float64) error {
	v := q.get(key)
	if v == "" {
		return nil
	}
	f, ok := parseFinite(v)
	if !ok {
		return badf("parameter %s=%q is not a finite number", key, v)
	}
	*dst = f
	return nil
}

func (q *queryValues) intList(key string, dst *[]int) error {
	v := q.get(key)
	if v == "" {
		return nil
	}
	out, err := splitInts(v)
	if err != nil {
		return badf("parameter %s=%q: %v", key, v, err)
	}
	*dst = out
	return nil
}

func (q *queryValues) floatList(key string, dst *[]float64) error {
	v := q.get(key)
	if v == "" {
		return nil
	}
	parts := strings.Split(v, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		f, ok := parseFinite(strings.TrimSpace(p))
		if !ok {
			return badf("parameter %s=%q is not a list of finite numbers", key, v)
		}
		out = append(out, f)
	}
	*dst = out
	return nil
}

func (q *queryValues) strList(key string, dst *[]string) error {
	v := q.get(key)
	if v == "" {
		return nil
	}
	parts := strings.Split(v, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	*dst = out
	return nil
}

// --- small helpers ----------------------------------------------------

// parseFinite parses a float and reports whether it is a finite one.
// strconv.ParseFloat accepts NaN and ±Inf, which pass range checks
// written as comparisons and which JSON has no way to write.
func parseFinite(s string) (float64, bool) {
	f, err := strconv.ParseFloat(s, 64)
	return f, err == nil && !math.IsNaN(f) && !math.IsInf(f, 0)
}

func benchNames() []string {
	// Names covers registered corpus scenarios as well as the built-in
	// suite, so error messages advertise the full spec grammar.
	return trace.Names()
}

func splitInts(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("not an integer list")
		}
		out = append(out, n)
	}
	return out, nil
}

func joinInts(xs []int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.Itoa(x)
	}
	return strings.Join(parts, ",")
}

func joinFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'g', -1, 64)
	}
	return strings.Join(parts, ",")
}

func dedupInts(sorted []int) []int {
	out := sorted[:0]
	for i, x := range sorted {
		if i == 0 || x != sorted[i-1] {
			out = append(out, x)
		}
	}
	return out
}

func dedupFloats(sorted []float64) []float64 {
	out := sorted[:0]
	for i, x := range sorted {
		if i == 0 || x != sorted[i-1] {
			out = append(out, x)
		}
	}
	return out
}
