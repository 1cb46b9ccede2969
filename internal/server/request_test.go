package server

import (
	"net/http/httptest"
	"strings"
	"testing"

	"readduo/internal/reliability"
)

// TestLERKeyCanonical verifies that equivalent requests — defaults spelled
// out or elided, lists permuted or duplicated — collapse to one cache key.
func TestLERKeyCanonical(t *testing.T) {
	base := lerRequest{}
	if err := base.normalize(); err != nil {
		t.Fatal(err)
	}
	// Spell out the defaults explicitly, permuted and with a duplicate.
	eccs := reliability.PaperECCs()
	eccs = append([]int{eccs[len(eccs)-1], eccs[0]}, eccs...)
	ints := reliability.PaperIntervals()
	ints = append([]float64{ints[len(ints)-1]}, ints...)
	spelled := lerRequest{Metric: "r", ECCs: eccs, Intervals: ints}
	if err := spelled.normalize(); err != nil {
		t.Fatal(err)
	}
	if base.Key() != spelled.Key() {
		t.Fatalf("keys differ:\n  %s\n  %s", base.Key(), spelled.Key())
	}
	other := lerRequest{Metric: "M"}
	if err := other.normalize(); err != nil {
		t.Fatal(err)
	}
	if base.Key() == other.Key() {
		t.Fatalf("R and M metrics share key %s", base.Key())
	}
}

func TestLERValidation(t *testing.T) {
	cases := []lerRequest{
		{Metric: "Q"},
		{ECCs: []int{-1}},
		{ECCs: []int{100}},
		{Intervals: []float64{0}},
		{Intervals: []float64{-4}},
		{ECCs: make([]int, 100), Intervals: make([]float64, 100)}, // grid cap
	}
	for i, req := range cases {
		if err := req.normalize(); err == nil {
			t.Errorf("case %d: want validation error, got key %s", i, req.Key())
		}
	}
}

func TestPolicyValidation(t *testing.T) {
	good := policyRequest{E: 8, S: 16, W: 1}
	if err := good.normalize(); err != nil {
		t.Fatal(err)
	}
	if want := "policy|m=R|t=300|e=8|s=16|w=1"; good.Key() != want {
		t.Fatalf("key = %s, want %s", good.Key(), want)
	}
	bad := []policyRequest{
		{E: -1, S: 16},
		{E: 8, S: 0},
		{E: 8, S: 16, W: 9}, // W > E
	}
	for i, req := range bad {
		if err := req.normalize(); err == nil {
			t.Errorf("case %d: want validation error", i)
		}
	}
}

func TestMCDefaultsAndCaps(t *testing.T) {
	req := mcRequest{}
	if err := req.normalize(); err != nil {
		t.Fatal(err)
	}
	if req.Cells != 100_000 || req.Seed != 1 || req.Shards == 0 {
		t.Fatalf("defaults not applied: %+v", req)
	}
	over := mcRequest{Cells: 20_000_000}
	if err := over.normalize(); err == nil {
		t.Fatal("cells cap not enforced")
	}
	badShards := mcRequest{Cells: 10, Shards: 11}
	if err := badShards.normalize(); err == nil {
		t.Fatal("shards > cells accepted")
	}
}

func TestCompareNormalization(t *testing.T) {
	req := compareRequest{Benchmark: "gcc", Schemes: []string{"ideal", "lwt:k=8"}}
	if err := req.normalize(); err != nil {
		t.Fatal(err)
	}
	if req.Budget != 25_000 || req.Seed != 1 {
		t.Fatalf("defaults not applied: %+v", req)
	}
	// Spec strings canonicalize through the parser, so spelling variants
	// share a key.
	alias := compareRequest{Benchmark: "gcc", Schemes: []string{"Ideal", "LWT:k=8"}}
	if err := alias.normalize(); err != nil {
		t.Fatal(err)
	}
	if req.Key() != alias.Key() {
		t.Fatalf("keys differ:\n  %s\n  %s", req.Key(), alias.Key())
	}

	bad := []compareRequest{
		{Schemes: []string{"ideal"}},                                        // no benchmark
		{Benchmark: "nope", Schemes: []string{"ideal"}},                     // unknown benchmark
		{Benchmark: "gcc"},                                                  // no schemes
		{Benchmark: "gcc", Schemes: []string{"bogus"}},                      // unparsable scheme
		{Benchmark: "gcc", Schemes: []string{"ideal", "Ideal"}},             // duplicate
		{Benchmark: "gcc", Schemes: []string{"ideal"}, Budget: 100_000_000}, // budget cap
	}
	for i, req := range bad {
		if err := req.normalize(); err == nil {
			t.Errorf("case %d: want validation error", i)
		}
	}
}

// TestCompareAcceptsCorpusScenarios pins the serve spec grammar the
// workload subsystem promises: bench=corpus:zipfian resolves like any
// built-in workload (the server package registers the corpus).
func TestCompareAcceptsCorpusScenarios(t *testing.T) {
	req := compareRequest{Benchmark: "corpus:zipfian", Schemes: []string{"ideal"}}
	if err := req.normalize(); err != nil {
		t.Fatal(err)
	}
	if req.Benchmark != "corpus:zipfian" || req.bench.Name != "corpus:zipfian" {
		t.Fatalf("corpus benchmark not canonicalized: %+v", req)
	}
	if !strings.Contains(req.Key(), "b=corpus:zipfian") {
		t.Fatalf("key %q lacks the corpus benchmark", req.Key())
	}
	// The known-benchmark listing in errors advertises corpus names.
	missing := compareRequest{Schemes: []string{"ideal"}}
	err := missing.normalize()
	if err == nil || !strings.Contains(err.Error(), "corpus:zipfian") {
		t.Fatalf("err = %v, want corpus names in the known list", err)
	}
}

func TestQueryDecodeRejectsUnknownParams(t *testing.T) {
	r := httptest.NewRequest("GET", "/v1/mc?cells=100&sseed=3", nil)
	var req mcRequest
	err := decodeRequest(r, &req)
	if err == nil || !strings.Contains(err.Error(), "sseed") {
		t.Fatalf("err = %v, want unknown-parameter complaint about sseed", err)
	}
}

func TestJSONDecodeRejectsUnknownFields(t *testing.T) {
	r := httptest.NewRequest("POST", "/v1/mc", strings.NewReader(`{"cells":100,"sseed":3}`))
	var req mcRequest
	err := decodeRequest(r, &req)
	if err == nil || !strings.Contains(err.Error(), "sseed") {
		t.Fatalf("err = %v, want unknown-field complaint about sseed", err)
	}
}

func TestQueryDecodeTypes(t *testing.T) {
	r := httptest.NewRequest("GET", "/v1/ler?metric=M&eccs=4,8&intervals=16,32.5", nil)
	var req lerRequest
	err := decodeRequest(r, &req)
	if err != nil {
		t.Fatal(err)
	}
	if req.Metric != "M" || len(req.ECCs) != 2 || req.Intervals[1] != 32.5 {
		t.Fatalf("decoded %+v", req)
	}

	bad := httptest.NewRequest("GET", "/v1/ler?eccs=4,x", nil)
	err = decodeRequest(bad, &lerRequest{})
	if err == nil {
		t.Fatal("malformed int list accepted")
	}
}
