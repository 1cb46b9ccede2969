package server

import (
	"encoding/json"
	"net/http"
	"testing"
)

// TestLERTempKeyCanonical pins the canonical-key contract for the
// temperature parameter: temp omitted and temp=300 are one cache entry,
// any other temperature is a different one.
func TestLERTempKeyCanonical(t *testing.T) {
	base := lerRequest{}
	if err := base.normalize(); err != nil {
		t.Fatal(err)
	}
	explicit := lerRequest{TempK: 300}
	if err := explicit.normalize(); err != nil {
		t.Fatal(err)
	}
	if base.Key() != explicit.Key() {
		t.Errorf("temp omitted and temp=300 split keys: %s vs %s", base.Key(), explicit.Key())
	}
	cryo := lerRequest{TempK: 250}
	if err := cryo.normalize(); err != nil {
		t.Fatal(err)
	}
	if cryo.Key() == base.Key() {
		t.Errorf("temp=250 shares the default key %s", base.Key())
	}

	pBase := policyRequest{E: 8, S: 16, W: 1}
	pHot := policyRequest{E: 8, S: 16, W: 1, TempK: 350}
	if err := pBase.normalize(); err != nil {
		t.Fatal(err)
	}
	if err := pHot.normalize(); err != nil {
		t.Fatal(err)
	}
	if pBase.Key() == pHot.Key() {
		t.Errorf("policy keys ignore temperature: %s", pBase.Key())
	}
}

// TestTempValidation rejects temperatures outside the model's range.
func TestTempValidation(t *testing.T) {
	for _, temp := range []float64{-1, 2, 3.9, 400.1, 1e6} {
		req := lerRequest{TempK: temp}
		if err := req.normalize(); err == nil {
			t.Errorf("temp=%v accepted", temp)
		}
		pol := policyRequest{E: 8, S: 16, TempK: temp}
		if err := pol.normalize(); err == nil {
			t.Errorf("policy temp=%v accepted", temp)
		}
	}
}

// TestLERTempEndpoint drives temperature end to end over HTTP and checks
// the physics sign: the same grid cell at 350 K can only be worse (higher
// LER) than at 250 K.
func TestLERTempEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	grid := func(temp string) lerResponse {
		t.Helper()
		resp, body := get(t, ts, "/v1/ler?metric=R&eccs=8&intervals=64&temp="+temp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("temp=%s: status %d: %s", temp, resp.StatusCode, body)
		}
		var out lerResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatalf("temp=%s: bad JSON: %v\n%s", temp, err, body)
		}
		return out
	}
	cold, hot := grid("250"), grid("350")
	if cold.TempK != 250 || hot.TempK != 350 {
		t.Fatalf("responses do not echo the temperature: %v, %v", cold.TempK, hot.TempK)
	}
	if cold.Values[0][0] > hot.Values[0][0] {
		t.Errorf("LER at 250K (%g) exceeds 350K (%g)", cold.Values[0][0], hot.Values[0][0])
	}
	if resp, body := get(t, ts, "/v1/ler?temp=2"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("temp=2 not rejected: %d %s", resp.StatusCode, body)
	}
}

// TestPhysicsSchemeGrammar proves every new scheme family resolves through
// the serving grammar endpoint with its canonical name.
func TestPhysicsSchemeGrammar(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for spec, want := range map[string]string{
		"lwc:r=16":                "LWC-16",
		"scrubbing:temp=250":      "Scrubbing@temp=250",
		"lwc:r=8,disturb=0.0005":  "LWC-8@disturb=0.0005",
		"hybrid:temp=330":         "Hybrid@temp=330",
		"ideal:temp=300":          "Ideal",
		"Select-4:2@disturb=0.01": "Select-4:2@disturb=0.01",
	} {
		resp, body := get(t, ts, "/v1/schemes?spec="+spec)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("spec %q: status %d: %s", spec, resp.StatusCode, body)
			continue
		}
		var out schemesResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		if out.Resolved != want {
			t.Errorf("spec %q resolved to %q, want %q", spec, out.Resolved, want)
		}
	}
}

// TestComparePhysicsSchemes runs the new families through the bounded
// comparison endpoint (the canonical-key path journals depend on).
func TestComparePhysicsSchemes(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := get(t, ts,
		"/v1/compare?benchmark=gcc&schemes=scrubbing,lwc:r=16,scrubbing:temp=250&budget=20000&seed=3")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out compareResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Rows) != 3 {
		t.Fatalf("rows: %+v", out.Rows)
	}
	if out.Rows[1].Scheme != "LWC-16" || out.Rows[2].Scheme != "Scrubbing@temp=250" {
		t.Errorf("canonical scheme names wrong: %+v", out.Rows)
	}
}
