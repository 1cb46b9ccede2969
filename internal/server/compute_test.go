package server

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"readduo/internal/backend"
)

// routedPolicy is what a Remote backend posts for /v1/policy?e=8&s=16&w=1.
const routedPolicy = `{"key":"policy|m=R|t=300|e=8|s=16|w=1","spec":{"op":"policy","body":{"metric":"R","e":8,"s":16,"w":1}}}`

// postCompute sends body to /compute with an optional X-Deadline-Ms.
func postCompute(t *testing.T, ts *httptest.Server, method, body, deadline string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, ts.URL+backend.ComputePath, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if deadline != "" {
		req.Header.Set(backend.DeadlineHeader, deadline)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s /compute: %v", method, err)
	}
	defer resp.Body.Close()
	buf, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s /compute: read body: %v", method, err)
	}
	return resp, buf
}

// remoteCounters snapshots every server.remote.* counter.
func remoteCounters(s *Server) map[string]uint64 {
	out := make(map[string]uint64)
	for name, v := range s.reg.Snapshot().Counters {
		if strings.HasPrefix(name, "server.remote.") {
			out[name] = v
		}
	}
	return out
}

// TestComputeContract pins POST /compute, the route every node answers
// for the nodes that list it in RemoteWorkers: a routed spec computes
// on the node's own pool to the same bytes /v1/* serves, without
// touching the cache or the node's own remote backend, and malformed
// input, version skew and saturation map onto the serving taxonomy.
func TestComputeContract(t *testing.T) {
	srv, ts := newTestServer(t, Config{})

	resp, computed := postCompute(t, ts, http.MethodPost, routedPolicy, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("routed spec: status %d (%s)", resp.StatusCode, computed)
	}
	if xc := resp.Header.Get("X-Cache"); xc != "" {
		t.Errorf("/compute answered X-Cache %q; it must not go through the cache", xc)
	}
	resp, served := get(t, ts, "/v1/policy?e=8&s=16&w=1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/policy: status %d (%s)", resp.StatusCode, served)
	}
	if xc := resp.Header.Get("X-Cache"); xc != "miss" {
		t.Errorf("/v1/policy after /compute: X-Cache %q, want miss (/compute must not fill the cache)", xc)
	}
	if string(computed) != string(served) {
		t.Fatalf("/compute and /v1/policy bodies differ:\n%s\n%s", computed, served)
	}

	skewed := strings.Replace(routedPolicy, "e=8", "e=9", 1)
	cases := []struct {
		name, method, body, deadline, wantErr string
	}{
		{"non-POST", http.MethodGet, "", "", "method GET not allowed"},
		{"malformed JSON", http.MethodPost, `{"key":`, "", "bad compute request"},
		{"unknown field", http.MethodPost, `{"key":"k","spec":{"op":"policy"},"extra":1}`, "", "unknown field"},
		{"zero deadline", http.MethodPost, routedPolicy, "0", "bad X-Deadline-Ms header"},
		{"negative deadline", http.MethodPost, routedPolicy, "-5", "bad X-Deadline-Ms header"},
		{"non-numeric deadline", http.MethodPost, routedPolicy, "soon", "bad X-Deadline-Ms header"},
		{"key mismatch", http.MethodPost, skewed, "", "spec key mismatch"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postCompute(t, ts, tc.method, tc.body, tc.deadline)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400 (%s)", resp.StatusCode, body)
			}
			var e map[string]string
			if err := json.Unmarshal(body, &e); err != nil || !strings.Contains(e["error"], tc.wantErr) {
				t.Fatalf("error body %q, want it to contain %q", body, tc.wantErr)
			}
		})
	}

	// A positive deadline is honoured, not refused.
	if resp, body := postCompute(t, ts, http.MethodPost, routedPolicy, "5000"); resp.StatusCode != http.StatusOK ||
		string(body) != string(served) {
		t.Fatalf("with deadline: status %d body %s", resp.StatusCode, body)
	}
	// /compute runs under the same instrument wrapper as /v1/*.
	if n := srv.reg.Sink("server").Counter("endpoint.compute.requests").Value(); n != uint64(len(cases)+2) {
		t.Errorf("endpoint.compute.requests = %d, want %d", n, len(cases)+2)
	}

	t.Run("saturated", func(t *testing.T) {
		srv, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
		block := make(chan struct{})
		defer close(block)
		for i := 0; i < 2; i++ {
			if err := srv.pool.Submit(context.Background(), func(int) { <-block }); err != nil {
				t.Fatalf("fill %d: %v", i, err)
			}
		}
		resp, body := postCompute(t, ts, http.MethodPost, routedPolicy, "")
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("status %d, want 429 (%s)", resp.StatusCode, body)
		}
		if ra := resp.Header.Get("Retry-After"); ra != "1" {
			t.Fatalf("Retry-After = %q, want 1", ra)
		}
	})

	t.Run("dead remote worker", func(t *testing.T) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		dead := ln.Addr().String()
		ln.Close()
		srv, ts := newTestServer(t, Config{RemoteWorkers: []string{dead}})
		before := remoteCounters(srv)
		if len(before) == 0 {
			t.Fatal("remote backend registered no server.remote.* counters")
		}
		resp, body := postCompute(t, ts, http.MethodPost, routedPolicy, "")
		if resp.StatusCode != http.StatusOK || string(body) != string(served) {
			t.Fatalf("status %d body %s, want 200 with the /v1/policy bytes", resp.StatusCode, body)
		}
		after := remoteCounters(srv)
		for name, v := range before {
			if after[name] != v {
				t.Errorf("%s moved %d -> %d: /compute must not route through the node's remote backend", name, v, after[name])
			}
		}
	})
}

// TestJSONBodiesRejectTrailingData: every JSON body the server decodes
// (a /v1/* POST, a /compute request, the spec body inside it) must be one
// value followed by nothing but whitespace.
func TestJSONBodiesRejectTrailingData(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const policy = `{"metric":"M","e":8,"s":16,"w":1}`
	for _, tc := range []struct {
		path, body string
		want       int
	}{
		{"/v1/policy", policy + " trailing-garbage", http.StatusBadRequest},
		{"/v1/policy", policy + `{}`, http.StatusBadRequest},
		{"/v1/policy", policy + "\n", http.StatusOK},
		{"/v1/policy", policy + " \r\n\t", http.StatusOK},
		{backend.ComputePath, routedPolicy + " trailing-garbage", http.StatusBadRequest},
		{backend.ComputePath, routedPolicy + "\n", http.StatusOK},
	} {
		resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("POST %s: %v", tc.path, err)
		}
		buf, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("POST %s: read body: %v", tc.path, err)
		}
		if resp.StatusCode != tc.want {
			t.Errorf("POST %s %q: status %d (%s), want %d", tc.path, tc.body, resp.StatusCode, buf, tc.want)
		}
	}
	if _, err := decodeSpec(backend.Spec{Op: opPolicy, Body: []byte(policy + " trailing-garbage")}); err == nil {
		t.Error("decodeSpec accepted a spec body with trailing data")
	}
}
