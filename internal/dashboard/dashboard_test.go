package dashboard

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"readduo/internal/telemetry"
	"readduo/internal/tsdb"
)

func TestIndexServed(t *testing.T) {
	reg := telemetry.NewRegistry("test")
	store, _ := tsdb.Open("")
	c := tsdb.NewCollector(reg, store, time.Hour)
	ts := httptest.NewServer(Handler(reg, c))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("index status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Fatalf("index content-type %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{"readduo live", "EventSource", "api/series"} {
		if !strings.Contains(body, want) {
			t.Errorf("index missing %q", want)
		}
	}

	// Unknown paths under the dashboard root 404 rather than serving the
	// index (no SPA fallback to mask typos).
	resp2, err := http.Get(ts.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("/nope status %d, want 404", resp2.StatusCode)
	}
}

func TestMetricsHandler(t *testing.T) {
	reg := telemetry.NewRegistry("readduo-serve")
	reg.Counter("server.http.requests").Add(3)
	rr := httptest.NewRecorder()
	Metrics(reg)(rr, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if ct := rr.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("content-type %q", ct)
	}
	if !strings.Contains(rr.Body.String(), "readduo_serve_server_http_requests 3") {
		t.Fatalf("exposition:\n%s", rr.Body.String())
	}

	// Nil registry: valid empty exposition, not a 404 or 500.
	rr = httptest.NewRecorder()
	Metrics(nil)(rr, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("nil registry status %d", rr.Code)
	}
}

func TestSeriesHandler(t *testing.T) {
	store, _ := tsdb.Open("")
	for i := 0; i < 5; i++ {
		store.Append(int64(i*1000), []tsdb.Sample{{Name: "a", Value: float64(i)}})
	}
	h := Series(store)

	// Range query with since.
	rr := httptest.NewRecorder()
	h(rr, httptest.NewRequest(http.MethodGet, "/api/series?name=a&since=2000", nil))
	var got seriesResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if got.Name != "a" || len(got.Points) != 3 || got.Points[0].UnixMS != 2000 {
		t.Fatalf("range query: %+v", got)
	}

	// Name listing.
	rr = httptest.NewRecorder()
	h(rr, httptest.NewRequest(http.MethodGet, "/api/series", nil))
	got = seriesResponse{}
	if err := json.Unmarshal(rr.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Names) != 1 || got.Names[0] != "a" {
		t.Fatalf("name listing: %+v", got)
	}

	// Bad since is a 400, not a silent full scan.
	rr = httptest.NewRecorder()
	h(rr, httptest.NewRequest(http.MethodGet, "/api/series?name=a&since=yesterday", nil))
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("bad since status %d", rr.Code)
	}

	// Nil store answers an empty listing.
	rr = httptest.NewRecorder()
	Series(nil)(rr, httptest.NewRequest(http.MethodGet, "/api/series", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("nil store status %d", rr.Code)
	}
}

func TestEventsStream(t *testing.T) {
	reg := telemetry.NewRegistry("test")
	ctr := reg.Counter("ticks")
	store, _ := tsdb.Open("")
	c := tsdb.NewCollector(reg, store, 10*time.Millisecond)
	c.Start()
	defer c.Stop()

	ts := httptest.NewServer(Events(c))
	defer ts.Close()

	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content-type %q", ct)
	}
	ctr.Add(7)

	sc := bufio.NewScanner(resp.Body)
	deadline := time.After(5 * time.Second)
	frame := make(chan string, 1)
	go func() {
		for sc.Scan() {
			if line := sc.Text(); strings.HasPrefix(line, "data: ") {
				frame <- strings.TrimPrefix(line, "data: ")
				return
			}
		}
	}()
	select {
	case raw := <-frame:
		var ev struct {
			T int64              `json:"t"`
			V map[string]float64 `json:"v"`
		}
		if err := json.Unmarshal([]byte(raw), &ev); err != nil {
			t.Fatalf("bad frame %q: %v", raw, err)
		}
		if ev.T == 0 {
			t.Fatalf("frame missing timestamp: %q", raw)
		}
		if _, ok := ev.V["ticks"]; !ok {
			t.Fatalf("frame missing ticks series: %q", raw)
		}
	case <-deadline:
		t.Fatal("no SSE frame within 5s")
	}
}
