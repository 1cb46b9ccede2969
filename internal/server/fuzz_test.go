package server

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"readduo/internal/backend"
)

// FuzzDecodeSpec drives the routed /compute decoder with arbitrary op
// names and bodies. A rejection must be a badRequestError (a 400, never a
// compute failure), and an accepted spec must keep its canonical key
// through specFor and a second decodeSpec: that is what lets /compute
// re-derive the key a frontend routed on and refuse a mismatch. Compare
// keys embed sim.Parse(...).Name(), so the scheme grammar rides along.
func FuzzDecodeSpec(f *testing.F) {
	seeds := []struct{ op, body string }{
		{opLER, `{}`},
		{opLER, `{"metric":"m","temp":250,"eccs":[8,4,8],"intervals":[640,8]}`},
		{opLER, `{"metric":"R","eccs":[65]}`},
		{opLER, `{"metric":"X"}`},
		{opPolicy, `{"metric":"R","e":8,"s":16,"w":1}`},
		{opPolicy, `{"metric":"M","temp":350,"e":8,"s":640,"w":1}`},
		{opPolicy, `{"e":2,"s":8,"w":3}`},
		{opMC, `{"cells":1000,"shards":4,"seed":7}`},
		{opMC, `{"cells":-1}`},
		{opCompare, `{"benchmark":"gcc","schemes":["Ideal","LWT-4"],"budget":15000,"seed":3}`},
		{opCompare, `{"benchmark":"mcf","schemes":["scrubbing:temp=250","lwt:k=8,convert=false,disturb=1e-06","select:k=4,s=2"]}`},
		{opCompare, `{"benchmark":"lbm","schemes":["Scrubbing@temp=250","LWC-8@disturb=0.0005","Hybrid@temp=330@disturb=0.001","lwc:r=16"]}`},
		{opCompare, `{"benchmark":"gcc","schemes":["Ideal","ideal:temp=300"]}`},
		{opCompare, `{"benchmark":"corpus:zipfian","schemes":["M-metric","TLC","Select-8:4"],"budget":3000000}`},
		{opCompare, `{"benchmark":"nope","schemes":["Ideal"]}`},
		{opPolicy, `{"metric":"M","e":8,"s":16,"w":1} trailing-garbage`},
		{opPolicy, `{"metric":"M","e":8,"s":16,"w":1}{}`},
		{opLER, `{"metric":`},
		{opPolicy, `{"frob":1}`},
		{"frob", `{}`},
		{"", ``},
	}
	for _, s := range seeds {
		f.Add(s.op, []byte(s.body))
	}
	f.Fuzz(func(t *testing.T, op string, body []byte) {
		req, err := decodeSpec(backend.Spec{Op: op, Body: body})
		if err != nil {
			var bad badRequestError
			if !errors.As(err, &bad) {
				t.Fatalf("decodeSpec(%q, %q) rejected with %T %v, want a badRequestError", op, body, err, err)
			}
			return
		}
		key := req.Key()
		spec, err := specFor(op, req)
		if err != nil {
			t.Fatalf("specFor(%q) of accepted %q: %v", op, body, err)
		}
		again, err := decodeSpec(spec)
		if err != nil {
			t.Fatalf("normalized spec %q of %q does not decode: %v", spec.Body, body, err)
		}
		if got := again.Key(); got != key {
			t.Fatalf("key of %q changed through specFor: %q, then %q", body, key, got)
		}
	})
}

// FuzzDecodeRequest drives the /v1/* front end's decode (readSpecRequest:
// decodeRequest, then normalize) with arbitrary op names and either a GET
// query string or a POST body. A rejection must be a badRequestError, and
// an accepted request must keep its canonical key through specFor and
// decodeSpec: the key is the cache key, and the spec is what a remote
// worker re-derives it from.
func FuzzDecodeRequest(f *testing.F) {
	seeds := []struct {
		op   string
		post bool
		data string
	}{
		{opLER, false, "metric=R&eccs=8,16&intervals=16,64"},
		{opLER, false, "metric=M&temp=250&eccs=4,8,8&intervals=16,32.5"},
		{opLER, false, "eccs=4,x"},
		{opPolicy, false, "e=8&s=16&w=1"},
		{opPolicy, false, "metric=m&temp=350&e=8&s=640&w=1"},
		{opMC, false, "cells=1000&shards=4&seed=7&sigma=0.2"},
		{opMC, false, "cells=100&sseed=3"},
		{opMC, false, "cells=100&sigma=NaN"},
		{opPolicy, false, "e=8&s=Inf&w=1"},
		{opCompare, false, "benchmark=gcc&schemes=Ideal,LWT-4&budget=15000&seed=3"},
		{opCompare, false, "benchmark=corpus:scan&schemes=lwc:r=16"},
		{opLER, true, `{"metric":"R","eccs":[8,16],"intervals":[16,64]}`},
		{opPolicy, true, `{"metric":"M","e":8,"s":16,"w":1}`},
		{opPolicy, true, `{"metric":"M","e":8,"s":16,"w":1}` + "\n"},
		{opPolicy, true, `{"metric":"M","e":8,"s":16,"w":1} trailing-garbage`},
		{opMC, true, `{"cells":100,"sseed":3}`},
		{opCompare, true, `{"benchmark":"mcf","schemes":["scrubbing:temp=250","Select-4:2"]}`},
		{"frob", false, ""},
	}
	for _, s := range seeds {
		f.Add(s.op, s.post, []byte(s.data))
	}
	f.Fuzz(func(t *testing.T, op string, post bool, data []byte) {
		r := httptest.NewRequest(http.MethodGet, "/", nil)
		if post {
			r = httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(data))
		} else {
			r.URL.RawQuery = string(data)
		}
		req, err := readSpecRequest(r, op)
		if err != nil {
			var bad badRequestError
			if !errors.As(err, &bad) {
				t.Fatalf("op %q, post %v, %q rejected with %T %v, want a badRequestError", op, post, data, err, err)
			}
			return
		}
		key := req.Key()
		spec, err := specFor(op, req)
		if err != nil {
			t.Fatalf("specFor(%q) of accepted %q: %v", op, data, err)
		}
		again, err := decodeSpec(spec)
		if err != nil {
			t.Fatalf("spec %q of accepted %q does not decode: %v", spec.Body, data, err)
		}
		if got := again.Key(); got != key {
			t.Fatalf("key of %q changed through specFor: %q, then %q", data, key, got)
		}
	})
}
