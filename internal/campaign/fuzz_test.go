package campaign

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"readduo/internal/sim"
	"readduo/internal/trace"
)

// FuzzDecodeJournal feeds the journal decoder that Open and Decode share
// arbitrary bytes. It must never panic. When it accepts the input, the
// valid prefix it reports must end on a line boundary, and decoding that
// prefix alone must give the same header, records, telemetry and length:
// that prefix is what Open truncates a resumed journal to.
func FuzzDecodeJournal(f *testing.F) {
	journal := seedJournal(f)
	f.Add(journal)
	for _, cut := range []int{0, 1, len(journal) / 3, len(journal) / 2, len(journal) - 2, len(journal) - 1} {
		f.Add(journal[:cut])
	}
	f.Add([]byte("\n\n"))
	f.Add([]byte(`{"header":{"version":1}}` + "\n" + `{"job":{}}` + "\n" + `{}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		h, records, summary, valid, err := decodeAll(data)
		if err != nil {
			return
		}
		if valid < 0 || valid > int64(len(data)) {
			t.Fatalf("valid prefix %d outside [0, %d]", valid, len(data))
		}
		if valid > 0 && data[valid-1] != '\n' {
			t.Fatalf("valid prefix %d does not end on a line boundary", valid)
		}
		h2, records2, summary2, valid2, err := decodeAll(data[:valid])
		if err != nil {
			t.Fatalf("valid prefix %d does not decode: %v", valid, err)
		}
		if valid2 != valid {
			t.Errorf("prefix re-decodes with valid %d, want %d", valid2, valid)
		}
		if !reflect.DeepEqual(h2, h) {
			t.Errorf("prefix header %+v, want %+v", h2, h)
		}
		if !reflect.DeepEqual(records2, records) {
			t.Errorf("prefix holds %d records, want the %d of the whole input", len(records2), len(records))
		}
		if !reflect.DeepEqual(summary2, summary) {
			t.Errorf("prefix telemetry %+v, want %+v", summary2, summary)
		}
	})
}

// seedJournal writes a journal the way a campaign does: a header, a
// finished job with a real result, a failed job and a telemetry stamp.
func seedJournal(f *testing.F) []byte {
	f.Helper()
	spec := Spec{Schemes: []sim.Scheme{sim.Ideal()}, Budget: 1000}
	path := filepath.Join(f.TempDir(), "j.jsonl")
	j, err := Create(path, spec.Header(1))
	if err != nil {
		f.Fatal(err)
	}
	gcc, ok := trace.ByName("gcc")
	if !ok {
		f.Fatal("gcc missing")
	}
	cfg := sim.DefaultConfig(gcc)
	cfg.CPU.InstrBudget = 1000
	res, err := sim.Run(cfg, sim.Ideal())
	if err != nil {
		f.Fatal(err)
	}
	for _, rec := range []Record{
		{Key: "s0/gcc/Ideal", Benchmark: "gcc", Scheme: "Ideal", Seed: 1, Status: StatusOK, WallMS: 1.5, Result: res},
		{Key: "s0/gcc/Hybrid", Index: 1, Status: StatusFailed, Error: "boom", Worker: 1},
	} {
		if err := j.Append(rec); err != nil {
			f.Fatal(err)
		}
	}
	if err := j.AppendTelemetry(&TelemetrySummary{AtUnix: 2, Jobs: 2, Counters: map[string]uint64{"sim.read.r": 3}}); err != nil {
		f.Fatal(err)
	}
	if err := j.Close(); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	return data
}
