package corpus

import (
	"strings"
	"testing"

	"readduo/internal/trace"
)

// TestCorpusRegistered pins the acceptance-criteria surface: at least 4
// named scenarios, every one resolvable through trace.ByName (the hook
// readduo-sim and the serve grammar both use), profiles valid.
func TestCorpusRegistered(t *testing.T) {
	scs := Scenarios()
	if len(scs) < 4 {
		t.Fatalf("corpus has %d scenarios, want >= 4", len(scs))
	}
	for _, sc := range scs {
		if !strings.HasPrefix(sc.Benchmark.Name, Prefix) {
			t.Fatalf("scenario %q benchmark name %q lacks the corpus prefix", sc.Name, sc.Benchmark.Name)
		}
		if err := sc.Benchmark.Validate(); err != nil {
			t.Fatalf("scenario %q: %v", sc.Name, err)
		}
		got, ok := trace.ByName(sc.Benchmark.Name)
		if !ok {
			t.Fatalf("scenario %q not registered in trace.ByName", sc.Benchmark.Name)
		}
		if got != sc.Benchmark {
			t.Fatalf("scenario %q registry mismatch", sc.Benchmark.Name)
		}
	}
	// Short and prefixed lookups both resolve.
	if _, ok := ByName("zipfian"); !ok {
		t.Fatal("ByName(zipfian) failed")
	}
	if _, ok := ByName("corpus:zipfian"); !ok {
		t.Fatal("ByName(corpus:zipfian) failed")
	}
	if _, ok := ByName("nope"); ok {
		t.Fatal("ByName(nope) resolved")
	}
}

// TestScenarioStreamsDiffer sanity-checks that the scenarios drive
// distinct access patterns: the write fraction orders write-heavy above
// scan, and zipfian concentrates reuse far more than scan.
func TestScenarioStreamsDiffer(t *testing.T) {
	frac := func(name string) (writeFrac float64, distinct int) {
		sc, ok := ByName(name)
		if !ok {
			t.Fatalf("scenario %q missing", name)
		}
		g, err := trace.NewGenerator(sc.Benchmark, 1, 42)
		if err != nil {
			t.Fatal(err)
		}
		const n = 20000
		writes := 0
		lines := map[uint64]bool{}
		for i := 0; i < n; i++ {
			rec, err := g.Next(0)
			if err != nil {
				t.Fatal(err)
			}
			if rec.Write {
				writes++
			}
			lines[rec.Line] = true
		}
		return float64(writes) / n, len(lines)
	}
	whWrites, _ := frac("write-heavy")
	scanWrites, scanLines := frac("scan")
	_, zipfLines := frac("zipfian")
	if whWrites < 0.5 {
		t.Fatalf("write-heavy write fraction %.2f, want > 0.5", whWrites)
	}
	if scanWrites > 0.1 {
		t.Fatalf("scan write fraction %.2f, want < 0.1", scanWrites)
	}
	if zipfLines*4 > scanLines {
		t.Fatalf("zipfian touched %d lines vs scan %d — reuse not concentrated", zipfLines, scanLines)
	}
}
