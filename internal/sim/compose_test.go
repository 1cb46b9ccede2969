package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"
	"time"

	"readduo/internal/drift"
	"readduo/internal/trace"
)

// TestComposedDesignsPinned pins five Compose design points that no
// constructor builds, so no golden covers them: tracked sensing, Hybrid's
// retries, LWC and Select writes and the TLC geometry each meet a sense,
// scrub or write choice the paper never pairs them with. Each digest is
// the sha256 of one full Result's JSON at a fixed seed. Changing how a
// design is written may change the Design literals below, never the
// digests.
func TestComposedDesignsPinned(t *testing.T) {
	designs := []struct {
		label string
		d     Design
	}{
		{"tracked-over-select", Design{
			Sense: SenseTracked,
			Scrub: Scrub{Interval: 640 * time.Second, Metric: drift.MetricM, W: 0},
			Write: WriteSelect, K: 8, S: 4, Convert: true}},
		{"hybrid-over-lwc", Design{
			Sense: SenseHybrid,
			Scrub: Scrub{Interval: 8 * time.Second, Metric: drift.MetricR, W: 1},
			Write: WriteLWC, R: 8}},
		{"m-over-tlc", Design{
			Sense: SenseM,
			Scrub: Scrub{Interval: 64 * time.Second, Metric: drift.MetricM, W: 1},
			Write: WriteTLC}},
		{"tracked-noconv-over-plain", Design{
			Sense: SenseTracked,
			Scrub: Scrub{Interval: 640 * time.Second, Metric: drift.MetricM, W: 1},
			Write: WritePlain, K: 4}},
		{"r-over-tracked", Design{
			Sense: SenseR,
			Write: WriteTracked, K: 4}},
	}
	want := map[string]string{
		"tracked-over-select/gcc":           "83bcb5d42de78586a3c3460230dce5134b48b380b7918d2cb4ced870de1f17ab",
		"hybrid-over-lwc/gcc":               "b9989f8e19b2b1d76219caf06e7b0ce8c3aa051bd844cb04fa0c68ebb914561a",
		"m-over-tlc/gcc":                    "7a7ed5b44b4284d48e1681fdc3c84e3e58359aa102d692be040b634ab01d2589",
		"tracked-noconv-over-plain/gcc":     "b76b703b540cb0a32e3f77cc2542f530b221c142e2d4d1ed9f02d7a68e38bc06",
		"r-over-tracked/gcc":                "63d1fa47e91ff732020a43b4cf98084c93fc93439e9774eb47b7c9cd19a37961",
		"tracked-over-select/lbm":           "88a9df3dda07f3068cedb5868c6ca274c5b99ce135a2ff969cf9f086129ddca9",
		"hybrid-over-lwc/lbm":               "c1ff3200ac5175791867f4beb5de6a70183a8b2c9a9795f6361950516d5def44",
		"m-over-tlc/lbm":                    "6195ce7fcea81536527dd34ab5740aa08fb8bc24bb13f0db33d296daad4b9dac",
		"tracked-noconv-over-plain/lbm":     "a89b37b7fe4e642778b79120d64f4e94c62cfa974c702b6870082d5cd753199b",
		"r-over-tracked/lbm":                "35bd9949968461f66cbc0046f30694ea110672b860d472ecfa124ebef9c11c08",
		"tracked-over-select/sphinx3":       "c40cb6e7643042c032e470c6bbbd09ad4398c17d7f3240d4717d7e78eedece15",
		"hybrid-over-lwc/sphinx3":           "fb13e437a151ab719b318c0d1115659d573ddc66cfac9efc0d18034f7b1392ad",
		"m-over-tlc/sphinx3":                "278a5c491524ff638e16ebad8e317913b7538fe02b1449232709369517ab3963",
		"tracked-noconv-over-plain/sphinx3": "44aa3cc6c1b528eca7c0db6e92d6f118f4bff1af49b9f5d513edc14ad56cf301",
		"r-over-tracked/sphinx3":            "82163360d78b41e16adb84bb5485f06dabc8fea87b6af0cb20d7fc3fb09224ce",
	}
	for _, bench := range []string{"gcc", "lbm", "sphinx3"} {
		b, ok := trace.ByName(bench)
		if !ok {
			t.Fatalf("unknown benchmark %s", bench)
		}
		cfg := DefaultConfig(b)
		cfg.CPU.InstrBudget = 60_000
		for _, tc := range designs {
			res, err := Run(cfg, Compose(tc.label, tc.d))
			if err != nil {
				t.Fatalf("%s/%s: %v", tc.label, bench, err)
			}
			key := tc.label + "/" + bench
			if got := resultDigest(t, res); got != want[key] {
				t.Errorf("%q: result digest %s, want %s", key, got, want[key])
			}
		}
	}
}

// resultDigest is the hex sha256 of a Result's JSON.
func resultDigest(t *testing.T, res *Result) string {
	t.Helper()
	buf, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}
