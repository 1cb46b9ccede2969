package trace

import "testing"

// tapeJob is one job a Tape serves: the key it is reset to, how many
// records the job pulls and in which core order.
type tapeJob struct {
	bench Benchmark
	cores int
	seed  int64
	pulls int
	skew  bool
}

// pullCore is the core the i-th pull of a job reads: round robin, or
// skewed, where core 0 reads every other record and the other cores
// share the rest, so core 0 passes the tape's cap long before they do.
func pullCore(i, cores int, skew bool) int {
	if !skew || cores == 1 {
		return i % cores
	}
	if i%2 == 0 {
		return 0
	}
	return 1 + i/2%(cores-1)
}

// errText is err's message, or "" for nil.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// runTapeJob resets tape and a fresh generator to j's key, with the same
// error or none, and pulls j's records from both in j's order: every
// record must match, and so must the error of a core out of range.
// Afterwards no tape may hold more than tapeCap records.
func runTapeJob(t *testing.T, tape *Tape, j tapeJob) {
	t.Helper()
	fresh, wantErr := NewGenerator(j.bench, j.cores, j.seed)
	if err := tape.Reset(j.bench, j.cores, j.seed); errText(err) != errText(wantErr) {
		t.Fatalf("%+v: Reset error %q, NewGenerator error %q", j, errText(err), errText(wantErr))
	}
	if wantErr != nil {
		return
	}
	for i := 0; i < j.pulls; i++ {
		c := pullCore(i, j.cores, j.skew)
		want, _ := fresh.Next(c)
		got, err := tape.Next(c)
		if err != nil || got != want {
			t.Fatalf("%+v: pull %d (core %d) = %+v, %v; fresh generator %+v", j, i, c, got, err, want)
		}
	}
	for _, c := range []int{-1, j.cores, 255} {
		_, wantErr := fresh.Next(c)
		if _, err := tape.Next(c); errText(err) != errText(wantErr) {
			t.Fatalf("%+v: Next(%d) error %q, fresh generator %q", j, c, errText(err), errText(wantErr))
		}
	}
	for c, tr := range tape.tracks {
		if len(tr.recs) > tapeCap || cap(tr.recs) > tapeCap {
			t.Fatalf("%+v: core %d's tape holds %d records in %d slots, cap %d", j, c, len(tr.recs), cap(tr.recs), tapeCap)
		}
	}
}

// TestTapeMatchesFreshGenerator runs one tape through a job sequence:
// the same key with fewer, as many and more records than the job before
// (in a changed pull order), a failed Reset, two jobs past the cap, a
// short one after them, other seeds and benchmarks and back, and other
// core counts with the same benchmark and seed. Per core, every record
// must be what a fresh NewGenerator yields, for a plain and a bursty
// profile, under round-robin and skewed pull orders.
func TestTapeMatchesFreshGenerator(t *testing.T) {
	gcc, _ := ByName("gcc")
	mcf, _ := ByName("mcf")
	bursty := gcc
	bursty.Name, bursty.BurstFactor, bursty.BurstPeriodRecs = "gcc-bursty", 0.6, 97
	past := 4*tapeCap + 500 // every core past the cap in round robin, core 0 when skewed
	for _, b := range []Benchmark{gcc, bursty} {
		for _, skew := range []bool{false, true} {
			var tape Tape
			for _, j := range []tapeJob{
				{b, 4, 7, 400, skew},
				{b, 4, 7, 200, skew},
				{b, 4, 7, 200, skew},
				{b, 4, 7, 900, !skew},
				{b, 0, 7, 10, skew},
				{b, 4, 7, 300, skew},
				{b, 4, 7, past, skew},
				{b, 4, 7, past, skew},
				{b, 4, 7, 300, skew},
				{b, 4, 8, 300, skew},
				{b, 4, 7, 600, skew},
				{mcf, 4, 7, 300, skew},
				{b, 4, 7, 300, skew},
				{b, 2, 7, 300, skew},
				{b, 4, 7, 300, skew},
				{b, 1, 7, 100, skew},
				{b, 1, 7, 100, skew},
			} {
				runTapeJob(t, &tape, j)
			}
		}
	}
}

// FuzzTapeMatchesFreshGenerator drives one tape through a fuzzed job
// sequence of up to 16 jobs, three plan bytes a job: the first picks the
// benchmark (plain or bursty), the core count (0, which Reset must
// reject, through 7), the seed (seed or seed+1) and the pull order; the
// other two the number of records, up to six tapes' worth. Every record
// and error must match a fresh generator's.
func FuzzTapeMatchesFreshGenerator(f *testing.F) {
	f.Add(int64(1), []byte{0x08, 0x01, 0x90, 0x28, 0x00, 0x40, 0x08, 0x02, 0x00})
	f.Add(int64(-5), []byte{0x19, 0x12, 0x00, 0x19, 0x12, 0x00, 0x04, 0x00, 0x80, 0x19, 0x00, 0x10})
	f.Add(int64(42), []byte{0x0e, 0x50, 0x00, 0x0e, 0x50, 0x00, 0x0e, 0x01, 0x00, 0x00, 0x01, 0x00, 0x0e, 0x00, 0x20})
	gcc, _ := ByName("gcc")
	bursty := gcc
	bursty.Name, bursty.BurstFactor, bursty.BurstPeriodRecs = "gcc-bursty", 0.6, 97
	f.Fuzz(func(t *testing.T, seed int64, plan []byte) {
		var tape Tape
		for plan = plan[:min(len(plan), 3*16)]; len(plan) >= 3; plan = plan[3:] {
			k := plan[0]
			j := tapeJob{bench: gcc, cores: int(k>>1) & 7, seed: seed, skew: k&0x20 != 0,
				pulls: int(uint16(plan[1])<<8|uint16(plan[2])) % (6 * tapeCap)}
			if k&1 != 0 {
				j.bench = bursty
			}
			if k&0x10 != 0 {
				j.seed++
			}
			runTapeJob(t, &tape, j)
		}
	})
}
