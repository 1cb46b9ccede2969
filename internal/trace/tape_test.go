package trace

import (
	"math"
	"testing"
)

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
// Afterwards no tape may hold more than tapeCap records, in blocks of at
// most tapeCap slots all told.
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
		recs, slots := 0, 0
		for i, b := range tr.blocks {
			if i < tr.used {
				recs += len(b)
			}
			slots += cap(b)
		}
		if recs != tr.n || recs > tapeCap || slots > tapeCap {
			t.Fatalf("%+v: core %d's tape holds %d records (counted %d) in %d slots, cap %d", j, c, recs, tr.n, slots, tapeCap)
		}
	}
}

// TestTapeMatchesFreshGenerator runs one tape through a job sequence:
// the same key with fewer, as many and more records than the job before
// (in a changed pull order), a failed Reset, two jobs past the cap, a
// short one after them, other seeds and benchmarks and back, other core
// counts with the same benchmark and seed, and an mcf row of
// 2M-instruction jobs (about 40K records per core, many blocks) rewound
// twice. Per core, every record must be what a fresh NewGenerator
// yields, for a plain and a bursty profile, under round-robin and skewed
// pull orders.
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
				{mcf, 4, 7, mcfRow, skew},
				{mcf, 4, 7, mcfRow, !skew},
				{mcf, 4, 7, mcfRow, skew},
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

// TestTapeWideProfiles runs a profile of 1<<31 working-set lines, the
// widest whose line offsets pack, and one of 1<<31+1, which must never
// rewind: each twice with one key, the second time with more records.
// Every record must match a fresh generator's.
func TestTapeWideProfiles(t *testing.T) {
	mcf, _ := ByName("mcf")
	for _, c := range []struct {
		lines   int
		rewinds bool
	}{{packMaxLines, true}, {packMaxLines + 1, false}} {
		b := mcf
		b.Name, b.WorkingSetLines = "mcf-wide", c.lines
		var tape Tape
		runTapeJob(t, &tape, tapeJob{b, 4, 3, 2000, false})
		if tape.rewindable != c.rewinds {
			t.Errorf("%d lines: rewindable %v after a short job, want %v", c.lines, tape.rewindable, c.rewinds)
		}
		runTapeJob(t, &tape, tapeJob{b, 4, 3, 3000, true})
	}
}

// TestTapeWordRoundTrip packs records at the edges of each field, for the
// first and the last core, and requires the documented bit layout and
// the record back.
func TestTapeWordRoundTrip(t *testing.T) {
	for _, core := range []uint8{0, 254} {
		for _, off := range []uint64{0, packMaxLines - 1} {
			for _, write := range []bool{false, true} {
				for _, gap := range []uint32{0, math.MaxUint32} {
					r := Record{Core: core, Write: write, Line: uint64(core)<<40 + off, Gap: gap}
					want := uint64(gap)<<32 | off
					if write {
						want |= 1 << 31
					}
					if w := pack(r); w != want {
						t.Errorf("pack(%+v) = %#x, want %#x", r, w, want)
					}
					if got := unpack(pack(r), core); got != r {
						t.Errorf("unpack(pack(%+v)) = %+v", r, got)
					}
				}
			}
		}
	}
}

// FuzzTapeMatchesFreshGenerator drives one tape through a fuzzed job
// sequence of up to 16 jobs, three plan bytes a job: the first picks the
// benchmark (plain or bursty), the core count (0, which Reset must
// reject, through 7), the seed (seed or seed+1), the pull order and,
// with both top bits set, a long job of cores x tapeCap more records,
// enough to pass the cap; the other two the number of records, up to
// 65,535. Every record and error must match a fresh generator's.
func FuzzTapeMatchesFreshGenerator(f *testing.F) {
	f.Add(int64(1), []byte{0x08, 0x01, 0x90, 0x28, 0x00, 0x40, 0x08, 0x02, 0x00})
	f.Add(int64(-5), []byte{0x19, 0x12, 0x00, 0x19, 0x12, 0x00, 0x04, 0x00, 0x80, 0x19, 0x00, 0x10})
	f.Add(int64(42), []byte{0x0e, 0x50, 0x00, 0x0e, 0x50, 0x00, 0x0e, 0x01, 0x00, 0x00, 0x01, 0x00, 0x0e, 0x00, 0x20})
	f.Add(int64(3), []byte{0xc8, 0x00, 0x10, 0x08, 0x01, 0x00, 0xe8, 0x00, 0x00, 0x08, 0x01, 0x00})
	gcc, _ := ByName("gcc")
	bursty := gcc
	bursty.Name, bursty.BurstFactor, bursty.BurstPeriodRecs = "gcc-bursty", 0.6, 97
	f.Fuzz(func(t *testing.T, seed int64, plan []byte) {
		var tape Tape
		for plan = plan[:min(len(plan), 3*16)]; len(plan) >= 3; plan = plan[3:] {
			k := plan[0]
			j := tapeJob{bench: gcc, cores: int(k>>1) & 7, seed: seed, skew: k&0x20 != 0,
				pulls: int(plan[1])<<8 | int(plan[2])}
			if k&1 != 0 {
				j.bench = bursty
			}
			if k&0x10 != 0 {
				j.seed++
			}
			if k&0xc0 == 0xc0 {
				j.pulls += j.cores * tapeCap
			}
			runTapeJob(t, &tape, j)
		}
	})
}

// mcfRow is how many records one mcf job at 2M instructions per core
// pulls: about 40K on each of four cores.
const mcfRow = 4 * 40_000

// pullRow resets tape to (bench, 4 cores, seed) and pulls n records round
// robin.
func pullRow(b *testing.B, tape *Tape, bench Benchmark, seed int64, n int) {
	if err := tape.Reset(bench, 4, seed); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := tape.Next(i % 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTapeReplay rewinds a filled mcf-length row and reads it back:
// the cost of a row's second and later jobs, per record.
func BenchmarkTapeReplay(b *testing.B) {
	mcf, _ := ByName("mcf")
	var tape Tape
	pullRow(b, &tape, mcf, 1, mcfRow)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pullRow(b, &tape, mcf, 1, mcfRow)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*mcfRow), "ns/record")
}

// BenchmarkTapeGenerate re-seeds the tape to another seed every time and
// generates an mcf-length row into its kept blocks: the cost of a row's
// first job, per record.
func BenchmarkTapeGenerate(b *testing.B) {
	mcf, _ := ByName("mcf")
	var tape Tape
	pullRow(b, &tape, mcf, 1, mcfRow)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pullRow(b, &tape, mcf, int64(i%2), mcfRow)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*mcfRow), "ns/record")
}
