package trace

// tapeCap bounds each core's tape at 1,024 records of 24 B: 24 KiB per
// core, 96 KiB for four cores. It covers any 25k-instruction job (mcf,
// the most intensive profile, draws about 512 records per core), while a
// job long enough to pass it keeps the cost and memory of re-seeding.
const tapeCap = 1024

// Tape is a Generator that keeps the first tapeCap records each core
// draws, for an engine that runs job after job. A Reset to the benchmark,
// core count and seed of the previous Reset rewinds every core to the
// start of its tape instead of re-seeding the core streams; a core that
// reads past its tape draws on from the generator, which stands exactly
// at the tape's end, and appends. Once a core draws past tapeCap records
// the generator stands beyond its tape, so the next Reset re-seeds.
//
// Each core's stream depends only on (benchmark, seed, core), never on
// the order in which cores pull from it, so a Tape yields, core for
// core, what NewGenerator(bench, cores, seed) yields. The zero Tape is
// ready for Reset.
type Tape struct {
	gen  Generator
	seed int64
	// tracks[c] is core c's tape; len(tracks) is the generator's core
	// count.
	tracks []track
	// rewindable reports that gen was last reset to (gen.bench,
	// len(tracks), seed) and that no core has drawn past its tape.
	rewindable bool
}

// track is one core's tape and the position of its next record.
type track struct {
	recs []Record
	pos  int
}

// Reset restarts t as NewGenerator(bench, cores, seed) builds a
// generator, rewinding its tapes when the arguments are those of the
// last Reset and no core drew past its tape, re-seeding otherwise. It
// keeps the tapes' storage either way, unless the core count grows past
// any t had. On error t is left unchanged.
func (t *Tape) Reset(bench Benchmark, cores int, seed int64) error {
	if t.rewindable && seed == t.seed && cores == len(t.tracks) && bench == t.gen.bench {
		for c := range t.tracks {
			t.tracks[c].pos = 0
		}
		return nil
	}
	if err := t.gen.Reset(bench, cores, seed); err != nil {
		return err
	}
	if cap(t.tracks) < cores {
		t.tracks = make([]track, cores)
	}
	t.tracks = t.tracks[:cores]
	for c := range t.tracks {
		t.tracks[c] = track{recs: t.tracks[c].recs[:0]}
	}
	t.seed, t.rewindable = seed, true
	return nil
}

// Next produces the next access of the given core, from its tape while
// the tape lasts and from the generator after that.
func (t *Tape) Next(core int) (Record, error) {
	if core >= 0 && core < len(t.tracks) {
		if tr := &t.tracks[core]; tr.pos < len(tr.recs) {
			tr.pos++
			return tr.recs[tr.pos-1], nil
		}
	}
	r, err := t.gen.Next(core)
	if err == nil {
		t.record(core, r)
	}
	return r, err
}

// record appends r, which core just drew from the generator, to the
// core's tape, or marks the tape overrun when it is full.
func (t *Tape) record(core int, r Record) {
	tr := &t.tracks[core]
	if len(tr.recs) == tapeCap {
		t.rewindable = false
		return
	}
	if len(tr.recs) == cap(tr.recs) {
		// Doubling to exactly tapeCap, so a full tape holds no spare
		// capacity.
		recs := make([]Record, len(tr.recs), min(max(2*cap(tr.recs), 64), tapeCap))
		copy(recs, tr.recs)
		tr.recs = recs
	}
	tr.recs = append(tr.recs, r)
	tr.pos++
}
