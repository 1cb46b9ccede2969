package trace

// tapeCap bounds each core's tape at 65,536 records of 8 B: 512 KiB per
// core, 2 MiB for four cores. It covers a 3M-instruction job of mcf, the
// most intensive profile, which draws about 60K records per core (about
// 40K at 2M), while a job long enough to pass it keeps the cost of
// re-seeding.
const tapeCap = 1 << 16

// A tape's first block holds firstBlock records. Each later block holds
// as many records as the tape already has, up to maxBlock, so a short
// job's tape stays small and a full one is 8 blocks that double from 64
// records to 4,096 followed by 14 of 4,096.
const (
	firstBlock = 64
	maxBlock   = 4096
)

// A tape word packs one record of core c: bits 0-30 hold the line's
// offset from the core's base line c<<40, bit 31 Write and bits 32-63
// Gap. The offset is below the profile's WorkingSetLines, so a profile
// of at most 1<<31 lines packs; the tape of one with more never rewinds.
const (
	packOffsetMask = 1<<31 - 1
	packWriteBit   = 1 << 31
	packMaxLines   = 1 << 31
)

// pack returns r's tape word.
func pack(r Record) uint64 {
	w := uint64(r.Gap)<<32 | (r.Line-uint64(r.Core)<<40)&packOffsetMask
	if r.Write {
		w |= packWriteBit
	}
	return w
}

// unpack returns the record of core whose tape word is w.
func unpack(w uint64, core uint8) Record {
	return Record{
		Core:  core,
		Write: w&packWriteBit != 0,
		Line:  uint64(core)<<40 + w&packOffsetMask,
		Gap:   uint32(w >> 32),
	}
}

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
	// len(tracks), seed), that its profile packs and that no core has
	// drawn past its tape. Only a rewindable tape records.
	rewindable bool
}

// track is one core's tape: its words in blocks, and the position of its
// next record.
type track struct {
	// blocks[:used] hold the tape's n words in order, each block full
	// but the last; blocks past those are empty storage kept from an
	// earlier row. Blocks are never copied.
	blocks [][]uint64
	used   int
	n      int
	// cur is blocks[blk] and pos the index in it of the next record.
	cur      []uint64
	blk, pos int
}

// rewind moves tr to the start of its tape.
func (tr *track) rewind() {
	tr.blk, tr.pos, tr.cur = 0, 0, nil
	if tr.used > 0 {
		tr.cur = tr.blocks[0]
	}
}

// Reset restarts t as NewGenerator(bench, cores, seed) builds a
// generator, rewinding its tapes when the arguments are those of the
// last Reset and no core drew past its tape, re-seeding otherwise. It
// keeps the tapes' blocks either way, unless the core count grows past
// any t had. On error t is left unchanged.
func (t *Tape) Reset(bench Benchmark, cores int, seed int64) error {
	if t.rewindable && seed == t.seed && cores == len(t.tracks) && bench == t.gen.bench {
		for c := range t.tracks {
			t.tracks[c].rewind()
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
		tr := &t.tracks[c]
		for i := range tr.used {
			tr.blocks[i] = tr.blocks[i][:0]
		}
		tr.used, tr.n = 0, 0
		tr.rewind()
	}
	t.seed = seed
	t.rewindable = bench.WorkingSetLines <= packMaxLines
	return nil
}

// Next produces the next access of the given core, from its tape while
// the tape lasts and from the generator after that.
func (t *Tape) Next(core int) (Record, error) {
	if core >= 0 && core < len(t.tracks) {
		tr := &t.tracks[core]
		if tr.pos < len(tr.cur) {
			tr.pos++
			return unpack(tr.cur[tr.pos-1], uint8(core)), nil
		}
		if tr.blk+1 < tr.used {
			tr.blk++
			tr.cur, tr.pos = tr.blocks[tr.blk], 1
			return unpack(tr.cur[0], uint8(core)), nil
		}
	}
	r, err := t.gen.Next(core)
	if err == nil && t.rewindable {
		t.record(core, r)
	}
	return r, err
}

// record appends r, which core just drew from the generator at the end
// of its tape, or marks the tape overrun when it is full.
func (t *Tape) record(core int, r Record) {
	tr := &t.tracks[core]
	if tr.n == tapeCap {
		t.rewindable = false
		return
	}
	if tr.pos == cap(tr.cur) {
		// The last block in use is full, or there is none: take the next.
		if tr.used == len(tr.blocks) {
			tr.blocks = append(tr.blocks, make([]uint64, 0, min(max(tr.n, firstBlock), maxBlock)))
		}
		tr.blk, tr.pos = tr.used, 0
		tr.used++
		tr.cur = tr.blocks[tr.blk]
	}
	tr.cur = append(tr.cur, pack(r))
	tr.blocks[tr.blk] = tr.cur
	tr.pos++
	tr.n++
}
