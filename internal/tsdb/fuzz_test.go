package tsdb

import (
	"os"
	"reflect"
	"testing"
)

// tick is one replayed frame.
type tick struct {
	T       int64
	Samples []Sample
}

// replayAll decodes data as a segment and collects what it replays.
func replayAll(data []byte, final bool) ([]tick, int64, error) {
	var got []tick
	valid, err := decodeSegment(data, "fuzz.seg", final, func(t int64, s []Sample) {
		got = append(got, tick{t, s})
	})
	return got, valid, err
}

// realSegment is a segment file written by segmentLog.append: three
// ticks of a few series each.
func realSegment(f *testing.F) []byte {
	f.Helper()
	dir := f.TempDir()
	l, err := openSegmentLog(dir, 1<<20, 4, nil)
	if err != nil {
		f.Fatal(err)
	}
	for i := int64(0); i < 3; i++ {
		err := l.append(1_700_000_000_000+i*100, []Sample{
			{Name: "server.http.requests", Value: float64(10 * i)},
			{Name: "slo.policy.availability.burn_5m", Value: 0.25 / float64(i+1)},
			{Name: "campaign.jobs.ok", Value: -1.5e-9},
		})
		if err != nil {
			f.Fatal(err)
		}
	}
	path := l.path
	if err := l.close(); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// FuzzReplaySegment feeds arbitrary bytes to the segment-log reader, the
// reader of every file a crash or a disk may have damaged. It must never
// panic. As the final segment (a torn tail tolerated) its valid prefix
// lies within the input, and that prefix replays as a sealed, non-final
// segment to the same ticks and the same length. As a non-final segment
// the input is either refused or valid to its last byte.
func FuzzReplaySegment(f *testing.F) {
	seg := realSegment(f)
	f.Add(seg)
	for _, cut := range []int{0, 3, len(segmentMagic), len(segmentMagic) + 5, len(segmentMagic) + frameHeaderSize + 7, len(seg) / 2, len(seg) - 1} {
		f.Add(seg[:cut])
	}
	flipped := append([]byte(nil), seg...)
	flipped[len(flipped)-2] ^= 0x20
	f.Add(flipped)
	f.Fuzz(func(t *testing.T, data []byte) {
		ticks, valid, err := replayAll(data, true)
		if err != nil {
			return
		}
		if valid < 0 || valid > int64(len(data)) {
			t.Fatalf("final segment of %d bytes reports %d valid", len(data), valid)
		}
		sealed, sealedValid, err := replayAll(data[:valid], false)
		if err != nil {
			t.Fatalf("valid prefix of %d bytes refused as a sealed segment: %v", valid, err)
		}
		if sealedValid != valid || !reflect.DeepEqual(sealed, ticks) {
			t.Fatalf("valid prefix replays %d ticks to %d bytes, the final segment %d ticks to %d",
				len(sealed), sealedValid, len(ticks), valid)
		}
		if _, whole, err := replayAll(data, false); err == nil && whole != int64(len(data)) {
			t.Fatalf("sealed segment of %d bytes accepted with %d valid", len(data), whole)
		}
	})
}
