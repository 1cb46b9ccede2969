package main

import (
	"compress/gzip"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"readduo/internal/trace"
)

// readTrace reads a native trace file to the end and returns its header
// and record count.
func readTrace(t *testing.T, path string) (name string, cores, records int) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		t.Fatalf("reader: %v", err)
	}
	for {
		_, err := r.Read()
		if err == io.EOF {
			return r.BenchmarkName(), r.Cores(), records
		}
		if err != nil {
			t.Fatalf("record %d: %v", records, err)
		}
		records++
	}
}

// checkGone fails unless path does not exist.
func checkGone(t *testing.T, path string) {
	t.Helper()
	if _, err := os.Stat(path); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("%s left behind after a failed run (stat: %v)", path, err)
	}
}

// listDigest is the SHA-256 of `trace -list`, the Table X listing.
const listDigest = "0b5cff31ff18a821e3bef35ee482807cb97315d6a360c7551641b59d99f4b2f0"

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func TestTraceList(t *testing.T) {
	out, _, err := runCLI(t, "trace", "-list")
	if err != nil {
		t.Fatalf("list: %v", err)
	}
	if got := sha256Hex([]byte(out)); got != listDigest {
		t.Errorf("list digest %s, want %s:\n%s", got, listDigest, out)
	}
}

// TestTraceValidation checks that a missing or unknown benchmark and the
// campaign flags, which trace does not take, fail before any output.
func TestTraceValidation(t *testing.T) {
	checkRejected(t, []rejectCase{
		{[]string{"trace", "-records=10"}, "need -benchmark"},
		{[]string{"trace", "-benchmark=nonesuch"}, "unknown benchmark"},
		{[]string{"trace", "-budget=1000"}, "not defined"},
	})
}

func TestTraceGeneratesReadableTrace(t *testing.T) {
	out := filepath.Join(t.TempDir(), "x.trace")
	stdout, _, err := runCLI(t, "trace", "-benchmark=gcc", "-records=500", "-cores=2", "-seed=7", "-out="+out)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	if want := "wrote 500 records for gcc to " + out + "\n"; stdout != want {
		t.Errorf("stdout %q, want %q", stdout, want)
	}
	if name, cores, n := readTrace(t, out); name != "gcc" || cores != 2 || n != 500 {
		t.Errorf("header %q/%d with %d records, want gcc/2 with 500", name, cores, n)
	}
}

// TestTraceGzipOutput checks the -gzip path: the file starts with the
// gzip magic, and trace.NewReader sniffs through it transparently.
func TestTraceGzipOutput(t *testing.T) {
	out := filepath.Join(t.TempDir(), "x.trace.gz")
	if _, _, err := runCLI(t, "trace", "-benchmark=mcf", "-records=200", "-cores=2", "-seed=7", "-gzip", "-out="+out); err != nil {
		t.Fatalf("generate: %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 2 || data[0] != 0x1f || data[1] != 0x8b {
		t.Fatal("output is not gzip-framed")
	}
	if name, _, n := readTrace(t, out); name != "mcf" || n != 200 {
		t.Errorf("header %q with %d records, want mcf with 200", name, n)
	}
}

// TestTraceIngestConvertsChampSim drives the ingest mode over a minimal
// ChampSim record and checks the native output replays.
func TestTraceIngestConvertsChampSim(t *testing.T) {
	// One 64-byte instruction with one source memory operand.
	instr := make([]byte, 64)
	binary.LittleEndian.PutUint64(instr[0:], 0x400000)        // ip
	binary.LittleEndian.PutUint64(instr[64-32:], 0x1234_5678) // src_mem[0]
	dir := t.TempDir()
	in := filepath.Join(dir, "one.champsim")
	if err := os.WriteFile(in, instr, 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "one.trace")
	if _, _, err := runCLI(t, "trace", "-ingest="+in, "-format=champsim", "-cores=2", "-out="+out); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	// One access replicated onto two cores.
	if name, cores, n := readTrace(t, out); name != "corpus:ingested" || cores != 2 || n != 2 {
		t.Errorf("header %q/%d with %d records, want corpus:ingested/2 with 2", name, cores, n)
	}
}

func TestTraceIngestRejectsMalformed(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "trunc.champsim")
	if err := os.WriteFile(in, make([]byte, 10), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "trunc.trace")
	checkRejected(t, []rejectCase{
		{[]string{"trace", "-ingest=" + in, "-format=champsim", "-cores=1", "-out=" + out}, "ingest " + in},
		{[]string{"trace", "-ingest=" + in, "-format=nonesuch", "-out=" + out}, "unknown format"},
	})
	checkGone(t, out)
}

// TestTraceRemovesPartialOutput cuts the ChampSim sample short inside its
// last record. The ingest fails after thousands of records have reached
// the output, which must then be removed: left behind, it has a valid
// header and -trace would replay it as if it were whole.
func TestTraceRemovesPartialOutput(t *testing.T) {
	f, err := os.Open(champSimSample)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	in := filepath.Join(dir, "cut.champsim")
	if err := os.WriteFile(in, raw[:len(raw)-10], 0o644); err != nil {
		t.Fatal(err)
	}
	for _, gz := range []string{"-gzip=false", "-gzip=true"} {
		out := filepath.Join(dir, "cut.trace")
		checkRejected(t, []rejectCase{
			{[]string{"trace", "-ingest=" + in, "-format=champsim", "-cores=4", gz, "-out=" + out}, "unexpected EOF"},
		})
		checkGone(t, out)
	}
}

// TestTraceOutputDigests pins trace's files byte for byte: a trace file
// written today must equal one archived earlier from the same flags. The
// gzip-framed output is left out: its bytes belong to compress/gzip.
func TestTraceOutputDigests(t *testing.T) {
	dir := t.TempDir()
	pin := filepath.Join(dir, "pin.txt")
	if err := os.WriteFile(pin, []byte("R 0x40\nW 0x80\n0x401b32: R 0x7f03c1a0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-benchmark=mcf", "-records=100000", "-cores=4", "-seed=1"},
			"3e6187854ce06de110a1e4deb7be63f3c843d10ea5addf95bfbed61a25a57c81"},
		{[]string{"-ingest=" + champSimSample, "-format=champsim", "-cores=4"},
			"1db8e463e4e55918a22d2768ea62f6a66f39fbec5d9d1eb9f63548fc3ba57bf9"},
		{[]string{"-ingest=" + pin, "-format=pin", "-gap=3"},
			"3c52f2a02f0bee1958364528c820eeccbaee9d1801951bd3769a5e821b5ed89a"},
	} {
		out := filepath.Join(dir, "out.trace")
		args := append([]string{"trace", "-out=" + out}, tc.args...)
		if _, _, err := runCLI(t, args...); err != nil {
			t.Fatalf("%q: %v", args, err)
		}
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if got := sha256Hex(data); got != tc.want {
			t.Errorf("%q: digest %s, want %s", args, got, tc.want)
		}
	}
}
