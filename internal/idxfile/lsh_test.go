package idxfile

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"testing"

	"repro/internal/minhash"
)

// buildLSHFile encodes the hand corpus with an LSHB section under p.
func buildLSHFile(t *testing.T, p minhash.Params) []byte {
	t.Helper()
	exes, fns, truths, feats := handFuncs()
	b := NewBuilder()
	for i, fn := range fns {
		b.Add(exes[i], fn, truths[i], feats[i])
	}
	var buf bytes.Buffer
	if _, err := b.WriteLSH(&buf, &p); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sectionOf returns the named section of a file Parse accepts.
func sectionOf(tb testing.TB, data []byte, name string) SectionInfo {
	tb.Helper()
	f, err := Parse(data)
	if err != nil {
		tb.Fatal(err)
	}
	for _, s := range f.Sections() {
		if s.Name == name {
			return s
		}
	}
	tb.Fatalf("file has no %s section", name)
	return SectionInfo{}
}

// dirEntryOf returns the byte offset of the named section's directory entry.
func dirEntryOf(tb testing.TB, data []byte, name string) int {
	tb.Helper()
	nsec := int(binary.LittleEndian.Uint32(data[12:]))
	for i := 0; i < nsec; i++ {
		off := headerSize + i*dirEntrySize
		if sectionName(binary.LittleEndian.Uint32(data[off:])) == name {
			return off
		}
	}
	tb.Fatalf("no %s directory entry", name)
	return 0
}

// fixSectionCRC recomputes the named section's payload checksum (and the
// directory's over it), so a mutated payload reaches the checks behind
// Verify's checksum pass.
func fixSectionCRC(tb testing.TB, b []byte, name string) {
	tb.Helper()
	de := dirEntryOf(tb, b, name)
	off := binary.LittleEndian.Uint64(b[de+8:])
	length := binary.LittleEndian.Uint64(b[de+16:])
	binary.LittleEndian.PutUint32(b[de+24:], crc32.Checksum(b[off:off+length], crcTable))
	fixDirCRC(b)
}

func TestLSHRoundTrip(t *testing.T) {
	p := minhash.Default
	_, _, _, feats := handFuncs()
	data := buildLSHFile(t, p)
	f, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if !f.HasLSH() {
		t.Fatal("HasLSH = false after a WriteLSH round trip")
	}
	if got := f.LSHParams(); got != p {
		t.Fatalf("LSHParams = %+v, want %+v", got, p)
	}
	if got := len(f.LSHSigs()); got != f.NumFuncs()*p.K() {
		t.Fatalf("signature pool holds %d values, want %d", got, f.NumFuncs()*p.K())
	}
	// Persisted signatures must be byte-identical to freshly computed
	// ones — the determinism contract the lsh prefilter relies on.
	for i := range feats {
		want := minhash.Signature(nil, feats[i], p)
		got := f.LSHSig(i)
		if len(got) != p.K() {
			t.Fatalf("func %d: signature length %d, want k=%d", i, len(got), p.K())
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("func %d: signature position %d = %d, want %d", i, j, got[j], want[j])
			}
		}
	}
	if err := f.Verify(); err != nil {
		t.Fatalf("Verify on a fresh LSH file: %v", err)
	}
	// The section table surfaces LSHB with a per-function record count.
	sec := sectionOf(t, data, SecLSHB)
	if sec.Records != f.NumFuncs() {
		t.Errorf("LSHB Records = %d, want %d", sec.Records, f.NumFuncs())
	}
	if sec.Len != uint64(lshHdrSize+f.NumFuncs()*p.K()*lshSigSize) {
		t.Errorf("LSHB length = %d", sec.Len)
	}
}

func TestLSHAbsent(t *testing.T) {
	f, err := Parse(buildFile(t))
	if err != nil {
		t.Fatal(err)
	}
	if f.HasLSH() {
		t.Fatal("HasLSH = true on a file with no LSHB")
	}
	if f.LSHSig(0) != nil || f.LSHSigs() != nil || f.LSHTable() != nil {
		t.Fatal("LSH accessors returned data on a file with no LSHB")
	}
	if got := f.LSHParams(); got != (minhash.Params{}) {
		t.Fatalf("LSHParams = %+v on a file with no LSHB", got)
	}
}

func TestLSHBuilderMisuse(t *testing.T) {
	exes, fns, truths, feats := handFuncs()

	b := NewBuilder()
	b.Add(exes[0], fns[0], truths[0], feats[0])
	if _, err := b.WriteLSH(&bytes.Buffer{}, &minhash.Params{Bands: 0, Rows: 2}); err == nil {
		t.Error("invalid LSH parameters were accepted")
	}
	// The refusal is this write's: the builder still writes.
	if _, err := b.WriteLSH(&bytes.Buffer{}, &minhash.Default); err != nil {
		t.Errorf("a write after one with invalid LSH parameters: %v", err)
	}
}

// TestLSHParseRejectsCorruption: truncated, oversized (header demands
// fewer values than the payload carries), and parameter-corrupt LSHB
// sections must all fail Parse with a corruptError.
func TestLSHParseRejectsCorruption(t *testing.T) {
	data := buildLSHFile(t, minhash.Default)
	sec := sectionOf(t, data, SecLSHB)

	cases := []struct {
		name   string
		mutate func(b []byte)
	}{
		{"truncated payload", func(b []byte) {
			de := dirEntryOf(t, b, SecLSHB)
			binary.LittleEndian.PutUint64(b[de+16:], sec.Len-4)
			fixDirCRC(b)
		}},
		{"header-only stub", func(b []byte) {
			de := dirEntryOf(t, b, SecLSHB)
			binary.LittleEndian.PutUint64(b[de+16:], lshHdrSize)
			fixDirCRC(b)
		}},
		{"shorter than header", func(b []byte) {
			de := dirEntryOf(t, b, SecLSHB)
			binary.LittleEndian.PutUint64(b[de+16:], 8)
			fixDirCRC(b)
		}},
		{"oversized for params", func(b []byte) {
			// Halving bands halves the expected payload; the real payload
			// is now oversized and must be rejected, not silently split.
			binary.LittleEndian.PutUint32(b[sec.Offset:], uint32(minhash.Default.Bands/2))
		}},
		{"zero bands", func(b []byte) {
			binary.LittleEndian.PutUint32(b[sec.Offset:], 0)
		}},
		{"huge rows", func(b []byte) {
			binary.LittleEndian.PutUint32(b[sec.Offset+4:], 1<<20)
		}},
		{"misaligned section", func(b []byte) {
			de := dirEntryOf(t, b, SecLSHB)
			binary.LittleEndian.PutUint64(b[de+8:], sec.Offset+4)
			fixDirCRC(b)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mut := flip(data, tc.mutate)
			if _, err := Parse(mut); err == nil {
				t.Fatal("corrupt LSHB accepted")
			} else if !IsCorrupt(err) {
				t.Fatalf("want corruptError, got %T: %v", err, err)
			}
		})
	}
}

// TestLSHMisalignedBuffer: a heap buffer whose LSHB payload lands on an
// odd address must parse through the copy fallback with identical
// signature values.
func TestLSHMisalignedBuffer(t *testing.T) {
	data := buildLSHFile(t, minhash.Default)
	aligned, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	shifted := make([]byte, len(data)+1)
	copy(shifted[1:], data)
	mis, err := Parse(shifted[1 : 1+len(data)])
	if err != nil {
		t.Fatalf("misaligned buffer rejected: %v", err)
	}
	if !mis.HasLSH() {
		t.Fatal("misaligned parse dropped the LSHB section")
	}
	a, m := aligned.LSHSigs(), mis.LSHSigs()
	if len(a) != len(m) {
		t.Fatalf("pool sizes differ: %d vs %d", len(a), len(m))
	}
	for i := range a {
		if a[i] != m[i] {
			t.Fatalf("signature value %d differs across alignment: %d vs %d", i, a[i], m[i])
		}
	}
}

// TestLSHAccessorBounds: the exact-length validation in parseLSH is the
// structural proof that LSHSig cannot read out of bounds — exercise
// every index including the boundaries.
func TestLSHAccessorBounds(t *testing.T) {
	p := minhash.Params{Bands: 4, Rows: 3, Seed: 99}
	data := buildLSHFile(t, p)
	f, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	k := p.K()
	total := 0
	for i := 0; i < f.NumFuncs(); i++ {
		sig := f.LSHSig(i)
		if len(sig) != k {
			t.Fatalf("func %d: signature length %d, want %d", i, len(sig), k)
		}
		total += len(sig)
	}
	if total != len(f.LSHSigs()) {
		t.Fatalf("per-function slices cover %d values, pool holds %d", total, len(f.LSHSigs()))
	}
	// The last function's slice must end exactly at the pool's end.
	last := f.LSHSig(f.NumFuncs() - 1)
	if cap(last) != k {
		t.Errorf("last signature slice cap %d leaks past its bounds", cap(last))
	}
}

// TestLSHTableRoundTrip: WriteLSH also emits the LSHT section, and what
// Parse adopts from it is the table minhash.BandTable sorts from the
// persisted signatures — for single-row and multi-row bands.
func TestLSHTableRoundTrip(t *testing.T) {
	for _, p := range []minhash.Params{minhash.Default, {Bands: 4, Rows: 3, Seed: 99}} {
		data := buildLSHFile(t, p)
		f, err := Parse(data)
		if err != nil {
			t.Fatal(err)
		}
		n := f.NumFuncs()
		if want := minhash.BandTable(p, f.LSHSigs(), n); !reflect.DeepEqual(f.LSHTable(), want) {
			t.Fatalf("%dx%d: persisted band table differs from the one sorted from LSHB:\n got  %v\n want %v",
				p.Bands, p.Rows, f.LSHTable(), want)
		}
		if err := f.Verify(); err != nil {
			t.Fatalf("%dx%d: Verify on a fresh file: %v", p.Bands, p.Rows, err)
		}
		sec := sectionOf(t, data, SecLSHT)
		if sec.Len != uint64(p.Bands*n*lshtRecSize) || sec.Records != p.Bands*n {
			t.Errorf("%dx%d: LSHT holds %d bytes / %d records for %d functions", p.Bands, p.Rows, sec.Len, sec.Records, n)
		}
	}
}

// lshtMutants returns corrupt variants of a valid LSHT-bearing file, by
// name: three Parse must reject, and one (mis-sorted: two entries of
// different buckets swapped, checksums recomputed) that only Verify can.
func lshtMutants(tb testing.TB, valid []byte) map[string][]byte {
	tb.Helper()
	sec := sectionOf(tb, valid, SecLSHT)
	return map[string][]byte{
		"truncated": flip(valid, func(b []byte) {
			binary.LittleEndian.PutUint64(b[dirEntryOf(tb, b, SecLSHT)+16:], sec.Len-lshtRecSize)
			fixDirCRC(b)
		}),
		"id out of range": flip(valid, func(b []byte) {
			binary.LittleEndian.PutUint32(b[sec.Offset+lshtRecSize:], uint32(len(valid)))
		}),
		"repeated id": flip(valid, func(b []byte) {
			copy(b[sec.Offset+lshtRecSize:][:lshtRecSize], b[sec.Offset:])
		}),
		"mis-sorted": flip(valid, func(b []byte) {
			// The hand corpus has three functions with three different
			// feature sets, so the ends of a band never share a bucket.
			first, last := b[sec.Offset:][:lshtRecSize], b[sec.Offset+2*lshtRecSize:][:lshtRecSize]
			for i := range first {
				first[i], last[i] = last[i], first[i]
			}
			fixSectionCRC(tb, b, SecLSHT)
		}),
	}
}

// TestLSHTableRejectsCorruption: a wrong length, an id past the corpus, an
// id listed twice in a band and a table without the signatures it indexes
// all fail Parse with a corruptError; a band out of (band hash, id) order
// loads — checking it costs a hash per entry — and fails Verify.
func TestLSHTableRejectsCorruption(t *testing.T) {
	valid := buildLSHFile(t, minhash.Default)
	mutants := lshtMutants(t, valid)
	mutants["without LSHB"] = flip(valid, func(b []byte) {
		copy(b[dirEntryOf(t, b, SecLSHB):], "XXXX")
		fixDirCRC(b)
	})
	for name, mut := range mutants {
		f, err := Parse(mut)
		if name == "mis-sorted" {
			if err != nil {
				t.Fatalf("%s: rejected at load: %v", name, err)
			}
			if err := f.Verify(); !IsCorrupt(err) {
				t.Errorf("%s: Verify = %v, want a corruptError", name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: corrupt LSHT accepted", name)
		} else if !IsCorrupt(err) {
			t.Errorf("%s: want corruptError, got %T: %v", name, err, err)
		}
	}
}
