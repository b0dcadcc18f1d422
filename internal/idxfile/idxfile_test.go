package idxfile

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/asm"
	"repro/internal/cfg"
	"repro/internal/corpus"
	"repro/internal/prep"
	"repro/internal/tinyc"
)

// handFuncs returns a small hand-built corpus exercising every record
// shape: registers, immediates, symbols, offset operands, multi-term
// memory operands, branching CFGs, empty blocks, shared strings.
func handFuncs() (exes []string, fns []*prep.Function, truths []string, feats [][]uint64) {
	add := func(exe, truth string, fn *prep.Function, fs []uint64) {
		exes = append(exes, exe)
		fns = append(fns, fn)
		truths = append(truths, truth)
		feats = append(feats, fs)
	}

	mem := asm.MemOperand(
		asm.MemTerm{Arg: asm.RegArg(asm.EBP)},
		asm.MemTerm{Op: asm.OpSub, Arg: asm.ImmArg(8)},
		asm.MemTerm{Op: asm.OpMul, Arg: asm.SymArg(asm.SymData, "tbl")},
	)
	g1 := &cfg.Graph{
		Name:  "alpha",
		Entry: 0,
		Blocks: []*cfg.Block{
			{Index: 0, Addr: 0x1000, Insts: []asm.Inst{
				{Mnemonic: "mov", Ops: []asm.Operand{{Arg: asm.RegArg(asm.EAX)}, mem}},
				{Mnemonic: "cmp", Ops: []asm.Operand{{Arg: asm.RegArg(asm.EAX)}, {Arg: asm.ImmArg(42)}}},
				{Mnemonic: "jne", Ops: []asm.Operand{asm.OffsetOp(asm.SymLabel, "L2")}},
			}, Succs: []int{1, 2}},
			{Index: 1, Addr: 0x100a, Insts: []asm.Inst{
				{Mnemonic: "ret"},
			}},
			{Index: 2, Addr: 0x100b, Insts: []asm.Inst{
				{Mnemonic: "call", Ops: []asm.Operand{asm.SymOp(asm.SymFunc, "helper")}},
				{Mnemonic: "jmp", Ops: []asm.Operand{asm.OffsetOp(asm.SymLabel, "L1")}},
			}, Succs: []int{1}},
		},
	}
	add("app.exe", "lib_alpha", &prep.Function{Name: "alpha", Addr: 0x1000, Graph: g1}, []uint64{7, 99, 0xdeadbeef})

	// Entry block that is not block 0, a block with no instructions, and
	// strings shared with the first function.
	g2 := &cfg.Graph{
		Name:  "beta",
		Entry: 1,
		Blocks: []*cfg.Block{
			{Index: 0, Insts: nil, Succs: nil},
			{Index: 1, Insts: []asm.Inst{
				{Mnemonic: "mov", Ops: []asm.Operand{{Arg: asm.RegArg(asm.EAX)}, {Arg: asm.ImmArg(-1)}}},
				{Mnemonic: "ret"},
			}, Succs: []int{0}},
		},
	}
	add("app.exe", "", &prep.Function{Name: "beta", Addr: 0x2000, Graph: g2}, nil)

	g3 := &cfg.Graph{
		Name:  "gamma",
		Entry: 0,
		Blocks: []*cfg.Block{
			{Index: 0, Insts: []asm.Inst{{Mnemonic: "ret"}}},
		},
	}
	add("other.exe", "lib_alpha", &prep.Function{Name: "gamma", Addr: 0x30, Graph: g3}, []uint64{7})
	return
}

// handBuilder is a Builder holding handFuncs.
func handBuilder() *Builder {
	b := NewBuilder()
	exes, fns, truths, feats := handFuncs()
	for i, fn := range fns {
		b.Add(exes[i], fn, truths[i], feats[i])
	}
	return b
}

func buildFile(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	n, err := handBuilder().WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	exes, fns, truths, feats := handFuncs()
	data := buildFile(t)
	f, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if f.NumFuncs() != len(fns) {
		t.Fatalf("NumFuncs = %d, want %d", f.NumFuncs(), len(fns))
	}
	if err := f.Verify(); err != nil {
		t.Fatalf("Verify on a fresh file: %v", err)
	}
	for i, want := range fns {
		m := f.Meta(i)
		if m.Exe != exes[i] || m.Name != want.Name || m.Truth != truths[i] || m.Addr != want.Addr {
			t.Errorf("func %d meta = %+v", i, m)
		}
		gotFeats := f.Features(i)
		if len(gotFeats) == 0 {
			gotFeats = nil
		}
		if !reflect.DeepEqual(gotFeats, feats[i]) {
			t.Errorf("func %d feats = %v, want %v", i, gotFeats, feats[i])
		}
		got := mustDecode(t, f, i)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("func %d decoded differently:\ngot  %s\nwant %s", i, got.Graph, want.Graph)
		}
	}
	// Section directory must cover the required sections with valid ranges.
	secs := f.Sections()
	if len(secs) != len(requiredSections) || secs[len(secs)-1].Name != SecPACK {
		t.Fatalf("%d sections ending in %s, want the %d required ones ending in PACK", len(secs), secs[len(secs)-1].Name, len(requiredSections))
	}
	for _, s := range secs {
		if s.Offset%8 != 0 {
			t.Errorf("section %s misaligned at %d", s.Name, s.Offset)
		}
	}
}

// TestRoundTripCorpus pushes real lifted functions through the format.
func TestRoundTripCorpus(t *testing.T) {
	c, err := corpus.Build(corpus.BuildConfig{
		Seed: 11, ContextCopies: 2, Versions: 1, NoiseExes: 1,
		FuncsPerExe: 3, TargetStmts: 30, FillerStmts: 10, Opt: tinyc.O2,
	})
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuilder()
	var want []*prep.Function
	for _, e := range c.Exes {
		fns, err := prep.LiftImage(e.Image)
		if err != nil {
			t.Fatal(err)
		}
		for _, fn := range fns {
			b.Add(e.Name, fn, e.Truth[fn.Addr], []uint64{uint64(len(want))})
			want = append(want, fn)
		}
	}
	var buf bytes.Buffer
	if _, err := b.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	f, err := Parse(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if f.NumFuncs() != len(want) {
		t.Fatalf("NumFuncs = %d, want %d", f.NumFuncs(), len(want))
	}
	for i, w := range want {
		if got := mustDecode(t, f, i); !reflect.DeepEqual(got, w) {
			t.Fatalf("lifted func %d (%s) decoded differently", i, w.Name)
		}
	}
}

// mustDecode decodes function i of a file the test wrote itself.
func mustDecode(tb testing.TB, f *File, i int) *prep.Function {
	tb.Helper()
	fn, err := f.DecodeFunc(i)
	if err != nil {
		tb.Fatalf("DecodeFunc(%d): %v", i, err)
	}
	return fn
}

func TestOpenMmap(t *testing.T) {
	data := buildFile(t)
	path := filepath.Join(t.TempDir(), "t.idx")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if f.Path() != path {
		t.Errorf("Path = %q", f.Path())
	}
	if f.Size() != int64(len(data)) {
		t.Errorf("Size = %d, want %d", f.Size(), len(data))
	}
	if got := mustDecode(t, f, 0); got.Name != "alpha" {
		t.Errorf("DecodeFunc(0).Name = %q", got.Name)
	}
	// The feature view aliases the mapping; reading it must work and the
	// string table must not (strings survive Close by construction).
	if fs := f.Features(0); len(fs) != 3 || fs[2] != 0xdeadbeef {
		t.Errorf("Features(0) = %v", fs)
	}
	if err := f.Verify(); err != nil {
		t.Error(err)
	}
	if !f.Mapped() {
		t.Skip("platform without mmap fast path")
	}
}

func TestSniffVersion(t *testing.T) {
	data := buildFile(t)
	if v := SniffVersion(data[:16]); v != Version {
		t.Errorf("SniffVersion(v%d file) = %d", Version, v)
	}
	if v := SniffVersion([]byte("TRACYIDX\x02garbage")); v != 2 {
		t.Errorf("SniffVersion(v2 prelude) = %d", v)
	}
	if v := SniffVersion([]byte("not an index file")); v != 0 {
		t.Errorf("SniffVersion(garbage) = %d", v)
	}
	if v := SniffVersion([]byte("short")); v != 0 {
		t.Errorf("SniffVersion(short) = %d", v)
	}
}

// flip returns a copy of data with a mutation applied.
func flip(data []byte, mutate func(b []byte)) []byte {
	b := append([]byte(nil), data...)
	mutate(b)
	return b
}

// fixDirCRC recomputes the directory checksum so mutations inside
// section payload bounds reach the structural validators rather than
// being caught by the directory hash.
func fixDirCRC(b []byte) {
	nsec := binary.LittleEndian.Uint32(b[12:])
	dir := b[headerSize : headerSize+int(nsec)*dirEntrySize]
	binary.LittleEndian.PutUint32(b[32:], crc32.Checksum(dir, crcTable))
}

func TestParseRejectsCorruption(t *testing.T) {
	data := buildFile(t)
	if _, err := Parse(data); err != nil {
		t.Fatalf("pristine file rejected: %v", err)
	}

	// Locate the FUNC section so mutations can target real records.
	f, _ := Parse(data)
	var funcSec SectionInfo
	for _, s := range f.Sections() {
		if s.Name == SecFUNC {
			funcSec = s
		}
	}

	cases := []struct {
		name   string
		mutate func(b []byte)
	}{
		{"bad magic", func(b []byte) { b[0] = 'X' }},
		{"bad version", func(b []byte) { b[8] = 9 }},
		{"file size mismatch", func(b []byte) { binary.LittleEndian.PutUint64(b[16:], 1<<40) }},
		{"zero sections", func(b []byte) { binary.LittleEndian.PutUint32(b[12:], 0) }},
		{"huge section count", func(b []byte) { binary.LittleEndian.PutUint32(b[12:], 1<<30) }},
		{"function count lies", func(b []byte) { binary.LittleEndian.PutUint64(b[24:], 1) }},
		{"directory bit flip", func(b []byte) { b[headerSize+8] ^= 1 }},
		{"section overruns file", func(b []byte) {
			binary.LittleEndian.PutUint64(b[headerSize+8:], uint64(len(b)))
			binary.LittleEndian.PutUint64(b[headerSize+16:], 64)
			fixDirCRC(b)
		}},
		{"section misaligned", func(b []byte) {
			off := binary.LittleEndian.Uint64(b[headerSize+8:])
			binary.LittleEndian.PutUint64(b[headerSize+8:], off+1)
			fixDirCRC(b)
		}},
		{"duplicate section id", func(b []byte) {
			copy(b[headerSize+dirEntrySize:], b[headerSize:headerSize+4])
			fixDirCRC(b)
		}},
		{"string id out of range", func(b []byte) {
			binary.LittleEndian.PutUint32(b[funcSec.Offset+4:], 1<<30) // name field
		}},
		{"entry block out of range", func(b []byte) {
			binary.LittleEndian.PutUint32(b[funcSec.Offset+16:], 1<<20)
		}},
		{"block range overruns pool", func(b []byte) {
			binary.LittleEndian.PutUint32(b[funcSec.Offset+24:], 1<<20) // nblocks
		}},
		{"feature range overruns pool", func(b []byte) {
			binary.LittleEndian.PutUint32(b[funcSec.Offset+28:], 1<<20) // featOff
		}},
		{"zero blocks", func(b []byte) {
			binary.LittleEndian.PutUint32(b[funcSec.Offset+24:], 0)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mut := flip(data, tc.mutate)
			if _, err := Parse(mut); err == nil {
				t.Fatal("corrupt file accepted")
			} else if !IsCorrupt(err) {
				t.Fatalf("want corruptError, got %T: %v", err, err)
			}
		})
	}

	// Truncation at every boundary the parser cares about.
	for _, n := range []int{0, 7, headerSize - 1, headerSize, headerSize + 5, len(data) - 1} {
		if _, err := Parse(data[:n]); err == nil {
			t.Errorf("accepted %d-byte truncation", n)
		}
	}
}

func TestVerifyCatchesPayloadFlip(t *testing.T) {
	data := buildFile(t)
	f, _ := Parse(data)
	var strb SectionInfo
	for _, s := range f.Sections() {
		if s.Name == SecSTRB {
			strb = s
		}
	}
	mut := flip(data, func(b []byte) { b[strb.Offset] ^= 0x40 })
	// A payload flip inside string bytes is structurally fine...
	f2, err := Parse(mut)
	if err != nil {
		t.Fatalf("structural parse should pass: %v", err)
	}
	// ...but the checksum pass must catch it.
	if err := f2.Verify(); err == nil {
		t.Fatal("Verify missed a payload corruption")
	}
}

func TestBuilderRejectsBadGraphs(t *testing.T) {
	cases := []*prep.Function{
		{Name: "nil-graph"},
		{Name: "no-blocks", Graph: &cfg.Graph{}},
		{Name: "entry-oob", Graph: &cfg.Graph{Entry: 5, Blocks: []*cfg.Block{{}}}},
		{Name: "succ-oob", Graph: &cfg.Graph{Blocks: []*cfg.Block{{Succs: []int{9}}}}},
	}
	for _, fn := range cases {
		b := NewBuilder()
		b.Add("x", fn, "", nil)
		if _, err := b.WriteTo(&bytes.Buffer{}); err == nil {
			t.Errorf("%s: builder accepted malformed graph", fn.Name)
		}
	}
}

func TestEmptyBuilder(t *testing.T) {
	var buf bytes.Buffer
	if _, err := NewBuilder().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	f, err := Parse(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if f.NumFuncs() != 0 {
		t.Fatalf("NumFuncs = %d", f.NumFuncs())
	}
}
