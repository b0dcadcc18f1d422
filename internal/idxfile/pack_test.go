package idxfile

import (
	"encoding/binary"
	"strings"
	"testing"

	"repro/internal/asm"
)

// packRec locates the columns of one function's PACK record in a file's
// bytes, the way the layout in the package comment lays them out.
type packRec struct {
	at                                   int // the record's first byte
	nblocks, ninsts, nargs, ncanon, prof int
}

func (r packRec) meta() int  { return r.at + packHdrSize }
func (r packRec) args() int  { return r.meta() + packBlkSize*r.nblocks + 24*r.ninsts }
func (r packRec) kOff() int  { return r.args() + packArgSize*r.nargs + packProfSize*r.prof }
func (r packRec) off() int   { return r.kOff() + 4*(r.ninsts+2*r.nblocks) }
func (r packRec) canon() int { return r.off() + 4*(r.ninsts+2*r.nblocks) }

// packRecOf returns where function i's PACK record lies in data.
func packRecOf(tb testing.TB, data []byte, i int) packRec {
	tb.Helper()
	sec := int(sectionOf(tb, data, SecPACK).Offset)
	at := sec + int(binary.LittleEndian.Uint64(data[sec+i*packOffSize:]))
	u := func(k int) int { return int(binary.LittleEndian.Uint32(data[at+4*k:])) }
	return packRec{at: at, nblocks: u(0), ninsts: u(1), nargs: u(2), ncanon: u(3), prof: u(4)}
}

// packMutants returns files that differ from valid in one place of
// function 0's PACK record, by what is wrong with them. All but "disagrees
// with records" must fail PackedFunc(0) and DecodeFunc(0) with a
// corruption error and leave every other function readable; that one reads
// fine and is wrong — its derived columns are not what its instructions
// pack to — which only Verify can tell.
func packMutants(tb testing.TB, valid []byte) map[string][]byte {
	tb.Helper()
	r := packRecOf(tb, valid, 0)
	// The first argument that names a symbol and the first immediate.
	sym, imm := -1, -1
	for k := r.nargs - 1; k >= 0; k-- {
		if binary.LittleEndian.Uint64(valid[r.args()+k*packArgSize+16:]) != 0 {
			sym = k
		}
		if asm.ArgKind(valid[r.args()+k*packArgSize]) == asm.KindImm {
			imm = k
		}
	}
	// Block 0's body, and where its jump slot starts in the arguments.
	n0 := int(binary.LittleEndian.Uint32(valid[r.meta()+8:]))
	jumpArg := int(binary.LittleEndian.Uint32(valid[r.off()+4*n0:]))
	if sym < 0 || imm < 0 || r.ninsts < 2 || jumpArg >= r.nargs ||
		binary.LittleEndian.Uint64(valid[r.args()+jumpArg*packArgSize+16:]) == 0 {
		tb.Fatal("function 0 of the hand corpus lacks a symbol, an immediate, a second instruction or a jump to a symbol")
	}
	put32 := func(at int, v uint32) func([]byte) {
		return func(b []byte) { binary.LittleEndian.PutUint32(b[at:], v) }
	}
	return map[string][]byte{
		// Block 0's offsets are its ninsts+2 first; the second one jumps past the third.
		"off not monotone": flip(valid, put32(r.off()+4, 1<<20)),
		"koff past canon":  flip(valid, put32(r.kOff()+4*n0, uint32(r.ncanon+1))),
		// Block 0's jump slot: its end before its start, and an argument
		// that is not of the kind its encoding says.
		"jump slot reversed":          flip(valid, put32(r.kOff()+4*(n0+1), 0)),
		"jump arg kind not its canon": flip(valid, func(b []byte) { b[r.args()+jumpArg*packArgSize] ^= 3 }),
		// A rebuild that names the jump's symbol before checking its id
		// indexes the string table out of range.
		"jump sym id out of range": flip(valid, put32(r.args()+jumpArg*packArgSize+4, 1<<30)),
		"sym id out of range":      flip(valid, put32(r.args()+sym*packArgSize+4, 1<<30)),
		"block count mismatch":     flip(valid, put32(r.at, uint32(r.nblocks+1))),
		"arg kind not its canon":   flip(valid, func(b []byte) { b[r.args()] ^= 3 }),
		// Instruction 0's operand count in two bytes, its mnemonic one
		// shorter: the same length, and a count that reads as ≥ 128 a byte
		// at a time.
		"operand count not minimal": flip(valid, func(b []byte) {
			enc := b[r.canon() : r.canon()+int(binary.LittleEndian.Uint32(b[r.kOff()+4:]))]
			copy(enc[2:], enc[1:len(enc)-1])
			enc[0], enc[1] = enc[0]|0x80, 0
		}),
		"disagrees with records": flip(valid, func(b []byte) {
			// An immediate of the records' changed in the derived copy only.
			b[r.args()+imm*packArgSize+8] ^= 0x10
			fixSectionCRC(tb, b, SecPACK)
		}),
	}
}

// TestPackRoundTrip: every function of the hand corpus comes back from
// PACK as what packing its rebuilt form gives, from an aligned buffer and
// from one that is not, and Verify, which checks exactly that, passes.
func TestPackRoundTrip(t *testing.T) {
	data := buildFile(t)
	shifted := append(make([]byte, 1, len(data)+1), data...)[1:]
	for _, buf := range [][]byte{data, shifted} {
		f, err := Parse(buf)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < f.NumFuncs(); i++ {
			pf, err := f.PackedFunc(i)
			if err != nil {
				t.Fatalf("PackedFunc(%d): %v", i, err)
			}
			fn := mustDecode(t, f, i)
			if err := packedAgrees(pf, fn); err != nil {
				t.Errorf("function %d: %v", i, err)
			}
			if pf.Name != fn.Name || len(pf.Blocks) != len(fn.Graph.Blocks) {
				t.Errorf("function %d: packed as %s with %d blocks, decoded as %s with %d", i, pf.Name, len(pf.Blocks), fn.Name, len(fn.Graph.Blocks))
			}
			for b, blk := range fn.Graph.Blocks {
				if len(pf.Blocks[b].Succs) != len(blk.Succs) {
					t.Fatalf("function %d block %d: %d successors, want %d", i, b, len(pf.Blocks[b].Succs), len(blk.Succs))
				}
				for k, s := range blk.Succs {
					if int(pf.Blocks[b].Succs[k]) != s {
						t.Errorf("function %d block %d: successor %d is %d, want %d", i, b, k, pf.Blocks[b].Succs[k], s)
					}
				}
			}
		}
		if err := f.Verify(); err != nil {
			t.Errorf("Verify: %v", err)
		}
	}
}

// TestPackRejectsCorruption: a PACK section of the wrong shape is refused
// at Parse; a function record that is wrong inside is refused when the
// function is read, with the typed error, and costs no other function; and
// a record that is well-formed and wrong is what Verify is for.
func TestPackRejectsCorruption(t *testing.T) {
	data := buildFile(t)
	de := dirEntryOf(t, data, SecPACK)
	sec := sectionOf(t, data, SecPACK)
	for name, mutate := range map[string]func(b []byte){
		"truncated": func(b []byte) {
			binary.LittleEndian.PutUint64(b[de+16:], sec.Len-8)
			fixDirCRC(b)
		},
		"length not in words": func(b []byte) {
			binary.LittleEndian.PutUint64(b[de+16:], sec.Len-4)
			fixDirCRC(b)
		},
		"shorter than its table": func(b []byte) {
			binary.LittleEndian.PutUint64(b[de+16:], 8)
			fixDirCRC(b)
		},
		"misaligned": func(b []byte) {
			binary.LittleEndian.PutUint64(b[de+8:], sec.Offset+4)
			binary.LittleEndian.PutUint64(b[de+16:], sec.Len-8)
			fixDirCRC(b)
		},
		"table starts elsewhere": func(b []byte) { binary.LittleEndian.PutUint64(b[sec.Offset:], 0) },
	} {
		if _, err := Parse(flip(data, mutate)); !IsCorrupt(err) {
			t.Errorf("%s: Parse returned %v, want a corruption error", name, err)
		}
	}

	for name, mut := range packMutants(t, data) {
		f, err := Parse(mut)
		if err != nil {
			t.Errorf("%s: refused at Parse (%v); a function's record is checked when it is read", name, err)
			continue
		}
		_, err = f.PackedFunc(0)
		if name == "disagrees with records" {
			if err != nil {
				t.Errorf("%s: PackedFunc refused a well-formed record: %v", name, err)
			}
			if err := f.Verify(); !IsCorrupt(err) || !strings.Contains(err.Error(), "disagrees with its own instructions") {
				t.Errorf("%s: Verify returned %v", name, err)
			}
			continue
		}
		if !IsCorrupt(err) {
			t.Errorf("%s: PackedFunc(0) returned %v, want a corruption error", name, err)
		}
		if err := f.Verify(); !IsCorrupt(err) {
			t.Errorf("%s: Verify returned %v, want a corruption error", name, err)
		}
		for i := 1; i < f.NumFuncs(); i++ {
			if _, err := f.PackedFunc(i); err != nil {
				t.Errorf("%s: function %d, which is intact, fails too: %v", name, i, err)
			}
		}
		if _, err := f.DecodeFunc(0); !IsCorrupt(err) {
			t.Errorf("%s: DecodeFunc(0) returned %v, want a corruption error", name, err)
		}
	}
}

// TestTouchRejectsCorruptRecords: what Parse used to check for every
// record at open is checked for a function's own BLCK and SUCC records
// when it is read, by both ways of reading it, and only that function
// fails.
func TestTouchRejectsCorruptRecords(t *testing.T) {
	data := buildFile(t)
	at := func(name string) int { return int(sectionOf(t, data, name).Offset) }
	put32 := func(at int, v uint32) func([]byte) {
		return func(b []byte) { binary.LittleEndian.PutUint32(b[at:], v) }
	}
	for name, mutate := range map[string]func(b []byte){
		"successor range overruns pool": put32(at(SecBLCK)+4, 1<<20),
		"successor count overruns pool": put32(at(SecBLCK)+8, 1<<20),
		"successor out of range":        put32(at(SecSUCC), 1<<20),
	} {
		f, err := Parse(flip(data, mutate))
		if err != nil {
			t.Errorf("%s: refused at Parse: %v", name, err)
			continue
		}
		if _, err := f.DecodeFunc(0); !IsCorrupt(err) {
			t.Errorf("%s: DecodeFunc(0) returned %v, want a corruption error", name, err)
		}
		if _, err := f.PackedFunc(0); !IsCorrupt(err) {
			t.Errorf("%s: PackedFunc(0) returned %v, want a corruption error", name, err)
		}
		for i := 1; i < f.NumFuncs(); i++ {
			if _, err := f.DecodeFunc(i); err != nil {
				t.Errorf("%s: function %d, which is intact, fails too: %v", name, i, err)
			}
		}
	}
}
