package x86

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/asm"
)

// genCode encodes n random instructions back to back.
func genCode(t testing.TB, seed int64, n int) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var code []byte
	for i := 0; i < n; i++ {
		enc, _, err := EncodeInst(genInst(rng))
		if err != nil {
			t.Fatal(err)
		}
		code = append(code, enc...)
	}
	return code
}

// TestDecodeAllCarved: DecodeAll carves what it decodes out of a handful
// of arrays — the count does not grow with the code — yields what Decode
// yields instruction by instruction, and hands out operand and term slices
// that rewriting in place cannot leave: every neighbour of a rewritten
// instruction still reads as it was decoded.
func TestDecodeAllCarved(t *testing.T) {
	for _, n := range []int{1, 40, 4000} {
		code := genCode(t, int64(n), n)
		dec, err := DecodeAll(code, 0x8048000)
		if err != nil || len(dec) != n {
			t.Fatalf("%d instructions: decoded %d, %v", n, len(dec), err)
		}
		checkAgainstDecode(t, code, 0x8048000, dec, nil)

		// Instructions, addresses, operands and terms, each in at most a
		// first chunk and the one sized by the rate that follows it, plus
		// the []Decoded itself.
		const ceiling = 10
		if got := testing.AllocsPerRun(10, func() { _, _ = DecodeAll(code, 0x8048000) }); got > ceiling {
			t.Errorf("%d instructions: DecodeAll makes %.0f allocations, want <= %d", n, got, ceiling)
		}

		want := make([]asm.Inst, n)
		for i := range dec {
			want[i] = dec[i].Inst.Clone()
		}
		scribble := asm.SymArg(asm.SymData, "scribble")
		for i := 0; i < n; i += 2 {
			for oi := range dec[i].Inst.Ops {
				op := &dec[i].Inst.Ops[oi]
				op.Arg = scribble
				for ti := range op.Mem {
					op.Mem[ti].Arg = scribble
				}
				// An append must move, not grow into the next operand's terms.
				op.Mem = append(op.Mem, asm.MemTerm{Op: asm.OpAdd, Arg: scribble})
			}
			dec[i].Inst.Ops = append(dec[i].Inst.Ops, asm.DirectOp(scribble))
		}
		for i := 1; i < n; i += 2 {
			if !reflect.DeepEqual(dec[i].Inst, want[i]) {
				t.Fatalf("%d instructions: rewriting instruction %d's neighbours changed it: %q, decoded as %q", n, i, dec[i].Inst, want[i])
			}
		}
	}
}

// TestSweepRuns: a sweep decodes run after run into the same chunks; a run
// that fails keeps the instructions before the failure and says where it
// stopped, runs split without sharing capacity, and the count covers all.
func TestSweepRuns(t *testing.T) {
	good := genCode(t, 7, 300)
	var s Sweep
	s.Expect(2*len(good) + 2)
	first, err := s.Run(good, 0x1000)
	if err != nil || len(first.Insts) != 300 || first.End != 0x1000+uint32(len(good)) {
		t.Fatalf("first run: %d instructions to %#x, %v", len(first.Insts), first.End, err)
	}
	bad := append(append([]byte(nil), good...), 0xF4, 0xF4) // hlt
	second, err := s.Run(bad, 0x9000)
	if err == nil || len(second.Insts) != 300 || second.End != 0x9000+uint32(len(good)) {
		t.Fatalf("second run: %d instructions to %#x, %v", len(second.Insts), second.End, err)
	}
	if s.Insts != 600 {
		t.Errorf("sweep counted %d instructions, want 600", s.Insts)
	}
	for i := range first.Insts {
		if first.Addrs[i]-0x1000 != second.Addrs[i]-0x9000 || first.Len(i) != second.Len(i) {
			t.Fatalf("instruction %d lies differently in the two runs", i)
		}
	}
	if cap(first.Insts) != len(first.Insts) || cap(first.Addrs) != len(first.Addrs) {
		t.Error("a run has spare capacity: appending to it would write into the next run")
	}
	head, tail := second.Split(100)
	if len(head.Insts) != 100 || cap(head.Insts) != 100 || head.End != second.Addrs[100] ||
		len(tail.Insts) != 200 || tail.Addrs[0] != head.End || tail.End != second.End {
		t.Errorf("Split(100): head %d (cap %d) to %#x, tail %d from %#x to %#x",
			len(head.Insts), cap(head.Insts), head.End, len(tail.Insts), tail.Addrs[0], tail.End)
	}
	if none, all := second.Split(0); len(none.Insts) != 0 || none.End != 0x9000 || len(all.Insts) != 300 {
		t.Errorf("Split(0): head %d to %#x, tail %d", len(none.Insts), none.End, len(all.Insts))
	}
	if back := RunOf(mustDecodeAll(t, good, 0x1000)); !reflect.DeepEqual(back.Insts, first.Insts) ||
		!reflect.DeepEqual(back.Addrs, first.Addrs) || back.End != first.End {
		t.Error("RunOf(DecodeAll(code)) differs from the sweep's run over code")
	}
}

func mustDecodeAll(t *testing.T, code []byte, base uint32) []Decoded {
	t.Helper()
	dec, err := DecodeAll(code, base)
	if err != nil {
		t.Fatal(err)
	}
	return dec
}
