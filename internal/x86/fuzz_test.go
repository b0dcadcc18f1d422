package x86

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/asm"
)

// FuzzDecode feeds arbitrary bytes to the instruction decoder. Whatever
// the input, the decoder must either succeed or reject it with one of
// the two typed errors — never panic, never return a generic error, and
// never report an instruction longer than the input. Anything it does
// accept must survive a semantic round trip: re-encoding and re-decoding
// yields the same instruction. (Byte identity is deliberately not
// required here — the fuzzer feeds non-canonical encodings like imm32
// forms of imm8-sized constants, which re-encode shorter; byte-for-byte
// identity over canonical encodings is checked by internal/difftest.)
func FuzzDecode(f *testing.F) {
	f.Add([]byte{0x89, 0xd8})                         // mov eax, ebx
	f.Add([]byte{0x83, 0xc0, 0x07})                   // add eax, 7
	f.Add([]byte{0x8b, 0x45, 0xfc})                   // mov eax, [ebp-4]
	f.Add([]byte{0xb8, 0x2a, 0x00, 0x00, 0x00})       // mov eax, 42
	f.Add([]byte{0x0f, 0x94, 0xc0})                   // sete al
	f.Add([]byte{0x0f, 0xaf, 0xc3})                   // imul eax, ebx
	f.Add([]byte{0xc3})                               // ret
	f.Add([]byte{0xe8, 0x00, 0x00, 0x00, 0x00})       // call +0
	f.Add([]byte{0x74, 0xfe})                         // je self
	f.Add([]byte{0x8d, 0x44, 0x98, 0x04})             // lea eax, [eax+ebx*4+4]
	f.Add([]byte{0xf7, 0xd8})                         // neg eax
	f.Add([]byte{0x99})                               // cdq
	f.Add([]byte{0x0f})                               // truncated two-byte opcode
	f.Add([]byte{0x83, 0xc0})                         // truncated immediate
	f.Add([]byte{0xd9, 0xee})                         // unsupported (x87)
	f.Add([]byte{0x8b, 0x85, 0x01, 0x02})             // truncated disp32
	f.Add(bytes.Repeat([]byte{0x90}, 16))             // nop sled
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}) // garbage

	f.Fuzz(func(t *testing.T, data []byte) {
		in, n, err := Decode(data, 0x1000)
		if err != nil {
			if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrBadOpcode) {
				t.Fatalf("Decode(% x) returned an untyped error: %v", data, err)
			}
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("Decode(% x) claimed length %d of %d input bytes", data, n, len(data))
		}
		if in.IsControlFlow() {
			return // relative targets are decoded absolute; only AssembleFunc restores them
		}
		enc, fixups, err := EncodeInst(in)
		if err != nil {
			t.Fatalf("decoded %q from % x but re-encode failed: %v", in, data[:n], err)
		}
		if len(fixups) != 0 {
			t.Fatalf("re-encoding decoded %q produced %d fixups", in, len(fixups))
		}
		again, m, err := Decode(enc, 0x1000)
		if err != nil || m != len(enc) {
			t.Fatalf("re-encoded %q as % x but re-decode failed: %v (len %d)", in, enc, err, m)
		}
		if !in.Equal(again) {
			t.Fatalf("semantic round trip of % x: %q != %q", data[:n], in, again)
		}
	})
}

// FuzzDecodeAll checks the streaming decoder on arbitrary byte runs: it
// must never panic, must account for every byte it claims to have
// consumed, and — decoding into memory carved from a sweep's chunks — must
// yield what decoding the same bytes one Decode at a time yields: the same
// instructions at the same addresses with the same lengths, stopping at
// the same place with an error of the same class and text, every operand
// and memory-term slice closed (cap == len) so that rewriting one
// instruction's operands in place cannot reach another's.
func FuzzDecodeAll(f *testing.F) {
	f.Add([]byte{0x55, 0x89, 0xe5, 0x5d, 0xc3})                                                       // push ebp; mov ebp,esp; pop ebp; ret
	f.Add([]byte{0x90, 0x90, 0x0f})                                                                   // nops then truncation
	f.Add([]byte{0x8b, 0x44, 0x98, 0x04, 0x69, 0xc3, 0x10, 0x00, 0x00, 0x00, 0xc7, 0x45, 0xfc, 0x00}) // memory terms, three operands, a cut immediate
	f.Add(bytes.Repeat([]byte{0x8d, 0x44, 0x98, 0x04, 0x0f, 0xaf, 0xc3}, 400))                        // long enough to take second chunks
	f.Fuzz(func(t *testing.T, data []byte) {
		decoded, err := DecodeAll(data, 0x2000)
		if err != nil && !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrBadOpcode) {
			t.Fatalf("DecodeAll(% x) returned an untyped error: %v", data, err)
		}
		checkAgainstDecode(t, data, 0x2000, decoded, err)
		if err != nil {
			return
		}
		total := 0
		for _, d := range decoded {
			if d.Len <= 0 {
				t.Fatalf("instruction %q at %#x has length %d", d.Inst, d.Addr, d.Len)
			}
			total += d.Len
		}
		if total != len(data) {
			t.Fatalf("DecodeAll consumed %d of %d bytes without error", total, len(data))
		}
	})
}

// checkAgainstDecode holds what DecodeAll made of code to Decode applied
// instruction by instruction.
func checkAgainstDecode(t *testing.T, code []byte, base uint32, decoded []Decoded, err error) {
	t.Helper()
	p := 0
	for i := 0; ; i++ {
		var in asm.Inst
		var n int
		var werr error
		if p < len(code) {
			in, n, werr = Decode(code[p:], base+uint32(p))
		}
		if p >= len(code) || werr != nil {
			if i != len(decoded) {
				t.Fatalf("DecodeAll decoded %d instructions, Decode %d", len(decoded), i)
			}
			if (err == nil) != (werr == nil) {
				t.Fatalf("DecodeAll stopped with %v, Decode with %v", err, werr)
			}
			if werr != nil {
				if errors.Is(err, ErrTruncated) != errors.Is(werr, ErrTruncated) || errors.Is(err, ErrBadOpcode) != errors.Is(werr, ErrBadOpcode) {
					t.Fatalf("DecodeAll stopped with %v, Decode with %v: different class", err, werr)
				}
				if want := fmt.Sprintf("at %#x: %v", base+uint32(p), werr); err.Error() != want {
					t.Fatalf("DecodeAll error %q, want %q", err, want)
				}
			}
			return
		}
		if i >= len(decoded) {
			t.Fatalf("DecodeAll stopped after %d instructions; Decode goes on with %q at %#x", i, in, base+uint32(p))
		}
		d := decoded[i]
		if d.Addr != base+uint32(p) || d.Len != n || !reflect.DeepEqual(d.Inst, in) {
			t.Fatalf("instruction %d: DecodeAll %q at %#x (%d bytes), Decode %q at %#x (%d bytes)", i, d.Inst, d.Addr, d.Len, in, base+uint32(p), n)
		}
		if cap(d.Inst.Ops) != len(d.Inst.Ops) {
			t.Fatalf("instruction %d: Ops has len %d, cap %d", i, len(d.Inst.Ops), cap(d.Inst.Ops))
		}
		for oi, op := range d.Inst.Ops {
			if cap(op.Mem) != len(op.Mem) {
				t.Fatalf("instruction %d operand %d: Mem has len %d, cap %d", i, oi, len(op.Mem), cap(op.Mem))
			}
		}
		p += n
	}
}
