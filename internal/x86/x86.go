// Package x86 implements a binary encoder (assembler) and decoder
// (disassembler) for a practical subset of the 32-bit x86 instruction set:
// the mov/alu/lea/imul/push/pop/shift/unary groups, calls, returns, and
// rel8/rel32 conditional and unconditional jumps, with full ModRM/SIB
// addressing ([base], [base+disp], [base+index*scale+disp], [disp32]).
//
// It is the disassembler substrate of the tracelet pipeline: binaries
// produced by the TinyC compiler (internal/tinyc) and packaged by
// internal/bin are decoded back to internal/asm instructions here, exactly
// as the paper's prototype used IDA Pro to lift executables to assembly.
package x86

import (
	"fmt"

	"repro/internal/asm"
)

// memRef is the canonical form of a memory operand:
// [base + index*scale + disp(+sym)].
type memRef struct {
	base  asm.Reg // RegNone if absent
	index asm.Reg // RegNone if absent
	scale int     // 1, 2, 4 or 8; meaningful when index != RegNone
	disp  int32
	sym   string // data symbol whose address is added to disp (abs32 fixup)
}

// canonMem folds an operand's offset-calculation term list into a memRef.
// Recognized term shapes: reg, imm, data-symbol, and reg*imm / imm*reg
// (expressed as consecutive terms joined by '*').
func canonMem(op asm.Operand) (memRef, error) {
	var m memRef
	m.scale = 1
	terms := op.Mem
	for i := 0; i < len(terms); i++ {
		t := terms[i]
		// A '*' on the *next* term means this term is part of a scaled
		// index pair.
		scaled := i+1 < len(terms) && terms[i+1].Op == asm.OpMul
		switch {
		case scaled:
			next := terms[i+1]
			var reg asm.Arg
			var imm asm.Arg
			if t.Arg.IsReg() && next.Arg.IsImm() {
				reg, imm = t.Arg, next.Arg
			} else if t.Arg.IsImm() && next.Arg.IsReg() {
				reg, imm = next.Arg, t.Arg
			} else {
				return m, fmt.Errorf("x86: unsupported scaled term in %s", op)
			}
			if t.Op == asm.OpSub {
				return m, fmt.Errorf("x86: subtracted index in %s", op)
			}
			if m.index != asm.RegNone {
				return m, fmt.Errorf("x86: two index registers in %s", op)
			}
			m.index = reg.Reg
			switch imm.Imm {
			case 1, 2, 4, 8:
				m.scale = int(imm.Imm)
			default:
				return m, fmt.Errorf("x86: bad scale %d in %s", imm.Imm, op)
			}
			i++ // consume the scale term
		case t.Arg.IsReg():
			if t.Op == asm.OpSub {
				return m, fmt.Errorf("x86: subtracted register in %s", op)
			}
			switch {
			case m.base == asm.RegNone:
				m.base = t.Arg.Reg
			case m.index == asm.RegNone:
				m.index = t.Arg.Reg
				m.scale = 1
			default:
				return m, fmt.Errorf("x86: three registers in %s", op)
			}
		case t.Arg.IsImm():
			v := t.Arg.Imm
			if t.Op == asm.OpSub {
				v = -v
			}
			m.disp += int32(v)
		case t.Arg.IsSym():
			if t.Arg.Cls != asm.SymData {
				return m, fmt.Errorf("x86: cannot encode symbol %s in %s", t.Arg.Sym, op)
			}
			if t.Op == asm.OpSub {
				return m, fmt.Errorf("x86: subtracted symbol in %s", op)
			}
			if m.sym != "" {
				return m, fmt.Errorf("x86: two symbols in %s", op)
			}
			m.sym = t.Arg.Sym
		default:
			return m, fmt.Errorf("x86: bad term in %s", op)
		}
	}
	if m.index == asm.ESP {
		return m, fmt.Errorf("x86: esp cannot be an index register in %s", op)
	}
	return m, nil
}

// operand converts a canonical memRef back to an asm memory operand.
func (m memRef) operand() asm.Operand {
	var r reader
	return asm.Operand{Mem: r.mem(&m)}
}

// FixupKind describes how a fixup patches encoded bytes.
type FixupKind uint8

const (
	// FixupAbs32 writes the absolute 32-bit address of the symbol, added
	// to the value already present in the field.
	FixupAbs32 FixupKind = iota
	// FixupRel32 writes target − next-instruction-address as a signed
	// 32-bit displacement.
	FixupRel32
)

// Fixup records a hole in encoded machine code that the linker must patch.
type Fixup struct {
	Kind   FixupKind
	Off    int          // byte offset of the 4-byte field within the code
	NextIP int          // byte offset of the following instruction (rel32 base)
	Sym    string       // symbol to resolve
	Class  asm.SymClass // symbol class, for resolver routing
}
