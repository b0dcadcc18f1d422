// Package asm models x86 assembly instructions at the level used by the
// paper "Tracelet-Based Code Search in Executables" (PLDI 2014, Section 3
// and Fig. 6):
//
//	instr      ::= nullary | unary op | binary op op | ternary op op op
//	op         ::= [ OffsetCalc ] | arg
//	arg        ::= reg | imm
//	OffsetCalc ::= arg | arg aop OffsetCalc
//	aop        ::= + | - | *
//
// In addition to registers and immediates, an argument may be a *symbol*: a
// named token introduced by the preprocessing step of Section 4.1 (stack
// variables such as var_8, imported call targets such as _printf, global
// data content tokens such as aCmdDDone, and code labels such as
// loc_401358). Symbols are what the rewrite engine of Section 4.4
// re-assigns.
package asm

import (
	"fmt"
	"strconv"
	"strings"
)

// ArgKind classifies an argument. The paper's rewrite rules distinguish
// substitutions between operands of the same type from substitutions across
// types, so the kind is the unit of "type" here.
type ArgKind uint8

const (
	KindNone ArgKind = iota
	KindReg          // machine register
	KindImm          // immediate integer value
	KindSym          // symbolic token (see SymClass)
)

var argKindNames = [...]string{"none", "reg", "imm", "sym"}

// String returns a short name for the kind.
func (k ArgKind) String() string {
	if int(k) < len(argKindNames) {
		return argKindNames[k]
	}
	return "<bad kind>"
}

// SymClass classifies a symbolic token. The rewrite engine keeps separate
// assignment domains for registers, memory locations and function names
// (paper Section 4.4); symbol classes carry that distinction.
type SymClass uint8

const (
	SymNone  SymClass = iota
	SymLocal          // stack variable or argument: var_8, arg_0
	SymData           // global-memory content token: aCmdDDone, unk_404000
	SymFunc           // call target: _printf, sub_4012F0
	SymLabel          // intra-procedural code label: loc_401358
)

var symClassNames = [...]string{"none", "local", "data", "func", "label"}

// String returns a short name for the class.
func (c SymClass) String() string {
	if int(c) < len(symClassNames) {
		return symClassNames[c]
	}
	return "<bad class>"
}

// Arg is a single argument: a register, an immediate, or a symbol.
// Exactly one of the fields selected by Kind is meaningful.
type Arg struct {
	Kind ArgKind
	Reg  Reg      // valid when Kind == KindReg
	Imm  int64    // valid when Kind == KindImm
	Sym  string   // valid when Kind == KindSym
	Cls  SymClass // valid when Kind == KindSym
}

// RegArg returns a register argument.
func RegArg(r Reg) Arg { return Arg{Kind: KindReg, Reg: r} }

// ImmArg returns an immediate argument.
func ImmArg(v int64) Arg { return Arg{Kind: KindImm, Imm: v} }

// SymArg returns a symbolic argument of the given class.
func SymArg(class SymClass, name string) Arg {
	return Arg{Kind: KindSym, Sym: name, Cls: class}
}

// IsReg reports whether a is a register argument.
func (a Arg) IsReg() bool { return a.Kind == KindReg }

// IsImm reports whether a is an immediate argument.
func (a Arg) IsImm() bool { return a.Kind == KindImm }

// IsSym reports whether a is a symbolic argument.
func (a Arg) IsSym() bool { return a.Kind == KindSym }

// SameType reports whether a and b are arguments of the same type in the
// paper's sense: both registers, both immediates, or both symbols of the
// same class.
func (a Arg) SameType(b Arg) bool {
	if a.Kind != b.Kind {
		return false
	}
	return a.Kind != KindSym || a.Cls == b.Cls
}

// String formats the argument in Intel syntax.
func (a Arg) String() string {
	switch a.Kind {
	case KindReg:
		return a.Reg.String()
	case KindImm:
		return formatImm(a.Imm)
	case KindSym:
		return a.Sym
	default:
		return "<none>"
	}
}

func formatImm(v int64) string {
	neg := false
	u := v
	if v < 0 {
		neg = true
		u = -v
	}
	var s string
	if u < 10 {
		s = fmt.Sprintf("%d", u)
	} else {
		// IDA-style hexadecimal: 18h, 0A0h.
		h := strings.ToUpper(fmt.Sprintf("%x", u))
		if h[0] >= 'A' && h[0] <= 'F' {
			h = "0" + h
		}
		s = h + "h"
	}
	if neg {
		return "-" + s
	}
	return s
}

// HexToken returns prefix followed by v in upper-case hexadecimal, padded
// with zeros to at least width digits: the shape of the address- and
// offset-derived symbol names (sub_8048060, loc_80480A4, var_1C,
// unk_0000002A). It is fmt.Sprintf(prefix+"%0*X", width, v) at the cost of
// the one string it returns.
func HexToken(prefix string, v uint64, width int) string {
	var buf [40]byte
	b := append(buf[:0], prefix...)
	var digits [16]byte
	d := strconv.AppendUint(digits[:0], v, 16)
	for n := len(d); n < width; n++ {
		b = append(b, '0')
	}
	for _, c := range d {
		if c >= 'a' {
			c -= 'a' - 'A'
		}
		b = append(b, c)
	}
	return string(b)
}

// MemOp is one aop operator inside an offset calculation.
type MemOp byte

const (
	OpAdd MemOp = '+'
	OpSub MemOp = '-'
	OpMul MemOp = '*'
)

// MemTerm is one term of an offset calculation. The operator of the first
// term in an operand is always OpAdd and is not printed.
type MemTerm struct {
	Op  MemOp
	Arg Arg
}

// Operand is either a direct argument (Mem == nil) or a memory operand whose
// address is the offset calculation given by Mem. For call-style operands
// carrying an "offset name" immediate (e.g. mov ebx, offset unk_404000) the
// Offset flag is set.
type Operand struct {
	Arg    Arg       // direct argument; meaningful when Mem is empty
	Mem    []MemTerm // memory offset calculation; non-empty for [..] operands
	Offset bool      // printed with an "offset " prefix (address-of a symbol)
}

// IsMem reports whether o is a memory operand.
func (o Operand) IsMem() bool { return len(o.Mem) > 0 }

// DirectOp returns a direct (non-memory) operand.
func DirectOp(a Arg) Operand { return Operand{Arg: a} }

// RegOp returns a direct register operand.
func RegOp(r Reg) Operand { return DirectOp(RegArg(r)) }

// ImmOp returns a direct immediate operand.
func ImmOp(v int64) Operand { return DirectOp(ImmArg(v)) }

// SymOp returns a direct symbolic operand.
func SymOp(class SymClass, name string) Operand {
	return DirectOp(SymArg(class, name))
}

// OffsetOp returns an "offset name" operand: the address of a symbol used
// as an immediate-like value.
func OffsetOp(class SymClass, name string) Operand {
	return Operand{Arg: SymArg(class, name), Offset: true}
}

// MemOperand returns a memory operand over the given terms. The first
// term's operator is normalized to OpAdd.
func MemOperand(terms ...MemTerm) Operand {
	if len(terms) == 0 {
		panic("asm: MemOperand with no terms")
	}
	terms[0].Op = OpAdd
	return Operand{Mem: terms}
}

// MemReg returns the memory operand [base].
func MemReg(base Reg) Operand {
	return MemOperand(MemTerm{Arg: RegArg(base)})
}

// MemDisp returns the memory operand [base+disp] ([base-(-disp)] when disp
// is negative).
func MemDisp(base Reg, disp int64) Operand {
	op := OpAdd
	if disp < 0 {
		op, disp = OpSub, -disp
	}
	return MemOperand(MemTerm{Arg: RegArg(base)}, MemTerm{Op: op, Arg: ImmArg(disp)})
}

// MemSym returns the memory operand [base+sym] for a preprocessed stack
// variable such as [ebp+var_8].
func MemSym(base Reg, class SymClass, name string) Operand {
	return MemOperand(MemTerm{Arg: RegArg(base)}, MemTerm{Op: OpAdd, Arg: SymArg(class, name)})
}

// Args returns the arguments appearing in the operand, in syntactic order.
func (o Operand) Args() []Arg {
	if !o.IsMem() {
		return []Arg{o.Arg}
	}
	out := make([]Arg, len(o.Mem))
	for i, t := range o.Mem {
		out[i] = t.Arg
	}
	return out
}

// SameShape reports whether two operands have the same structure: both
// direct with same-type arguments, or both memory operands with the same
// number of terms, the same operators, and pairwise same-type arguments.
// This is the operand-level component of the paper's SameKind predicate.
func (o Operand) SameShape(p Operand) bool {
	if o.IsMem() != p.IsMem() {
		return false
	}
	if !o.IsMem() {
		return o.Offset == p.Offset && o.Arg.SameType(p.Arg)
	}
	if len(o.Mem) != len(p.Mem) {
		return false
	}
	for i := range o.Mem {
		if o.Mem[i].Op != p.Mem[i].Op || !o.Mem[i].Arg.SameType(p.Mem[i].Arg) {
			return false
		}
	}
	return true
}

// String formats the operand in Intel syntax.
func (o Operand) String() string {
	if !o.IsMem() {
		if o.Offset {
			return "offset " + o.Arg.String()
		}
		return o.Arg.String()
	}
	var b strings.Builder
	b.WriteByte('[')
	for i, t := range o.Mem {
		if i > 0 {
			b.WriteByte(byte(t.Op))
		}
		b.WriteString(t.Arg.String())
	}
	b.WriteByte(']')
	return b.String()
}

// Inst is one assembly instruction: a mnemonic and up to three operands.
type Inst struct {
	Mnemonic string
	Ops      []Operand
}

// New constructs an instruction. The mnemonic is lower-cased.
func New(mnemonic string, ops ...Operand) Inst {
	return Inst{Mnemonic: strings.ToLower(mnemonic), Ops: ops}
}

// String formats the instruction in Intel syntax, e.g.
// "mov [ebp+var_4], esi".
func (in Inst) String() string {
	if len(in.Ops) == 0 {
		return in.Mnemonic
	}
	parts := make([]string, len(in.Ops))
	for i, o := range in.Ops {
		parts[i] = o.String()
	}
	return in.Mnemonic + " " + strings.Join(parts, ", ")
}

// Clone returns a deep copy of the instruction.
func (in Inst) Clone() Inst {
	out := Inst{Mnemonic: in.Mnemonic}
	if in.Ops != nil {
		out.Ops = make([]Operand, len(in.Ops))
		for i, o := range in.Ops {
			out.Ops[i] = o
			if o.Mem != nil {
				out.Ops[i].Mem = append([]MemTerm(nil), o.Mem...)
			}
		}
	}
	return out
}

// Equal reports syntactic equality of two instructions.
func (in Inst) Equal(other Inst) bool {
	if in.Mnemonic != other.Mnemonic || len(in.Ops) != len(other.Ops) {
		return false
	}
	for i := range in.Ops {
		if !operandEqual(in.Ops[i], other.Ops[i]) {
			return false
		}
	}
	return true
}

func operandEqual(a, b Operand) bool {
	if a.IsMem() != b.IsMem() {
		return false
	}
	if !a.IsMem() {
		return a.Offset == b.Offset && a.Arg == b.Arg
	}
	if len(a.Mem) != len(b.Mem) {
		return false
	}
	for i := range a.Mem {
		if a.Mem[i] != b.Mem[i] {
			return false
		}
	}
	return true
}

// SetArg replaces the i'th argument (in Args() order) of the instruction.
// It panics if i is out of range.
func (in *Inst) SetArg(i int, a Arg) {
	idx := 0
	for oi := range in.Ops {
		op := &in.Ops[oi]
		if !op.IsMem() {
			if idx == i {
				op.Arg = a
				return
			}
			idx++
			continue
		}
		for ti := range op.Mem {
			if idx == i {
				op.Mem[ti].Arg = a
				return
			}
			idx++
		}
	}
	panic("asm: SetArg index out of range")
}
