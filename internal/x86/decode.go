package x86

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/asm"
)

// ccName maps condition codes back to mnemonics. The synonyms chosen (jz
// over je, jnz over jne) follow the paper's listings.
var ccName = [16]string{
	"jo", "jno", "jb", "jae", "jz", "jnz", "jbe", "ja",
	"js", "jns", "jp", "jnp", "jl", "jge", "jle", "jg",
}

var aluName = [8]string{"add", "or", "adc", "sbb", "and", "sub", "xor", "cmp"}

// ccSuffix maps condition codes to setcc/cmovcc suffixes, preferring the
// z/nz spellings to match the jump synonyms used elsewhere.
var ccSuffix = [16]string{
	"o", "no", "b", "ae", "z", "nz", "be", "a",
	"s", "ns", "p", "np", "l", "ge", "le", "g",
}

// Mnemonics selected by the ModRM digit of opcodes C1, F7 and FF; "" marks
// a digit outside the supported subset.
var (
	shiftName = [8]string{0: "rol", 1: "ror", 4: "shl", 5: "shr", 7: "sar"}
	unaryName = [8]string{2: "not", 3: "neg", 4: "mul", 5: "imul", 6: "div", 7: "idiv"}
	ffName    = [8]string{0: "inc", 1: "dec", 2: "call", 4: "jmp", 6: "push"}
)

// setccName and cmovName are "set" and "cmov" with each ccSuffix.
var setccName, cmovName = withSuffixes("set"), withSuffixes("cmov")

func withSuffixes(prefix string) (names [16]string) {
	for i, cc := range ccSuffix {
		names[i] = prefix + cc
	}
	return names
}

// Decoded couples a decoded instruction with its address and length.
type Decoded struct {
	Inst asm.Inst
	Addr uint32
	Len  int
}

type reader struct {
	b  []byte
	ip uint32 // address of b[0]
	p  int
	sw *Sweep // where operands and memory terms are carved from; nil: one allocation each
}

// Typed decode failures. Both are *expected* rejections of malformed
// input — fuzz targets and hardened callers use errors.Is to separate
// them from genuine faults (anything else, including a panic, is a bug):
//
//   - ErrTruncated: the byte stream ends inside an instruction.
//   - ErrBadOpcode: a byte sequence outside the supported subset.
var (
	ErrTruncated = errors.New("x86: truncated instruction")
	ErrBadOpcode = errors.New("x86: unsupported opcode")
)

func (r *reader) byte() (byte, error) {
	if r.p >= len(r.b) {
		return 0, ErrTruncated
	}
	v := r.b[r.p]
	r.p++
	return v, nil
}

func (r *reader) i8() (int64, error) {
	v, err := r.byte()
	return int64(int8(v)), err
}

func (r *reader) i32() (int64, error) {
	if r.p+4 > len(r.b) {
		return 0, ErrTruncated
	}
	v := int32(binary.LittleEndian.Uint32(r.b[r.p:]))
	r.p += 4
	return int64(v), nil
}

// Operands are built where they will live: operands hands out zeroed
// slots and the decoder sets only the fields an operand has.

func setReg(o *asm.Operand, r asm.Reg) { o.Arg.Kind, o.Arg.Reg = asm.KindReg, r }
func setImm(o *asm.Operand, v int64)   { o.Arg.Kind, o.Arg.Imm = asm.KindImm, v }

// gpr returns general-purpose register n, 8-bit when byteReg is set.
func gpr(n int, byteReg bool) asm.Reg {
	if byteReg {
		return asm.Reg8(n)
	}
	return asm.Reg32(n)
}

// modrm decodes a ModRM byte (plus SIB/disp) into the r/m operand dst —
// a register, 8-bit when byteReg is set, or a memory operand, which reads
// the same either way — and returns the register field.
func (r *reader) modrm(dst *asm.Operand, byteReg bool) (int, error) {
	mb, err := r.byte()
	if err != nil {
		return 0, err
	}
	mod := int(mb >> 6)
	regField := int(mb >> 3 & 7)
	rm := int(mb & 7)
	if mod == 3 {
		setReg(dst, gpr(rm, byteReg))
		return regField, nil
	}
	var m memRef
	m.scale = 1
	hasSIB := rm == 0b100
	if hasSIB {
		sib, err := r.byte()
		if err != nil {
			return 0, err
		}
		scale := 1 << (sib >> 6)
		idx := int(sib >> 3 & 7)
		base := int(sib & 7)
		if idx != 0b100 {
			m.index = asm.Reg32(idx)
			m.scale = scale
		}
		if base == 0b101 && mod == 0 {
			// no base, disp32 follows
			d, err := r.i32()
			if err != nil {
				return 0, err
			}
			m.disp = int32(d)
			dst.Mem = r.mem(&m)
			return regField, nil
		}
		m.base = asm.Reg32(base)
	} else if rm == 0b101 && mod == 0 {
		d, err := r.i32()
		if err != nil {
			return 0, err
		}
		m.disp = int32(d)
		dst.Mem = r.mem(&m)
		return regField, nil
	} else {
		m.base = asm.Reg32(rm)
	}
	switch mod {
	case 1:
		d, err := r.i8()
		if err != nil {
			return 0, err
		}
		m.disp = int32(d)
	case 2:
		d, err := r.i32()
		if err != nil {
			return 0, err
		}
		m.disp = int32(d)
	}
	dst.Mem = r.mem(&m)
	return regField, nil
}

// Decode decodes the instruction at the start of code, which is loaded at
// absolute address ip. Relative jump and call targets are returned as
// immediate operands holding the absolute target address. It is the
// one-off decoder (an emulator step, a test): the instruction's operands
// are allocated for it alone. Decoding a run goes through a Sweep.
func Decode(code []byte, ip uint32) (asm.Inst, int, error) {
	r := reader{b: code, ip: ip}
	in, err := r.inst()
	if err != nil {
		return asm.Inst{}, 0, err
	}
	return in, r.p, nil
}

// DecodeAll decodes consecutive instructions covering all of code.
func DecodeAll(code []byte, base uint32) ([]Decoded, error) {
	run, err := DecodeRun(code, base)
	out := make([]Decoded, len(run.Insts))
	for i := range out {
		out[i] = Decoded{Inst: run.Insts[i], Addr: run.Addrs[i], Len: run.Len(i)}
	}
	return out, err
}

// DecodeRun is DecodeAll yielding a Run, the form the lift works on: what
// decoded before a failure, and the failure with its address.
func DecodeRun(code []byte, base uint32) (Run, error) {
	var s Sweep
	run, err := s.Run(code, base)
	if err != nil {
		return run, fmt.Errorf("at %#x: %w", run.End, err)
	}
	return run, nil
}

// Run is a run of consecutive decoded instructions in parallel arrays: a
// CFG's blocks are slices of Insts.
type Run struct {
	Insts []asm.Inst
	Addrs []uint32 // Addrs[i] is the address of Insts[i]
	End   uint32   // the address one past the last instruction; the run's base when it is empty
}

// Len returns the encoded length of instruction i.
func (r Run) Len(i int) int {
	if i+1 < len(r.Addrs) {
		return int(r.Addrs[i+1] - r.Addrs[i])
	}
	return int(r.End - r.Addrs[i])
}

// Split divides the run before instruction i, 0 <= i <= len(r.Insts).
// The halves share no capacity.
func (r Run) Split(i int) (head, tail Run) {
	at := r.End
	if i < len(r.Addrs) {
		at = r.Addrs[i]
	}
	return Run{Insts: r.Insts[:i:i], Addrs: r.Addrs[:i:i], End: at},
		Run{Insts: r.Insts[i:], Addrs: r.Addrs[i:], End: r.End}
}

// RunOf copies decoded instructions, as DecodeAll returns them, into a
// Run that shares their operands.
func RunOf(dec []Decoded) Run {
	r := Run{Insts: make([]asm.Inst, len(dec)), Addrs: make([]uint32, len(dec))}
	for i, d := range dec {
		r.Insts[i], r.Addrs[i] = d.Inst, d.Addr
	}
	if n := len(dec); n > 0 {
		r.End = dec[n-1].Addr + uint32(dec[n-1].Len)
	}
	return r
}

// Sweep decodes runs of consecutive instructions into memory carved from
// chunked backing arrays — instructions, operands and memory terms each
// from their own — and counts them. It is the one decoder behind
// DecodeAll and function discovery (internal/bin), which sweeps a whole
// text section region by region and keeps the runs. A chunk that runs out
// is followed by one sized for the bytes still to come at the rate the
// bytes so far have set, so a sweep is a handful of allocations whatever
// it decodes.
//
// Every Ops and Mem slice it hands out has cap == len: the lift rewrites
// operands in place, and nothing it could do to one instruction's slices
// can reach a neighbour's.
type Sweep struct {
	Insts int // instructions decoded so far, over all runs

	insts []asm.Inst // current chunks; the carved part is [0:len)
	addrs []uint32   // kept in step with insts
	ops   carved[asm.Operand]
	mem   carved[asm.MemTerm]

	runStart int // where the run being decoded starts in insts
	done     int // code bytes decoded so far
	rest     int // code bytes expected still to come (Expect)
	pending  int // bytes of the current run's code not yet decoded
}

// carved is one kind of element handed out from chunks.
type carved[T any] struct {
	chunk []T // the current chunk; the part handed out is [0:len)
	n     int // handed out so far, over all chunks
}

// Expect tells the sweep how many code bytes its runs will cover in all,
// so that its first chunks are sized for all of them. Without it each Run
// sizes chunks for its own code.
func (s *Sweep) Expect(codeBytes int) { s.rest = codeBytes }

// Run decodes consecutive instructions from the start of code, loaded at
// base, until code is covered or an instruction fails to decode. It
// returns the instructions before the failure — the run ends, Run.End,
// where the failure begins — and the failure, nil when code is covered.
func (s *Sweep) Run(code []byte, base uint32) (Run, error) {
	s.runStart = len(s.insts)
	r := reader{sw: s}
	p := 0
	var err error
	for p < len(code) {
		s.pending = len(code) - p
		r.b, r.ip, r.p = code[p:], base+uint32(p), 0
		var in asm.Inst
		if in, err = r.inst(); err != nil {
			break
		}
		if len(s.insts) == cap(s.insts) {
			s.growRun()
		}
		s.insts = append(s.insts, in)
		s.addrs = append(s.addrs, base+uint32(p))
		s.Insts++
		s.done += r.p
		s.rest = max(s.rest-r.p, 0)
		p += r.p
	}
	s.rest = max(s.rest-(len(code)-p), 0) // what a failure leaves undecoded is padding or data
	at := len(s.insts)
	return Run{
		Insts: s.insts[s.runStart:at:at],
		Addrs: s.addrs[s.runStart:at:at],
		End:   base + uint32(p),
	}, err
}

// What a first chunk is sized by, in elements to 16 bytes of code: a
// little under what compiled code runs to (0.34-0.39 instructions, 0.55-
// 0.62 operands and 0.19-0.24 memory terms a byte on the campaign corpus),
// so that the chunk after it, sized by the measured rate, makes up the
// difference instead of the first one overshooting it.
const instsPer16, opsPer16, memPer16 = 5, 8, 3

// chunk returns the capacity of a fresh chunk for an array of which have
// elements were carved for the bytes decoded so far and need are wanted
// now: room for the bytes still to come at the rate so far and a
// thirty-second to spare, or at per16 elements to 16 bytes while too few
// bytes were decoded to call it a rate.
func (s *Sweep) chunk(have, need, per16 int) int {
	rest := max(s.rest, s.pending)
	est := rest * per16 / 16
	if s.done >= 1024 {
		est = int(int64(have) * int64(rest) / int64(s.done))
		est += est / 32
	}
	return max(need, est) + 8
}

// growRun moves the run being decoded to the start of fresh instruction
// and address chunks with room to go on.
func (s *Sweep) growRun() {
	run := len(s.insts) - s.runStart
	c := run + s.chunk(s.Insts, 1, instsPer16)
	insts, addrs := make([]asm.Inst, run, c), make([]uint32, run, c)
	copy(insts, s.insts[s.runStart:])
	copy(addrs, s.addrs[s.runStart:])
	s.insts, s.addrs, s.runStart = insts, addrs, 0
}

// carve hands out n zeroed elements of c with no spare capacity, from a
// fresh chunk when the current one has not room for them.
func carve[T any](s *Sweep, c *carved[T], n, per16 int) []T {
	if cap(c.chunk)-len(c.chunk) < n {
		c.chunk = make([]T, 0, s.chunk(c.n, n, per16))
	}
	at := len(c.chunk)
	c.chunk = c.chunk[:at+n]
	c.n += n
	return c.chunk[at : at+n : at+n]
}

// operands carves n operands; without a sweep it allocates them.
func (r *reader) operands(n int) []asm.Operand {
	if r.sw == nil {
		return make([]asm.Operand, n)
	}
	return carve(r.sw, &r.sw.ops, n, opsPer16)
}

// terms carves n memory terms; without a sweep it allocates them.
func (r *reader) terms(n int) []asm.MemTerm {
	if r.sw == nil {
		return make([]asm.MemTerm, n)
	}
	return carve(r.sw, &r.sw.mem, n, memPer16)
}

// mem returns the offset calculation of a canonical memRef as the terms
// of an asm memory operand — base, index, scale, displacement, each when
// present, the first term's operator OpAdd — written where they will
// live: terms hands out zeroed slots.
func (r *reader) mem(m *memRef) []asm.MemTerm {
	n := 0
	if m.base != asm.RegNone {
		n++
	}
	if m.index != asm.RegNone {
		n++
		if m.scale != 1 {
			n++
		}
	}
	disp := m.disp != 0 || n == 0
	if disp {
		n++
	}
	dst := r.terms(n)
	i := 0
	reg := func(op asm.MemOp, reg asm.Reg) {
		t := &dst[i]
		t.Op, t.Arg.Kind, t.Arg.Reg = op, asm.KindReg, reg
		i++
	}
	imm := func(op asm.MemOp, v int64) {
		t := &dst[i]
		t.Op, t.Arg.Kind, t.Arg.Imm = op, asm.KindImm, v
		i++
	}
	if m.base != asm.RegNone {
		reg(asm.OpAdd, m.base)
	}
	if m.index != asm.RegNone {
		reg(asm.OpAdd, m.index)
		if m.scale != 1 {
			imm(asm.OpMul, int64(m.scale))
		}
	}
	if disp {
		op, d := asm.OpAdd, int64(m.disp)
		if d < 0 && i > 0 {
			op, d = asm.OpSub, -d
		}
		imm(op, d)
	}
	return dst
}

// imm reads an immediate of width bytes, 1 (sign-extended) or 4.
func (r *reader) imm(width int) (int64, error) {
	if width == 1 {
		return r.i8()
	}
	return r.i32()
}

// jump decodes "m rel", the displacement width bytes wide: the operand is
// the absolute target address as an immediate.
func (r *reader) jump(m string, width int) (asm.Inst, error) {
	d, err := r.imm(width)
	if err != nil {
		return asm.Inst{}, err
	}
	ops := r.operands(1)
	setImm(&ops[0], int64(r.ip+uint32(r.p)+uint32(int32(d))))
	return asm.Inst{Mnemonic: m, Ops: ops}, nil
}

// unaryReg is "m reg".
func (r *reader) unaryReg(m string, reg asm.Reg) (asm.Inst, error) {
	ops := r.operands(1)
	setReg(&ops[0], reg)
	return asm.Inst{Mnemonic: m, Ops: ops}, nil
}

// unaryImm decodes "m imm", the immediate width bytes wide.
func (r *reader) unaryImm(m string, width int) (asm.Inst, error) {
	v, err := r.imm(width)
	if err != nil {
		return asm.Inst{}, err
	}
	ops := r.operands(1)
	setImm(&ops[0], v)
	return asm.Inst{Mnemonic: m, Ops: ops}, nil
}

// regImm decodes "m reg, imm", the immediate width bytes wide.
func (r *reader) regImm(m string, reg asm.Reg, width int) (asm.Inst, error) {
	v, err := r.imm(width)
	if err != nil {
		return asm.Inst{}, err
	}
	ops := r.operands(2)
	setReg(&ops[0], reg)
	setImm(&ops[1], v)
	return asm.Inst{Mnemonic: m, Ops: ops}, nil
}

// regRM decodes a ModRM instruction with a register and an r/m operand:
// "m reg, r/m" when regFirst is set, else "m r/m, reg". The register is
// 8-bit when reg8 is set, a register r/m operand when rm8 is.
func (r *reader) regRM(m string, regFirst, reg8, rm8 bool) (asm.Inst, error) {
	ops := r.operands(2)
	regAt, rmAt := 1, 0
	if regFirst {
		regAt, rmAt = 0, 1
	}
	reg, err := r.modrm(&ops[rmAt], rm8)
	if err != nil {
		return asm.Inst{}, err
	}
	setReg(&ops[regAt], gpr(reg, reg8))
	return asm.Inst{Mnemonic: m, Ops: ops}, nil
}

func (r *reader) inst() (asm.Inst, error) {
	op, err := r.byte()
	if err != nil {
		return asm.Inst{}, err
	}
	fail := func() (asm.Inst, error) {
		return asm.Inst{}, fmt.Errorf("%w %#02x at %#x", ErrBadOpcode, op, r.ip)
	}

	// ALU rows: grp*8+1 (rm,r) and grp*8+3 (r,rm).
	if op < 0x40 && (op&7 == 1 || op&7 == 3) {
		return r.regRM(aluName[op>>3], op&7 == 3, false, false)
	}

	switch {
	case op >= 0x40 && op <= 0x47:
		return r.unaryReg("inc", asm.Reg32(int(op-0x40)))
	case op >= 0x48 && op <= 0x4F:
		return r.unaryReg("dec", asm.Reg32(int(op-0x48)))
	case op >= 0x50 && op <= 0x57:
		return r.unaryReg("push", asm.Reg32(int(op-0x50)))
	case op >= 0x58 && op <= 0x5F:
		return r.unaryReg("pop", asm.Reg32(int(op-0x58)))
	case op >= 0x70 && op <= 0x7F:
		return r.jump(ccName[op-0x70], 1)
	case op >= 0xB0 && op <= 0xB7:
		return r.regImm("mov", asm.Reg8(int(op-0xB0)), 1)
	case op >= 0xB8 && op <= 0xBF:
		return r.regImm("mov", asm.Reg32(int(op-0xB8)), 4)
	}

	switch op {
	case 0x0F:
		op2, err := r.byte()
		if err != nil {
			return asm.Inst{}, err
		}
		switch {
		case op2 == 0xAF:
			return r.regRM("imul", true, false, false)
		case op2 >= 0x80 && op2 <= 0x8F:
			return r.jump(ccName[op2-0x80], 4)
		case op2 >= 0x90 && op2 <= 0x9F:
			ops := r.operands(1)
			if _, err := r.modrm(&ops[0], true); err != nil {
				return asm.Inst{}, err
			}
			return asm.Inst{Mnemonic: setccName[op2-0x90], Ops: ops}, nil
		case op2 >= 0x40 && op2 <= 0x4F:
			return r.regRM(cmovName[op2-0x40], true, false, false)
		case op2 == 0xB6:
			return r.regRM("movzx", true, false, true)
		case op2 == 0xBE:
			return r.regRM("movsx", true, false, true)
		}
		return asm.Inst{}, fmt.Errorf("%w 0f %#02x at %#x", ErrBadOpcode, op2, r.ip)
	case 0x68:
		return r.unaryImm("push", 4)
	case 0x6A:
		return r.unaryImm("push", 1)
	case 0x69, 0x6B:
		ops := r.operands(3)
		reg, err := r.modrm(&ops[1], false)
		if err != nil {
			return asm.Inst{}, err
		}
		v, err := r.imm(immWidth(op == 0x6B))
		if err != nil {
			return asm.Inst{}, err
		}
		setReg(&ops[0], asm.Reg32(reg))
		setImm(&ops[2], v)
		return asm.Inst{Mnemonic: "imul", Ops: ops}, nil
	case 0x81, 0x83:
		ops := r.operands(2)
		grp, err := r.modrm(&ops[0], false)
		if err != nil {
			return asm.Inst{}, err
		}
		v, err := r.imm(immWidth(op == 0x83))
		if err != nil {
			return asm.Inst{}, err
		}
		setImm(&ops[1], v)
		return asm.Inst{Mnemonic: aluName[grp], Ops: ops}, nil
	case 0x85:
		return r.regRM("test", false, false, false)
	case 0x88:
		return r.regRM("mov", false, true, true)
	case 0x8A:
		return r.regRM("mov", true, true, true)
	case 0x89:
		return r.regRM("mov", false, false, false)
	case 0x8B:
		return r.regRM("mov", true, false, false)
	case 0x8D:
		in, err := r.regRM("lea", true, false, false)
		if err == nil && !in.Ops[1].IsMem() {
			// lea with a register source (ModRM mod=11) is #UD on hardware.
			return asm.Inst{}, fmt.Errorf("%w: lea with register source at %#x", ErrBadOpcode, r.ip)
		}
		return in, err
	case 0x8F:
		ops := r.operands(1)
		if _, err := r.modrm(&ops[0], false); err != nil {
			return asm.Inst{}, err
		}
		return asm.Inst{Mnemonic: "pop", Ops: ops}, nil
	case 0x90:
		return asm.Inst{Mnemonic: "nop"}, nil
	case 0x99:
		return asm.Inst{Mnemonic: "cdq"}, nil
	case 0xC1:
		ops := r.operands(2)
		digit, err := r.modrm(&ops[0], false)
		if err != nil {
			return asm.Inst{}, err
		}
		name := shiftName[digit]
		if name == "" {
			return fail()
		}
		v, err := r.i8()
		if err != nil {
			return asm.Inst{}, err
		}
		setImm(&ops[1], v)
		return asm.Inst{Mnemonic: name, Ops: ops}, nil
	case 0xC3:
		return asm.Inst{Mnemonic: "retn"}, nil
	case 0xC7:
		ops := r.operands(2)
		digit, err := r.modrm(&ops[0], false)
		if err != nil {
			return asm.Inst{}, err
		}
		if digit != 0 {
			return fail()
		}
		v, err := r.i32()
		if err != nil {
			return asm.Inst{}, err
		}
		setImm(&ops[1], v)
		return asm.Inst{Mnemonic: "mov", Ops: ops}, nil
	case 0xC9:
		return asm.Inst{Mnemonic: "leave"}, nil
	case 0xE8:
		return r.jump("call", 4)
	case 0xE9:
		return r.jump("jmp", 4)
	case 0xEB:
		return r.jump("jmp", 1)
	case 0xF7:
		// test r/m, imm32 has two operands, the rest of the group one: the
		// digit of the ModRM byte ahead tells how many to carve.
		n := 1
		if r.p < len(r.b) && r.b[r.p]>>3&7 == 0 {
			n = 2
		}
		ops := r.operands(n)
		digit, err := r.modrm(&ops[0], false)
		if err != nil {
			return asm.Inst{}, err
		}
		if digit == 0 {
			v, err := r.i32()
			if err != nil {
				return asm.Inst{}, err
			}
			setImm(&ops[1], v)
			return asm.Inst{Mnemonic: "test", Ops: ops}, nil
		}
		name := unaryName[digit]
		if name == "" {
			return fail()
		}
		return asm.Inst{Mnemonic: name, Ops: ops}, nil
	case 0xFF:
		ops := r.operands(1)
		digit, err := r.modrm(&ops[0], false)
		if err != nil {
			return asm.Inst{}, err
		}
		if name := ffName[digit]; name != "" {
			return asm.Inst{Mnemonic: name, Ops: ops}, nil
		}
		return fail()
	}
	return fail()
}

// immWidth is the width of an instruction's immediate: a byte in the
// sign-extended short form, else four.
func immWidth(short bool) int {
	if short {
		return 1
	}
	return 4
}
