package asm

// This file implements the instruction semantics of paper Section 3:
// read(inst), write(inst), args(inst) and SameKind(inst, inst).

// opAccess describes how an instruction accesses one of its operands.
type opAccess uint8

const (
	accNone opAccess = 0
	accR    opAccess = 1 << iota // operand value is read
	accW                         // operand value is written
	accRW            = accR | accW
	accAddr opAccess = 1 << 3 // address-of only (lea): offset regs read, value untouched
)

// mnemonicInfo is the per-mnemonic semantic table entry.
type mnemonicInfo struct {
	access   []opAccess // access per operand position
	impR     []Reg      // implicitly read registers
	impW     []Reg      // implicitly written registers
	jump     bool       // control-flow transfer (jmp or jcc)
	cond     bool       // conditional control-flow transfer
	call     bool
	ret      bool
	variadic bool // operand count may be shorter than len(access) (imul)
}

var mnemonics = map[string]mnemonicInfo{
	// Nullary.
	"ret":   {ret: true, impR: []Reg{ESP}, impW: []Reg{ESP}},
	"retn":  {ret: true, impR: []Reg{ESP}, impW: []Reg{ESP}},
	"leave": {impR: []Reg{EBP}, impW: []Reg{ESP, EBP}},
	"nop":   {},
	"cdq":   {impR: []Reg{EAX}, impW: []Reg{EDX}},
	"cwde":  {impR: []Reg{EAX}, impW: []Reg{EAX}},
	"cbw":   {impR: []Reg{EAX}, impW: []Reg{EAX}},
	"aad":   {impR: []Reg{EAX}, impW: []Reg{EAX}},
	"aam":   {impR: []Reg{EAX}, impW: []Reg{EAX}},
	"aas":   {impR: []Reg{EAX}, impW: []Reg{EAX}},

	// Unary.
	"push":  {access: []opAccess{accR}, impR: []Reg{ESP}, impW: []Reg{ESP}},
	"pop":   {access: []opAccess{accW}, impR: []Reg{ESP}, impW: []Reg{ESP}},
	"inc":   {access: []opAccess{accRW}},
	"dec":   {access: []opAccess{accRW}},
	"neg":   {access: []opAccess{accRW}},
	"not":   {access: []opAccess{accRW}},
	"idiv":  {access: []opAccess{accR}, impR: []Reg{EAX, EDX}, impW: []Reg{EAX, EDX}},
	"div":   {access: []opAccess{accR}, impR: []Reg{EAX, EDX}, impW: []Reg{EAX, EDX}},
	"mul":   {access: []opAccess{accR}, impR: []Reg{EAX}, impW: []Reg{EAX, EDX}},
	"call":  {access: []opAccess{accR}, call: true, impR: []Reg{ESP}, impW: []Reg{ESP, EAX, ECX, EDX}},
	"jmp":   {access: []opAccess{accR}, jump: true},
	"sete":  {access: []opAccess{accW}},
	"setne": {access: []opAccess{accW}},
	"setl":  {access: []opAccess{accW}},
	"setg":  {access: []opAccess{accW}},

	// Binary.
	"mov":   {access: []opAccess{accW, accR}},
	"movzx": {access: []opAccess{accW, accR}},
	"movsx": {access: []opAccess{accW, accR}},
	"lea":   {access: []opAccess{accW, accAddr}},
	"add":   {access: []opAccess{accRW, accR}},
	"sub":   {access: []opAccess{accRW, accR}},
	"adc":   {access: []opAccess{accRW, accR}},
	"sbb":   {access: []opAccess{accRW, accR}},
	"and":   {access: []opAccess{accRW, accR}},
	"or":    {access: []opAccess{accRW, accR}},
	"xor":   {access: []opAccess{accRW, accR}},
	"cmp":   {access: []opAccess{accR, accR}},
	"test":  {access: []opAccess{accR, accR}},
	"xchg":  {access: []opAccess{accRW, accRW}},
	"shl":   {access: []opAccess{accRW, accR}},
	"shr":   {access: []opAccess{accRW, accR}},
	"sar":   {access: []opAccess{accRW, accR}},
	"rol":   {access: []opAccess{accRW, accR}},
	"ror":   {access: []opAccess{accRW, accR}},
	"rorx":  {access: []opAccess{accW, accR, accR}, variadic: true},

	// imul has one-, two- and three-operand forms.
	"imul": {access: []opAccess{accRW, accR, accR}, variadic: true},
}

// conditional jumps share one entry shape.
var ccMnemonics = []string{
	"jz", "jnz", "je", "jne", "jl", "jle", "jg", "jge",
	"jb", "jbe", "ja", "jae", "js", "jns", "jo", "jno", "jp", "jnp",
}

// ccSuffixes are the condition-code spellings used for setcc/cmovcc.
var ccSuffixes = []string{
	"o", "no", "b", "ae", "z", "nz", "e", "ne", "be", "a",
	"s", "ns", "p", "np", "l", "ge", "le", "g",
}

func init() {
	for _, m := range ccMnemonics {
		mnemonics[m] = mnemonicInfo{access: []opAccess{accR}, jump: true, cond: true}
	}
	for _, cc := range ccSuffixes {
		mnemonics["set"+cc] = mnemonicInfo{access: []opAccess{accW}}
		// cmov keeps the old destination when the condition fails, so the
		// destination is read as well as written.
		mnemonics["cmov"+cc] = mnemonicInfo{access: []opAccess{accRW, accR}}
	}
	buildMnemonicTab()
}

// The lookup table. The lift and the index writer ask for an
// instruction's semantics several times each (is it a call, a jump, a
// block end; what does it read and write), and hashing the mnemonic for a
// map lookup each time was a visible share of an index build. So
// mnemonics is laid out for a lookup that is a multiply, a shift and one
// string comparison: a mnemonic's bytes, packed into a word, times
// slotMul select one of len(slotOf) slots, and slotMul is searched for at
// start-up so that no two known mnemonics share a slot.
var (
	slotOf  [1024]uint8     // slot -> index into entries; 0: no mnemonic lands here
	entries []mnemonicEntry // entries[0] is the entry of no mnemonic
	slotMul uint64
)

type mnemonicEntry struct {
	name string
	info mnemonicInfo
}

// slot returns m's slot under mul: the top bits of the product of mul and
// m's first eight bytes and length packed into a word.
func slot(m string, mul uint64) uint64 {
	x := uint64(len(m)) << 56
	for i := 0; i < len(m) && i < 7; i++ {
		x |= uint64(m[i]) << (8 * i)
	}
	return x * mul >> 54 // 64 - log2(len(slotOf))
}

func buildMnemonicTab() {
	entries = make([]mnemonicEntry, 1, len(mnemonics)+1)
	for m, info := range mnemonics {
		entries = append(entries, mnemonicEntry{m, info})
	}
	// Odd multipliers from a fixed sequence; a few dozen tries find one
	// for a hundred mnemonics in a thousand slots.
	mul := uint64(0x9E3779B97F4A7C15)
	for try := 0; try < 1<<20; try, mul = try+1, mul*0xD1342543DE82EF95+2 {
		slotOf = [len(slotOf)]uint8{}
		clash := false
		for i := 1; i < len(entries) && !clash; i++ {
			k := slot(entries[i].name, mul)
			clash = slotOf[k] != 0
			slotOf[k] = uint8(i)
		}
		if !clash {
			slotMul = mul
			return
		}
	}
	panic("asm: no collision-free layout of the mnemonic table")
}

// lookup returns the table entry of mnemonic m, or the zero entry and
// false when it has none.
func lookup(m string) (*mnemonicInfo, bool) {
	if e := &entries[slotOf[slot(m, slotMul)]]; e.name == m && m != "" {
		return &e.info, true
	}
	return &entries[0].info, false
}

// KnownMnemonic reports whether the mnemonic has a semantic table entry.
func KnownMnemonic(m string) bool {
	_, ok := lookup(m)
	return ok
}

// access returns the access mode of operand i given the instruction's
// table entry, defaulting to read for unknown mnemonics (a safe
// over-approximation for reads, and conservative for writes).
func (in *Inst) access(info *mnemonicInfo, ok bool, i int) opAccess {
	if !ok || i >= len(info.access) {
		if ok && info.variadic {
			// imul with fewer operands: single-operand form is a pure
			// read with implicit eax/edx; two-operand form is RW,R —
			// both are prefixes of the table entry, handled below.
			return accNone
		}
		return accR
	}
	if info.variadic {
		switch in.Mnemonic {
		case "imul":
			switch len(in.Ops) {
			case 1:
				return accR
			case 2:
				return [2]opAccess{accRW, accR}[i]
			case 3:
				return [3]opAccess{accW, accR, accR}[i]
			}
		}
	}
	return info.access[i]
}

// IsJump reports whether the instruction is a jump (conditional or not).
func (in Inst) IsJump() bool {
	info, ok := lookup(in.Mnemonic)
	return ok && info.jump
}

// IsCondJump reports whether the instruction is a conditional jump.
func (in Inst) IsCondJump() bool {
	info, ok := lookup(in.Mnemonic)
	return ok && info.cond
}

// IsCall reports whether the instruction is a call.
func (in Inst) IsCall() bool {
	info, ok := lookup(in.Mnemonic)
	return ok && info.call
}

// IsRet reports whether the instruction is a return.
func (in Inst) IsRet() bool {
	info, ok := lookup(in.Mnemonic)
	return ok && info.ret
}

// IsControlFlow reports whether the instruction transfers control (jump,
// call or return). Tracelet extraction strips jumps; basic-block
// construction ends blocks at jumps and returns.
func (in Inst) IsControlFlow() bool {
	info, ok := lookup(in.Mnemonic)
	return ok && (info.jump || info.call || info.ret)
}

// Terminates reports whether the instruction ends a basic block (jump or
// return, but not call: calls return to the next instruction).
func (in Inst) Terminates() bool {
	info, ok := lookup(in.Mnemonic)
	return ok && (info.jump || info.ret)
}

// regAccesses calls f with every register the instruction accesses and
// the mode of the access (paper Section 3): a register operand in the
// operand's access mode, a register used as a component of a
// memory-address computation as a read — a memory destination writes no
// register — and the registers the mnemonic reads and writes implicitly.
// It is the one walk behind Read, Write and the packed masks.
func (in *Inst) regAccesses(f func(r Reg, acc opAccess)) {
	info, ok := lookup(in.Mnemonic)
	for i := range in.Ops {
		op := &in.Ops[i]
		if op.IsMem() {
			// Address components are always read, whatever the access.
			for _, t := range op.Mem {
				if t.Arg.IsReg() {
					f(t.Arg.Reg, accR)
				}
			}
		} else if op.Arg.IsReg() {
			f(op.Arg.Reg, in.access(info, ok, i))
		}
	}
	for _, r := range info.impR {
		f(r, accR)
	}
	for _, r := range info.impW {
		f(r, accW)
	}
	if in.Mnemonic == "imul" && len(in.Ops) == 1 {
		f(EAX, accRW) // single-operand form multiplies into edx:eax
		f(EDX, accW)
	}
}

// regSet collects the registers accessed in the given mode.
func (in *Inst) regSet(mode opAccess) map[Reg]bool {
	out := make(map[Reg]bool)
	in.regAccesses(func(r Reg, acc opAccess) {
		if acc&mode != 0 {
			out[r] = true
		}
	})
	return out
}

// Read returns the set of registers read by the instruction (paper
// Section 3): registers appearing as read operands, and registers used as
// components of any memory-address computation.
func (in Inst) Read() map[Reg]bool { return in.regSet(accR) }

// Write returns the set of registers written by the instruction. A memory
// destination writes no register.
func (in Inst) Write() map[Reg]bool { return in.regSet(accW) }

// regMasks returns Read() and Write() as RegBit masks, without
// materializing the sets.
func (in *Inst) regMasks() (rd, wr uint64) {
	in.regAccesses(func(r Reg, acc opAccess) {
		if acc&accR != 0 {
			rd |= RegBit(r)
		}
		if acc&accW != 0 {
			wr |= RegBit(r)
		}
	})
	return rd, wr
}

// Args returns the arguments appearing in the instruction, in syntactic
// order (paper Section 3: args(inst)). Arguments inside memory operands are
// included; duplicates are preserved so that positional alignment works.
func (in Inst) Args() []Arg {
	out := make([]Arg, 0, in.NumArgs())
	for _, op := range in.Ops {
		if !op.IsMem() {
			out = append(out, op.Arg)
			continue
		}
		for _, t := range op.Mem {
			out = append(out, t.Arg)
		}
	}
	return out
}

// NumArgs returns len(Args()) without materializing the slice.
func (in Inst) NumArgs() int {
	n := 0
	for i := range in.Ops {
		if in.Ops[i].IsMem() {
			n += len(in.Ops[i].Mem)
		} else {
			n++
		}
	}
	return n
}

// SameKind reports whether two instructions have the same structure (paper
// Section 3): the same mnemonic, the same number of arguments, and all
// arguments pairwise of the same type. Memory-operand structure (number of
// terms and operators) must also agree, so that mov eax,[ebp+4] and
// mov eax,[ebp+ecx] differ in kind, per the paper's inst3/inst4 example.
func SameKind(a, b Inst) bool {
	if a.Mnemonic != b.Mnemonic || len(a.Ops) != len(b.Ops) {
		return false
	}
	for i := range a.Ops {
		if !a.Ops[i].SameShape(b.Ops[i]) {
			return false
		}
	}
	return true
}
