// Package prep lifts binary functions to preprocessed assembly CFGs,
// implementing the compilation-side-effect reversal of paper Section 4.1:
//
//   - Imported-function call targets are replaced with the function name
//     recovered from the dynamic symbol table (call 0x00401FF0 ->
//     call _printf). Internal call targets become address-derived sub_XX
//     tokens, which never match across binaries syntactically and are
//     bridged by the rewrite engine instead.
//   - Offsets pointing into initialized global memory are replaced with a
//     designated token derived from the *content* at that address
//     (0x00404002 holding "DONE" -> aCmdDDone), so the token is stable
//     across binaries that embed the same data at different addresses.
//   - Stack-frame offsets are replaced with var_X / arg_X tokens, for both
//     ebp-relative and esp-relative (tracked) addressing.
//   - Intra-procedural jump targets become loc_X label tokens; they are
//     stripped during tracelet extraction anyway.
package prep

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/asm"
	"repro/internal/bin"
	"repro/internal/cfg"
	"repro/internal/x86"
)

// Function is a lifted, preprocessed binary function.
type Function struct {
	Name  string
	Addr  uint32
	Graph *cfg.Graph
}

// NumBlocks returns the number of basic blocks.
func (f *Function) NumBlocks() int { return len(f.Graph.Blocks) }

// NumInsts returns the number of instructions.
func (f *Function) NumInsts() int { return f.Graph.NumInsts() }

// LiftImage parses an ELF image and lifts all of its functions.
func LiftImage(img []byte) ([]*Function, error) {
	f, err := bin.Read(img)
	if err != nil {
		return nil, err
	}
	return Lift(f)
}

// ErrNoFunction is LiftNamed's error for a name the image does not hold.
var ErrNoFunction = errors.New("prep: no such function")

// LiftNamed parses an ELF image, discovers its functions and lifts only
// the first one called name: exactly the element LiftImage returns for
// it, at a cost that grows with the image only through discovery. No
// other function is decoded, so bytes that fail LiftImage elsewhere in
// the image do not fail LiftNamed.
func LiftNamed(img []byte, name string) (*Function, error) {
	f, err := bin.Read(img)
	if err != nil {
		return nil, err
	}
	images, starts, err := discover(f)
	if err != nil {
		return nil, err
	}
	for _, im := range images {
		if im.Name == name {
			return liftImageFunc(f, im, starts)
		}
	}
	return nil, fmt.Errorf("%w: %q", ErrNoFunction, name)
}

// Lift lifts all functions of a parsed ELF file.
func Lift(f *bin.File) ([]*Function, error) {
	images, starts, err := discover(f)
	if err != nil {
		return nil, err
	}
	out := make([]*Function, 0, len(images))
	for _, im := range images {
		fn, err := liftImageFunc(f, im, starts)
		if err != nil {
			return nil, err
		}
		out = append(out, fn)
	}
	return out, nil
}

// discover recovers the function images of f and the set of their entry
// addresses, which lifting any one of them needs to classify call targets.
func discover(f *bin.File) ([]bin.FuncImage, map[uint32]bool, error) {
	images, err := f.Functions()
	if err != nil {
		return nil, nil, err
	}
	starts := make(map[uint32]bool, len(images))
	for _, im := range images {
		starts[im.Addr] = true
	}
	return images, starts, nil
}

func liftImageFunc(f *bin.File, im bin.FuncImage, starts map[uint32]bool) (*Function, error) {
	fn, err := LiftFunc(f, im, starts)
	if err != nil {
		return nil, fmt.Errorf("prep: %s: %w", im.Name, err)
	}
	return fn, nil
}

// LiftFunc lifts a single function image. starts is the set of all known
// function entry addresses (used to classify call targets); it may be nil.
func LiftFunc(f *bin.File, im bin.FuncImage, starts map[uint32]bool) (*Function, error) {
	dec, err := x86.DecodeAll(im.Code, im.Addr)
	if err != nil {
		return nil, err
	}
	// Jump-table recovery: read consecutive .rodata entries while they
	// point back into this function (the heuristic real disassemblers
	// use for switch statements).
	fnEnd := im.Addr + uint32(len(im.Code))
	readTable := func(tbl uint32) []uint32 {
		data, ok := f.DataAt(tbl)
		if !ok {
			return nil
		}
		var out []uint32
		for i := 0; i+4 <= len(data) && i < 256*4; i += 4 {
			a := uint32(data[i]) | uint32(data[i+1])<<8 | uint32(data[i+2])<<16 | uint32(data[i+3])<<24
			if a < im.Addr || a >= fnEnd {
				break
			}
			out = append(out, a)
		}
		return out
	}
	g, err := cfg.BuildWithTables(im.Name, dec, readTable)
	if err != nil {
		return nil, err
	}
	depths := trackESP(g)
	for bi, b := range g.Blocks {
		for ii := range b.Insts {
			rewriteInst(&b.Insts[ii], f, starts, depths[bi][ii])
		}
	}
	return &Function{Name: im.Name, Addr: im.Addr, Graph: g}, nil
}

// unknownDepth marks instructions where the esp depth is not statically
// tracked.
const unknownDepth = int32(-1 << 30)

// trackESP computes, per instruction, the number of bytes the stack has
// grown since function entry, by forward propagation over the CFG. The
// result indexes [block][instruction-within-block].
func trackESP(g *cfg.Graph) [][]int32 {
	depths := make([][]int32, len(g.Blocks))
	for i, b := range g.Blocks {
		depths[i] = make([]int32, len(b.Insts))
		for j := range depths[i] {
			depths[i][j] = unknownDepth
		}
	}
	entry := make([]int32, len(g.Blocks))
	seen := make([]bool, len(g.Blocks))
	entry[g.Entry] = 0
	seen[g.Entry] = true
	work := []int{g.Entry}
	for len(work) > 0 {
		bi := work[0]
		work = work[1:]
		d := entry[bi]
		b := g.Blocks[bi]
		for ii, in := range b.Insts {
			depths[bi][ii] = d
			d = stepESP(d, in)
		}
		for _, s := range b.Succs {
			if !seen[s] {
				seen[s] = true
				entry[s] = d
				work = append(work, s)
			}
			// On conflicting depths, the first reaching value wins; the
			// naming is heuristic, as in real-world disassemblers.
		}
	}
	return depths
}

// stepESP advances the tracked depth across one instruction.
func stepESP(d int32, in asm.Inst) int32 {
	if d == unknownDepth {
		return d
	}
	switch in.Mnemonic {
	case "push":
		return d + 4
	case "pop":
		return d - 4
	case "sub", "add":
		if len(in.Ops) == 2 && !in.Ops[0].IsMem() && in.Ops[0].Arg.IsReg() &&
			in.Ops[0].Arg.Reg == asm.ESP && !in.Ops[1].IsMem() && in.Ops[1].Arg.IsImm() {
			if in.Mnemonic == "sub" {
				return d + int32(in.Ops[1].Arg.Imm)
			}
			return d - int32(in.Ops[1].Arg.Imm)
		}
		return d
	case "leave":
		return unknownDepth
	case "mov":
		// mov esp, ebp (epilogue) invalidates tracking.
		if len(in.Ops) == 2 && !in.Ops[0].IsMem() && in.Ops[0].Arg.IsReg() &&
			in.Ops[0].Arg.Reg == asm.ESP {
			return unknownDepth
		}
		return d
	default:
		return d
	}
}

func rewriteInst(in *asm.Inst, f *bin.File, starts map[uint32]bool, depth int32) {
	switch {
	case in.IsCall():
		if len(in.Ops) == 1 && !in.Ops[0].IsMem() && in.Ops[0].Arg.IsImm() {
			target := uint32(in.Ops[0].Arg.Imm)
			in.Ops[0] = asm.SymOp(asm.SymFunc, callToken(f, target))
		}
		return
	case in.IsJump():
		if len(in.Ops) == 1 && !in.Ops[0].IsMem() && in.Ops[0].Arg.IsImm() {
			target := uint32(in.Ops[0].Arg.Imm)
			in.Ops[0] = asm.SymOp(asm.SymLabel, fmt.Sprintf("loc_%X", target))
		}
		return
	}
	for oi := range in.Ops {
		op := &in.Ops[oi]
		if op.IsMem() {
			rewriteMem(op, f, depth)
			continue
		}
		if op.Arg.IsImm() {
			if tok, ok := dataTokenAt(f, uint32(op.Arg.Imm)); ok {
				*op = asm.OffsetOp(asm.SymData, tok)
			} else if starts != nil && starts[uint32(op.Arg.Imm)] {
				*op = asm.OffsetOp(asm.SymFunc, callToken(f, uint32(op.Arg.Imm)))
			}
		}
	}
}

func rewriteMem(op *asm.Operand, f *bin.File, depth int32) {
	base := asm.RegNone
	nRegs := 0
	for _, t := range op.Mem {
		if t.Arg.IsReg() {
			nRegs++
			if base == asm.RegNone {
				base = t.Arg.Reg
			}
		}
	}
	for ti := range op.Mem {
		t := &op.Mem[ti]
		if !t.Arg.IsImm() {
			continue
		}
		// Scale factors in [base+index*N] are structural, not offsets.
		if t.Op == asm.OpMul {
			continue
		}
		v := t.Arg.Imm
		if t.Op == asm.OpSub {
			v = -v
		}
		switch {
		case nRegs == 0:
			if tok, ok := dataTokenAt(f, uint32(v)); ok {
				t.Op = asm.OpAdd
				t.Arg = asm.SymArg(asm.SymData, tok)
			}
		case base == asm.EBP && nRegs == 1:
			t.Op = asm.OpAdd
			t.Arg = asm.SymArg(asm.SymLocal, frameToken(v))
		case base == asm.ESP && nRegs == 1 && depth != unknownDepth:
			below := int64(depth) - v
			if below > 0 {
				t.Op = asm.OpAdd
				t.Arg = asm.SymArg(asm.SymLocal, fmt.Sprintf("var_s%X", below))
			}
		}
	}
}

// frameToken names an ebp-relative slot IDA-style: negative offsets are
// locals (var_X), offsets >= 8 are arguments (arg_X counts from 0 at
// ebp+8); ebp+4 is the return address.
func frameToken(disp int64) string {
	switch {
	case disp < 0:
		return fmt.Sprintf("var_%X", -disp)
	case disp >= 8:
		return fmt.Sprintf("arg_%X", disp-8)
	default:
		return "retaddr"
	}
}

func callToken(f *bin.File, target uint32) string {
	if name, ok := f.ImportAt(target); ok {
		return name
	}
	return fmt.Sprintf("sub_%X", target)
}

// dataTokenAt derives the content token for an address inside initialized
// global memory, or returns false if the address is not in a data section.
func dataTokenAt(f *bin.File, addr uint32) (string, bool) {
	data, ok := f.DataAt(addr)
	if !ok {
		return "", false
	}
	return DataToken(data), true
}

// DataToken derives the designated token for global data content: an
// IDA-style aCamelCase name for printable strings, or a content-derived
// unk_ token for binary data. Equal content yields equal tokens, which is
// what makes the substitution stable across binaries (paper Sec 4.1).
func DataToken(data []byte) string {
	// Read up to the NUL terminator (C string) or 24 bytes.
	n := 0
	for n < len(data) && n < 24 && data[n] != 0 {
		n++
	}
	s := data[:n]
	printable := len(s) >= 1
	for _, c := range s {
		if c < 0x20 || c > 0x7e {
			printable = false
			break
		}
	}
	if printable {
		return "a" + camelCase(string(s))
	}
	var v uint32
	for i := 0; i < 4 && i < len(data); i++ {
		v |= uint32(data[i]) << (8 * i)
	}
	return fmt.Sprintf("unk_%08X", v)
}

func camelCase(s string) string {
	var b strings.Builder
	newWord := true
	for _, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z':
			if newWord && c >= 'a' && c <= 'z' {
				c -= 'a' - 'A'
			}
			b.WriteRune(c)
			newWord = false
		case c >= '0' && c <= '9':
			b.WriteRune(c)
			newWord = false
		default:
			newWord = true
		}
		if b.Len() >= 16 {
			break
		}
	}
	if b.Len() == 0 {
		return "Str"
	}
	return b.String()
}
