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
	"repro/internal/telemetry"
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
	return LiftImageTel(nil, img)
}

// LiftImageTel is LiftImage reporting into tel, which may be nil: one
// lift_latency observation for the image, the functions it lifted and the
// instructions it decoded to do so.
func LiftImageTel(tel *telemetry.Collector, img []byte) ([]*Function, error) {
	t := tel.StartTimer(telemetry.LiftLatency)
	fns, st, err := liftImageStats(img)
	t.Stop()
	st.report(tel)
	return fns, err
}

// liftStats is an account of the decoding one lift took.
type liftStats struct {
	Functions int // functions lifted
	Decoded   int // instructions decoded, by discovery and by lifting together
	Kept      int // functions lifted from the instructions discovery decoded, without a second decode
}

func (st liftStats) report(tel *telemetry.Collector) {
	tel.Add(telemetry.FunctionsLifted, uint64(st.Functions))
	tel.Add(telemetry.InstructionsDecoded, uint64(st.Decoded))
}

// liftImageStats is LiftImage with the account.
func liftImageStats(img []byte) ([]*Function, liftStats, error) {
	f, err := bin.Read(img)
	if err != nil {
		return nil, liftStats{}, err
	}
	return lift(f)
}

// ErrNoFunction is LiftNamed's error for a name the image does not hold.
var ErrNoFunction = errors.New("prep: no such function")

// LiftNamed parses an ELF image, discovers its functions and lifts only
// the first one called name: exactly the element LiftImage returns for
// it, at a cost that grows with the image only through discovery. No
// other function is lifted, so bytes that fail LiftImage elsewhere in
// the image do not fail LiftNamed.
func LiftNamed(img []byte, name string) (*Function, error) {
	return LiftNamedTel(nil, img, name)
}

// LiftNamedTel is LiftNamed reporting into tel like LiftImageTel.
func LiftNamedTel(tel *telemetry.Collector, img []byte, name string) (*Function, error) {
	t := tel.StartTimer(telemetry.LiftLatency)
	fn, st, err := liftNamed(img, name)
	t.Stop()
	st.report(tel)
	return fn, err
}

func liftNamed(img []byte, name string) (*Function, liftStats, error) {
	f, err := bin.Read(img)
	if err != nil {
		return nil, liftStats{}, err
	}
	images, starts, decoded, err := discover(f)
	st := liftStats{Decoded: decoded}
	if err != nil {
		return nil, st, err
	}
	for _, im := range images {
		if im.Name == name {
			fn, err := liftImageFunc(f, im, starts, &st)
			if err == nil {
				st.Functions = 1
			}
			return fn, st, err
		}
	}
	return nil, st, fmt.Errorf("%w: %q", ErrNoFunction, name)
}

// Lift lifts all functions of a parsed ELF file.
func Lift(f *bin.File) ([]*Function, error) {
	fns, _, err := lift(f)
	return fns, err
}

func lift(f *bin.File) ([]*Function, liftStats, error) {
	images, starts, decoded, err := discover(f)
	st := liftStats{Decoded: decoded}
	if err != nil {
		return nil, st, err
	}
	out := make([]*Function, 0, len(images))
	for _, im := range images {
		fn, err := liftImageFunc(f, im, starts, &st)
		if err != nil {
			return nil, st, err
		}
		out = append(out, fn)
	}
	st.Functions = len(out)
	return out, st, nil
}

// discover recovers the function images of f, the set of their entry
// addresses, which lifting any one of them needs to classify call
// targets, and the number of instructions it decoded.
func discover(f *bin.File) ([]bin.FuncImage, map[uint32]bool, int, error) {
	d, err := f.Discover()
	if err != nil {
		return nil, nil, 0, err
	}
	starts := make(map[uint32]bool, len(d.Funcs))
	for _, im := range d.Funcs {
		starts[im.Addr] = true
	}
	return d.Funcs, starts, d.Decoded, nil
}

func liftImageFunc(f *bin.File, im bin.FuncImage, starts map[uint32]bool, st *liftStats) (*Function, error) {
	fn, err := liftFunc(f, im, starts, st)
	if err != nil {
		return nil, fmt.Errorf("prep: %s: %w", im.Name, err)
	}
	return fn, nil
}

// LiftFunc lifts a single function image. starts is the set of all known
// function entry addresses (used to classify call targets); it may be nil.
//
// Each byte is decoded once: a function discovered in a stripped image
// arrives with the instructions discovery decoded from it
// (bin.FuncImage.TakeDecoded) and LiftFunc takes them, symbolising their
// operands in place. Without them — a symbol-table image, bytes that did
// not decode to the function's end, or an image lifted before — it
// decodes im.Code, to the same instructions or to the typed error.
func LiftFunc(f *bin.File, im bin.FuncImage, starts map[uint32]bool) (*Function, error) {
	return liftFunc(f, im, starts, nil)
}

func liftFunc(f *bin.File, im bin.FuncImage, starts map[uint32]bool, st *liftStats) (*Function, error) {
	run, kept := im.TakeDecoded()
	if !kept {
		var err error
		if run, err = x86.DecodeRun(im.Code, im.Addr); err != nil {
			return nil, err
		}
	}
	if st != nil {
		if kept {
			st.Kept++
		} else {
			st.Decoded += len(run.Insts)
		}
	}
	return liftDecoded(f, im, run, starts)
}

// liftDecoded builds the CFG over run, the decode of im.Code, and
// symbolises it. It owns run: the graph's blocks are slices of its
// instructions and their operands are rewritten in place.
func liftDecoded(f *bin.File, im bin.FuncImage, run x86.Run, starts map[uint32]bool) (*Function, error) {
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
	g, err := cfg.BuildRun(im.Name, run, readTable)
	if err != nil {
		return nil, err
	}
	depths := trackESP(g)
	for _, b := range g.Blocks {
		for ii := range b.Insts {
			rewriteInst(&b.Insts[ii], f, starts, depths[ii])
		}
		depths = depths[len(b.Insts):]
	}
	return &Function{Name: im.Name, Addr: im.Addr, Graph: g}, nil
}

// unknownDepth marks instructions where the esp depth is not statically
// tracked.
const unknownDepth = int32(-1 << 30)

// trackESP computes, per instruction, the number of bytes the stack has
// grown since function entry, by forward propagation over the CFG. The
// result holds the blocks' instructions one block after the other.
func trackESP(g *cfg.Graph) []int32 {
	n, nb := g.NumInsts(), len(g.Blocks)
	// One array: a depth per instruction, then per block the offset of its
	// first instruction, its depth on entry, whether it has been reached
	// and its place in the work queue — a block is queued at most once.
	buf := make([]int32, n+4*nb)
	depths, buf := buf[:n:n], buf[n:]
	off, entry, seen, work := buf[:nb], buf[nb:2*nb], buf[2*nb:3*nb], buf[3*nb:3*nb]
	for i := range depths {
		depths[i] = unknownDepth
	}
	at := int32(0)
	for i, b := range g.Blocks {
		off[i] = at
		at += int32(len(b.Insts))
	}
	seen[g.Entry] = 1
	work = append(work, int32(g.Entry))
	for len(work) > 0 {
		bi := work[0]
		work = work[1:]
		d := entry[bi]
		b := g.Blocks[bi]
		for ii := range b.Insts {
			depths[int(off[bi])+ii] = d
			d = stepESP(d, &b.Insts[ii])
		}
		for _, s := range b.Succs {
			if seen[s] == 0 {
				seen[s], entry[s] = 1, d
				work = append(work, int32(s))
			}
			// On conflicting depths, the first reaching value wins; the
			// naming is heuristic, as in real-world disassemblers.
		}
	}
	return depths
}

// stepESP advances the tracked depth across one instruction.
func stepESP(d int32, in *asm.Inst) int32 {
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
			in.Ops[0] = asm.SymOp(asm.SymLabel, asm.HexToken("loc_", uint64(target), 0))
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
				t.Arg = asm.SymArg(asm.SymLocal, asm.HexToken("var_s", uint64(below), 0))
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
		return asm.HexToken("var_", uint64(-disp), 0)
	case disp >= 8:
		return asm.HexToken("arg_", uint64(disp-8), 0)
	default:
		return "retaddr"
	}
}

func callToken(f *bin.File, target uint32) string {
	if name, ok := f.ImportAt(target); ok {
		return name
	}
	return asm.HexToken("sub_", uint64(target), 0)
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
	return asm.HexToken("unk_", uint64(v), 8)
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
