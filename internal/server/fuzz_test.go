package server

import (
	"encoding/base64"
	"testing"

	"repro/internal/asm"
	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/prep"
	"repro/internal/tinyc"
)

// malformedQueries are functions only a hand-built or corrupted gob
// carries: argument kinds, registers and symbol classes past their
// enumerations, an instruction with nine operands, an empty mnemonic, a
// memory term with an operator that is none, a jump to nowhere, and the
// two operands the packed form cannot carry — a memory operand with the
// offset flag and one with a direct argument beside its terms — which
// decodeQueryGob refuses.
func malformedQueries() []*prep.Function {
	nine := make([]asm.Operand, 9)
	for i := range nine {
		nine[i] = asm.RegOp(asm.Reg(i))
	}
	insts := [][]asm.Inst{
		{asm.New("mov", asm.DirectOp(asm.Arg{Kind: asm.ArgKind(9), Sym: "q"}), asm.RegOp(asm.EAX))},
		{asm.New("mov", asm.RegOp(asm.Reg(200)), asm.RegOp(asm.Reg(77)))},
		{asm.New("push", asm.SymOp(asm.SymClass(99), "x")), asm.New("call", asm.SymOp(asm.SymClass(200), "_f"))},
		{asm.New("add", nine...)},
		{{Mnemonic: ""}, {Mnemonic: "", Ops: []asm.Operand{asm.ImmOp(1)}}},
		{asm.New("mov", asm.RegOp(asm.EAX), asm.Operand{Mem: []asm.MemTerm{{Op: '?', Arg: asm.RegArg(asm.EBX)}, {Op: 0, Arg: asm.Arg{Kind: asm.KindSym}}}})},
		{asm.New("jmp", asm.SymOp(asm.SymLabel, "loc_nowhere"))},
		{asm.New("mov", asm.RegOp(asm.EAX), asm.Operand{Offset: true, Mem: []asm.MemTerm{{Arg: asm.RegArg(asm.EBX)}}})},
		{asm.New("lea", asm.RegOp(asm.EAX), asm.Operand{Arg: asm.ImmArg(4), Mem: []asm.MemTerm{{Arg: asm.RegArg(asm.EBX)}}})},
	}
	var out []*prep.Function
	for i, body := range insts {
		// Each body twice over a two-block loop, so every k up to 3 has a
		// tracelet through it.
		g := &cfg.Graph{Name: "bad", Blocks: []*cfg.Block{
			{Index: 0, Insts: body, Succs: []int{1}},
			{Index: 1, Insts: body, Succs: []int{0}},
		}}
		out = append(out, &prep.Function{Name: "bad", Addr: uint32(i), Graph: g})
	}
	return out
}

// FuzzDecodeQueryGob throws arbitrary bytes at the fleet's query wire, the
// one gob a worker still decodes from the network. Whatever a request body
// of at most MaxBodyBytes carries, decodeQueryGob returns an error or a
// function that decomposes at every tracelet size up to 3 and compares
// against itself and against a corpus function, both ways, without a panic.
func FuzzDecodeQueryGob(f *testing.F) {
	var fns []*prep.Function
	_, err := corpus.RunCampaign(corpus.CampaignConfig{Seed: 13, Funcs: 16, FuncsPerExe: 8, Workers: 1},
		func(e corpus.Executable, _ tinyc.OptLevel) error {
			lifted, err := prep.LiftImage(e.Image)
			fns = append(fns, lifted...)
			return err
		})
	if err != nil {
		f.Fatal(err)
	}
	for i, fn := range append(fns[:4:4], malformedQueries()...) {
		_, raw, err := encodeQueryGob(fn)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
		if i < 4 {
			f.Add(raw[:len(raw)/2])
			f.Add(raw[:len(raw)-1])
		}
	}
	other := fns[len(fns)-1]
	const maxBody = 8 << 20 // Config.MaxBodyBytes's default

	f.Fuzz(func(t *testing.T, raw []byte) {
		wire := base64.StdEncoding.EncodeToString(raw)
		if int64(len(wire)) > maxBody {
			t.Skip("larger than a request body")
		}
		fn, err := decodeQueryGob(wire)
		if err != nil {
			return
		}
		for k := 1; k <= 3; k++ {
			opts := core.DefaultOptions()
			opts.K = k
			m := core.NewMatcher(opts)
			q, c := core.Decompose(fn, k), core.Decompose(other, k)
			m.Compare(q, q)
			m.Compare(q, c)
			m.Compare(c, q)
		}
	})
}
