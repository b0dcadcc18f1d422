package rewrite

import (
	"maps"
	"slices"
	"strconv"
	"testing"

	"repro/internal/align"
	"repro/internal/asm"
)

func insts(t *testing.T, lines ...string) []asm.Inst {
	t.Helper()
	out := make([]asm.Inst, len(lines))
	for i, l := range lines {
		in, err := asm.Parse(l)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = in
	}
	return out
}

func texts(blocks [][]asm.Inst) []string {
	var out []string
	for _, b := range blocks {
		for _, in := range b {
			out = append(out, in.String())
		}
	}
	return out
}

// TestPaperFig5FullProcess reproduces the paper's Fig. 5 walkthrough: the
// patched basic block 3' is aligned against the original block 3 and then
// rewritten into a perfect match, with the added instruction (mov esi, 4)
// identified and ignored.
func TestPaperFig5FullProcess(t *testing.T) {
	ref := [][]asm.Inst{insts(t,
		"mov [esp+18h+var_18], offset aDHELLO",
		"mov ecx, 1",
		"mov [esp+18h+var_14], ecx",
		"call _printf",
	)}
	tgt := [][]asm.Inst{insts(t,
		"mov [esp+28h+var_28], offset aDHELLO",
		"mov ebx, 1",
		"mov esi, 4",
		"mov [esp+28h+var_24], ebx",
		"call _printf",
	)}
	al := align.AlignBlocks(ref, tgt)
	if len(al.Pairs) != 4 || len(al.Inserted) != 1 {
		t.Fatalf("unexpected alignment: %+v", al)
	}
	res := Rewrite(ref, tgt, al)
	if res.Conflicts != 0 {
		t.Errorf("conflicts = %d, want 0", res.Conflicts)
	}
	got := texts(res.Blocks)
	want := []string{
		"mov [esp+18h+var_18], offset aDHELLO",
		"mov ecx, 1",
		"mov esi, 4",
		"mov [esp+18h+var_14], ecx",
		"call _printf",
	}
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Errorf("inst %d = %q, want %q", i, got[i], want[i])
		}
	}
	// The rewritten tracelet must now score a perfect containment match.
	before := align.ScoreBlocks(ref, tgt)
	after := align.ScoreBlocks(ref, res.Blocks)
	refIdent := align.IdentityScore(ref[0])
	if after != refIdent {
		t.Errorf("post-rewrite score %d, want identity %d", after, refIdent)
	}
	if after <= before {
		t.Errorf("rewrite did not improve score: before %d, after %d", before, after)
	}
}

// TestRegisterFlowConsistency: two independent values held in the same
// target register at different times may map to different reference
// registers; reads must follow their own last write.
func TestRegisterFlowConsistency(t *testing.T) {
	ref := [][]asm.Inst{insts(t,
		"mov ecx, 1",
		"push ecx",
		"mov edx, 2",
		"push edx",
	)}
	// The target reuses eax for both values.
	tgt := [][]asm.Inst{insts(t,
		"mov eax, 1",
		"push eax",
		"mov eax, 2",
		"push eax",
	)}
	al := align.AlignBlocks(ref, tgt)
	res := Rewrite(ref, tgt, al)
	got := texts(res.Blocks)
	want := []string{"mov ecx, 1", "push ecx", "mov edx, 2", "push edx"}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("inst %d = %q, want %q", i, got[i], want[i])
		}
	}
	if res.Conflicts != 0 {
		t.Errorf("conflicts = %d, want 0", res.Conflicts)
	}
	if got := align.ScoreBlocks(ref, res.Blocks); got != align.IdentityScore(ref[0]) {
		t.Errorf("post-rewrite score %d, want perfect", got)
	}
}

// TestMemorySymbolConsistency: a memory symbol swapped once must be
// swapped the same way throughout the tracelet.
func TestMemorySymbolConsistency(t *testing.T) {
	ref := [][]asm.Inst{insts(t,
		"mov eax, [ebp+var_4]",
		"add eax, 1",
		"mov [ebp+var_4], eax",
	)}
	tgt := [][]asm.Inst{insts(t,
		"mov eax, [ebp+var_C]",
		"add eax, 1",
		"mov [ebp+var_C], eax",
	)}
	al := align.AlignBlocks(ref, tgt)
	res := Rewrite(ref, tgt, al)
	got := texts(res.Blocks)
	for i, w := range []string{"mov eax, [ebp+var_4]", "add eax, 1", "mov [ebp+var_4], eax"} {
		if got[i] != w {
			t.Errorf("inst %d = %q, want %q", i, got[i], w)
		}
	}
}

// TestDissimilarTraceletsKeepConflicts: rewriting entirely different code
// should produce conflicts (or no improvement), never a fabricated match.
func TestDissimilarTraceletsNoFabrication(t *testing.T) {
	ref := [][]asm.Inst{insts(t,
		"push ebp",
		"mov ebp, esp",
		"call _fopen",
	)}
	tgt := [][]asm.Inst{insts(t,
		"xor eax, eax",
		"inc eax",
		"retn",
	)}
	al := align.AlignBlocks(ref, tgt)
	res := Rewrite(ref, tgt, al)
	after := align.ScoreBlocks(ref, res.Blocks)
	if after > 0 {
		t.Errorf("dissimilar tracelets scored %d after rewrite, want 0", after)
	}
}

// TestCrossValueImmediates: immediates are rewritable within their own
// domain (the paper's Opr-for-Opr rule for the immediate type).
func TestImmediateRewrite(t *testing.T) {
	ref := [][]asm.Inst{insts(t, "sub esp, 18h", "cmp eax, 18h")}
	tgt := [][]asm.Inst{insts(t, "sub esp, 28h", "cmp eax, 28h")}
	al := align.AlignBlocks(ref, tgt)
	res := Rewrite(ref, tgt, al)
	got := texts(res.Blocks)
	if got[0] != "sub esp, 18h" || got[1] != "cmp eax, 18h" {
		t.Errorf("immediate rewrite failed: %v", got)
	}
	// One identity variable for the immediate 0x28, bound twice.
	if res.Conflicts != 0 {
		t.Errorf("conflicts = %d", res.Conflicts)
	}
}

// TestFunctionNameRewrite: unnameable internal call targets (sub_X tokens)
// are matched through the rewrite, the paper's answer to stripped internal
// calls.
func TestFunctionNameRewrite(t *testing.T) {
	ref := [][]asm.Inst{insts(t, "push eax", "call sub_8048100", "add esp, 4")}
	tgt := [][]asm.Inst{insts(t, "push eax", "call sub_80492AB", "add esp, 4")}
	al := align.AlignBlocks(ref, tgt)
	res := Rewrite(ref, tgt, al)
	got := texts(res.Blocks)
	if got[1] != "call sub_8048100" {
		t.Errorf("call rewrite failed: %v", got)
	}
	if got := align.ScoreBlocks(ref, res.Blocks); got != align.IdentityScore(ref[0]) {
		t.Errorf("post-rewrite score %d, want perfect", got)
	}
}

// TestSwapCacheAppliesToInserted: the register swap learned from aligned
// instructions is applied to inserted instructions too.
func TestSwapCacheAppliesToInserted(t *testing.T) {
	ref := [][]asm.Inst{insts(t,
		"mov ecx, 1",
		"push ecx",
	)}
	tgt := [][]asm.Inst{insts(t,
		"mov ebx, 1",
		"add ebx, 5", // inserted; ebx should still become ecx
		"push ebx",
	)}
	al := align.AlignBlocks(ref, tgt)
	res := Rewrite(ref, tgt, al)
	got := texts(res.Blocks)
	if got[1] != "add ecx, 5" {
		t.Errorf("swap cache not applied to inserted inst: %v", got)
	}
}

func TestRewriteLeavesInputUntouched(t *testing.T) {
	ref := [][]asm.Inst{insts(t, "mov ecx, 1")}
	tgt := [][]asm.Inst{insts(t, "mov ebx, 1")}
	al := align.AlignBlocks(ref, tgt)
	_ = Rewrite(ref, tgt, al)
	if tgt[0][0].String() != "mov ebx, 1" {
		t.Error("Rewrite mutated its input")
	}
}

func TestEmptyAlignment(t *testing.T) {
	ref := [][]asm.Inst{insts(t, "push ebp")}
	tgt := [][]asm.Inst{insts(t, "retn")}
	al := align.AlignBlocks(ref, tgt)
	res := Rewrite(ref, tgt, al)
	if len(res.Blocks) != 1 || len(res.Blocks[0]) != 1 {
		t.Fatalf("shape changed: %v", res.Blocks)
	}
	if res.Blocks[0][0].String() != "retn" {
		t.Errorf("unaligned target changed: %v", texts(res.Blocks))
	}
	if res.NumVars != 0 {
		t.Errorf("NumVars = %d, want 0", res.NumVars)
	}
}

// TestLimitationCrossDomain documents the paper's Section 8 limitation:
// "a common optimization is replacing an immediate value with a register
// already containing that value. Our method was designed so that each
// symbol can only be replaced with another in the same domain" — the
// rewrite engine must NOT turn an immediate into a register.
func TestLimitationCrossDomain(t *testing.T) {
	ref := [][]asm.Inst{insts(t,
		"mov ecx, 5",
		"push ecx", // register re-used for the value
	)}
	tgt := [][]asm.Inst{insts(t,
		"mov ecx, 5",
		"push 5", // immediate repeated
	)}
	al := align.AlignBlocks(ref, tgt)
	res := Rewrite(ref, tgt, al)
	// push 5 and push ecx are different kinds; no cross-domain swap.
	if got := res.Blocks[0][1].String(); got != "push 5" {
		t.Errorf("cross-domain substitution happened: %q", got)
	}
	if after := align.ScoreBlocks(ref, res.Blocks); after == align.IdentityScore(ref[0]) {
		t.Error("pair should not reach a perfect match (documented limitation)")
	}
}

// TestLimitationMnemonicSubstitution documents the second Section 8
// limitation: "if a compiler were to select a different mnemonic the
// matching process would suffer" — imul-by-8 vs shl-by-3 cannot align.
func TestLimitationMnemonicSubstitution(t *testing.T) {
	ref := [][]asm.Inst{insts(t, "mov eax, ebx", "imul eax, eax, 8", "push eax")}
	tgt := [][]asm.Inst{insts(t, "mov eax, ebx", "shl eax, 3", "push eax")}
	al := align.AlignBlocks(ref, tgt)
	for _, p := range al.Pairs {
		r, g := ref[0][p.Ref], tgt[0][p.Tgt]
		if r.Mnemonic != g.Mnemonic {
			t.Errorf("aligned across mnemonics: %s ~ %s", r, g)
		}
	}
	res := Rewrite(ref, tgt, al)
	if after := align.ScoreBlocks(ref, res.Blocks); after >= align.IdentityScore(ref[0]) {
		t.Error("mnemonic substitution should not be bridged")
	}
}

// TestRewriteShapePreserved: rewriting never changes instruction counts,
// mnemonics, or operand shapes — only argument identities.
func TestRewriteShapePreserved(t *testing.T) {
	ref := [][]asm.Inst{insts(t,
		"mov esi, [ebp+arg_0]",
		"add esi, 8",
		"push esi",
		"call _printf",
	)}
	tgt := [][]asm.Inst{insts(t,
		"mov ebx, [ebp+arg_4]",
		"add ebx, 0Ch",
		"push ebx",
		"call _fopen",
	)}
	al := align.AlignBlocks(ref, tgt)
	res := Rewrite(ref, tgt, al)
	if len(res.Blocks) != len(tgt) {
		t.Fatal("block count changed")
	}
	for bi := range tgt {
		if len(res.Blocks[bi]) != len(tgt[bi]) {
			t.Fatal("instruction count changed")
		}
		for ii := range tgt[bi] {
			before, after := tgt[bi][ii], res.Blocks[bi][ii]
			if before.Mnemonic != after.Mnemonic {
				t.Errorf("mnemonic changed: %s -> %s", before, after)
			}
			if !asm.SameKind(before, after) {
				t.Errorf("kind changed: %s -> %s", before, after)
			}
		}
	}
}

// TestSameNameAcrossClasses: a listing may use one name for a stack slot,
// a data token and a function. They are three identities, each rewritten
// within its own class, and an immediate is a fourth — whatever the bits
// of the name's hash are. Names are tried until one has a hash covering
// the tag bits in which the classes differ, the case in which an argument
// equality that mixed tag and hash up would merge the identities.
func TestSameNameAcrossClasses(t *testing.T) {
	ref := [][]asm.Inst{insts(t,
		"mov eax, [ebp+var_8]",
		"push offset aMsg",
		"call _printf",
		"add eax, 7",
		"push offset aMsg",
	)}
	want := texts(ref)
	names := []string{"x"}
	for i := 0; len(names) < 2; i++ {
		n := "n" + strconv.Itoa(i)
		if h := asm.SymHash(n); h>>16&3 == 3 {
			names = append(names, n)
		}
	}
	for _, n := range names {
		tgt := [][]asm.Inst{{
			asm.New("mov", asm.RegOp(asm.EAX), asm.MemSym(asm.EBP, asm.SymLocal, n)),
			asm.New("push", asm.OffsetOp(asm.SymData, n)),
			asm.New("call", asm.SymOp(asm.SymFunc, n)),
			asm.New("add", asm.RegOp(asm.EAX), asm.ImmOp(int64(asm.SymHash(n)))),
			asm.New("push", asm.OffsetOp(asm.SymData, n)),
		}}
		al := align.AlignBlocks(ref, tgt)
		got, old := Rewrite(ref, tgt, al), refRewrite(ref, tgt, al)
		if !slices.Equal(texts(got.Blocks), want) || got.Conflicts != 0 || got.NumVars != 7 {
			t.Errorf("name %q: rewrote to %q with %d conflicts over %d variables, want %q, 0, 7",
				n, texts(got.Blocks), got.Conflicts, got.NumVars, want)
		}
		if !slices.Equal(texts(got.Blocks), texts(old.Blocks)) || got.Conflicts != old.Conflicts ||
			got.NumVars != old.NumVars || !maps.Equal(got.VMap, old.VMap) {
			t.Errorf("name %q: engine and reference disagree:\n got  %q %d %d %v\n want %q %d %d %v", n,
				texts(got.Blocks), got.Conflicts, got.NumVars, got.VMap,
				texts(old.Blocks), old.Conflicts, old.NumVars, old.VMap)
		}
	}
}
