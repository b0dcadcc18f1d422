package asm

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

func regs(rs ...Reg) map[Reg]bool {
	m := make(map[Reg]bool, len(rs))
	for _, r := range rs {
		m[r] = true
	}
	return m
}

func sameRegSet(a, b map[Reg]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for r := range a {
		if !b[r] {
			return false
		}
	}
	return true
}

// TestPaperSection3Examples checks the exact read/write/args table from the
// paper's Section 3.
func TestPaperSection3Examples(t *testing.T) {
	tests := []struct {
		src   string
		nArgs int
		read  map[Reg]bool
		write map[Reg]bool
	}{
		{"add eax, ebx", 2, regs(EAX, EBX), regs(EAX)},
		{"mov eax, [ebp+4]", 3, regs(EBP), regs(EAX)},
		{"mov ebx, [esp+8]", 3, regs(ESP), regs(EBX)},
		{"mov eax, [ebp+ecx]", 3, regs(EBP, ECX), regs(EAX)},
	}
	for _, tc := range tests {
		in := MustParse(tc.src)
		if got := len(in.Args()); got != tc.nArgs {
			t.Errorf("%s: got %d args, want %d", tc.src, got, tc.nArgs)
		}
		if got := in.Read(); !sameRegSet(got, tc.read) {
			t.Errorf("%s: Read() = %v, want %v", tc.src, got, tc.read)
		}
		if got := in.Write(); !sameRegSet(got, tc.write) {
			t.Errorf("%s: Write() = %v, want %v", tc.src, got, tc.write)
		}
	}
}

// TestPaperSameKind checks the SameKind examples from Section 3:
// SameKind(inst2, inst3) = true, SameKind(inst3, inst4) = false.
func TestPaperSameKind(t *testing.T) {
	inst2 := MustParse("mov eax, [ebp+4]")
	inst3 := MustParse("mov ebx, [esp+8]")
	inst4 := MustParse("mov eax, [ebp+ecx]")
	if !SameKind(inst2, inst3) {
		t.Errorf("SameKind(inst2, inst3) = false, want true")
	}
	if SameKind(inst3, inst4) {
		t.Errorf("SameKind(inst3, inst4) = true, want false")
	}
	if !SameKind(inst2, inst2) {
		t.Errorf("SameKind(inst2, inst2) = false, want true")
	}
}

func TestSameKindMnemonicAndArity(t *testing.T) {
	a := MustParse("add eax, ebx")
	b := MustParse("sub eax, ebx")
	if SameKind(a, b) {
		t.Error("different mnemonics must not be SameKind")
	}
	c := MustParse("push eax")
	d := MustParse("add eax, ebx")
	if SameKind(c, d) {
		t.Error("different arity must not be SameKind")
	}
	// Register vs immediate operand.
	e := MustParse("mov eax, ebx")
	f := MustParse("mov eax, 5")
	if SameKind(e, f) {
		t.Error("reg vs imm operands must not be SameKind")
	}
	// Symbolic locals are the same type as each other.
	g := MustParse("mov eax, [ebp+var_4]")
	h := MustParse("mov ecx, [esp+var_8]")
	if !SameKind(g, h) {
		t.Error("two local-symbol memory operands should be SameKind")
	}
	// ...but not the same type as an immediate offset.
	i := MustParse("mov eax, [ebp+8]")
	if SameKind(g, i) {
		t.Error("local symbol vs immediate offset must not be SameKind")
	}
}

func TestParseRoundTrip(t *testing.T) {
	lines := []string{
		"push ebp",
		"mov ebp, esp",
		"sub esp, 18h",
		"mov [ebp+var_4], esi",
		"mov eax, [ebp+arg_8]",
		"mov ebx, offset unk_404000",
		"mov [esp+18h+var_14], ebx",
		"call _fopen",
		"cmp esi, 1",
		"mov eax, 1",
		"retn",
		"imul eax, ebx, 4",
		"lea eax, [ebx+ecx*4+10h]",
		"mov eax, [ebp-0Ch]",
		"xor esi, esi",
	}
	for _, src := range lines {
		in, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		if got := in.String(); got != src {
			t.Errorf("round trip: %q -> %q", src, got)
		}
		again, err := Parse(in.String())
		if err != nil {
			t.Fatalf("reparse %q: %v", in.String(), err)
		}
		if !in.Equal(again) {
			t.Errorf("reparse of %q not Equal", src)
		}
	}
}

func TestParseJumpAndCallClassification(t *testing.T) {
	j := MustParse("jz short loc_401358")
	if !j.IsJump() || !j.IsCondJump() {
		t.Fatal("jz should be a conditional jump")
	}
	if a := j.Ops[0].Arg; a.Cls != SymLabel {
		t.Errorf("jump target class = %v, want label", a.Cls)
	}
	c := MustParse("call _printf")
	if !c.IsCall() {
		t.Fatal("call should be a call")
	}
	if a := c.Ops[0].Arg; a.Cls != SymFunc {
		t.Errorf("call target class = %v, want func", a.Cls)
	}
	u := MustParse("jmp loc_40132F")
	if !u.IsJump() || u.IsCondJump() {
		t.Error("jmp should be an unconditional jump")
	}
}

func TestControlFlowPredicates(t *testing.T) {
	for _, tc := range []struct {
		src        string
		terminates bool
		cf         bool
	}{
		{"jmp loc_1", true, true},
		{"jne loc_1", true, true},
		{"retn", true, true},
		{"call _f", false, true},
		{"mov eax, ebx", false, false},
		{"push ebp", false, false},
	} {
		in := MustParse(tc.src)
		if got := in.Terminates(); got != tc.terminates {
			t.Errorf("%s: Terminates() = %v, want %v", tc.src, got, tc.terminates)
		}
		if got := in.IsControlFlow(); got != tc.cf {
			t.Errorf("%s: IsControlFlow() = %v, want %v", tc.src, got, tc.cf)
		}
	}
}

func TestImplicitRegisters(t *testing.T) {
	push := MustParse("push eax")
	if r := push.Read(); !r[ESP] || !r[EAX] {
		t.Errorf("push eax should read esp and eax, got %v", r)
	}
	if w := push.Write(); !w[ESP] || w[EAX] {
		t.Errorf("push eax should write only esp, got %v", w)
	}
	cdq := MustParse("cdq")
	if r := cdq.Read(); !r[EAX] {
		t.Errorf("cdq should read eax, got %v", r)
	}
	if w := cdq.Write(); !w[EDX] {
		t.Errorf("cdq should write edx, got %v", w)
	}
	idiv := MustParse("idiv ebx")
	if r := idiv.Read(); !r[EAX] || !r[EDX] || !r[EBX] {
		t.Errorf("idiv ebx read set incomplete: %v", r)
	}
	if w := idiv.Write(); !w[EAX] || !w[EDX] {
		t.Errorf("idiv ebx write set incomplete: %v", w)
	}
}

func TestLeaReadsAddressOnly(t *testing.T) {
	lea := MustParse("lea eax, [ebx+ecx*4]")
	r := lea.Read()
	if !r[EBX] || !r[ECX] {
		t.Errorf("lea should read address components, got %v", r)
	}
	w := lea.Write()
	if !w[EAX] || len(w) != 1 {
		t.Errorf("lea should write exactly eax, got %v", w)
	}
}

func TestImulForms(t *testing.T) {
	one := MustParse("imul ebx")
	if r := one.Read(); !r[EBX] || !r[EAX] {
		t.Errorf("1-op imul read set: %v", r)
	}
	two := MustParse("imul eax, ebx")
	if r := two.Read(); !r[EAX] || !r[EBX] {
		t.Errorf("2-op imul read set: %v", r)
	}
	if w := two.Write(); !w[EAX] || len(w) != 1 {
		t.Errorf("2-op imul write set: %v", w)
	}
	three := MustParse("imul eax, ebx, 4")
	if r := three.Read(); r[EAX] || !r[EBX] {
		t.Errorf("3-op imul should read ebx only: %v", r)
	}
	if w := three.Write(); !w[EAX] {
		t.Errorf("3-op imul write set: %v", w)
	}
}

func TestParseListing(t *testing.T) {
	src := `
		; prologue
		push ebp
		mov ebp, esp
	loc_10:
		cmp eax, 1
		jz loc_10
		retn
	`
	insts, labels, err := ParseListing(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(insts) != 5 {
		t.Fatalf("got %d instructions, want 5", len(insts))
	}
	if labels["loc_10"] != 2 {
		t.Errorf("label loc_10 at %d, want 2", labels["loc_10"])
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{
		"",
		"mov eax, [ebx",
		"mov eax, ebx, ecx, edx",
		"mov eax, ]",
		"mov eax, [+]",
		"mov eax, 12junk",
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q): expected error", src)
		}
	}
}

func TestImmFormatting(t *testing.T) {
	for _, tc := range []struct {
		v    int64
		want string
	}{
		{0, "0"}, {5, "5"}, {9, "9"}, {10, "0Ah"}, {16, "10h"},
		{0x18, "18h"}, {0xA0, "0A0h"}, {-4, "-4"}, {-0x18, "-18h"},
	} {
		if got := formatImm(tc.v); got != tc.want {
			t.Errorf("formatImm(%d) = %q, want %q", tc.v, got, tc.want)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	in := MustParse("mov [ebp+var_4], esi")
	c := in.Clone()
	c.Ops[0].Mem[1].Arg = SymArg(SymLocal, "var_8")
	if in.Ops[0].Mem[1].Arg.Sym != "var_4" {
		t.Error("Clone shares memory with original")
	}
}

func TestSymClassification(t *testing.T) {
	for _, tc := range []struct {
		name string
		want SymClass
	}{
		{"var_4", SymLocal},
		{"arg_0", SymLocal},
		{"loc_401358", SymLabel},
		{"_printf", SymFunc},
		{"sub_4012F0", SymFunc},
		{"aCmdDDone", SymData},
		{"unk_404000", SymData},
	} {
		if got := classifySym(tc.name); got.Cls != tc.want {
			t.Errorf("classifySym(%q) = %v, want %v", tc.name, got.Cls, tc.want)
		}
	}
}

func TestRegisterHelpers(t *testing.T) {
	if LookupReg("EAX") != EAX {
		t.Error("LookupReg should be case-insensitive")
	}
	if LookupReg("bogus") != RegNone {
		t.Error("LookupReg of unknown name should be RegNone")
	}
	for i, r := range GP32() {
		if !r.Is32() {
			t.Errorf("%v should be 32-bit", r)
		}
		if r.Num32() != i {
			t.Errorf("%v Num32 = %d, want %d", r, r.Num32(), i)
		}
		if Reg32(i) != r {
			t.Errorf("Reg32(%d) = %v, want %v", i, Reg32(i), r)
		}
	}
	if RAX.Is32() || AL.Is32() {
		t.Error("rax/al are not 32-bit GPRs")
	}
}

func TestSetArg(t *testing.T) {
	in := MustParse("mov [ebp+var_4], esi")
	in.SetArg(2, RegArg(EDI))
	if got := in.String(); got != "mov [ebp+var_4], edi" {
		t.Errorf("SetArg direct: %q", got)
	}
	in.SetArg(1, SymArg(SymLocal, "var_8"))
	if got := in.String(); got != "mov [ebp+var_8], edi" {
		t.Errorf("SetArg mem term: %q", got)
	}
	in.SetArg(0, RegArg(ESP))
	if got := in.String(); got != "mov [esp+var_8], edi" {
		t.Errorf("SetArg mem base: %q", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("SetArg out of range should panic")
		}
	}()
	in.SetArg(3, RegArg(EAX))
}

func TestOffsetOperandShape(t *testing.T) {
	a := MustParse("push offset aHello")
	b := MustParse("push offset aWorld")
	c := MustParse("push aHello") // direct sym without offset prefix
	if !SameKind(a, b) {
		t.Error("two offset operands should be SameKind")
	}
	if SameKind(a, c) {
		t.Error("offset vs plain symbol operands must differ in shape")
	}
	if got := a.String(); got != "push offset aHello" {
		t.Errorf("offset printing: %q", got)
	}
}

func TestSizeQualifiersIgnored(t *testing.T) {
	a := MustParse("mov dword ptr [ebp-4], eax")
	b := MustParse("mov [ebp-4], eax")
	if !a.Equal(b) {
		t.Errorf("size qualifier should be stripped: %q vs %q", a, b)
	}
}

// TestLookupTable: the slot table behind lookup finds every mnemonic of
// the semantic table with its own entry, and nothing else — not the empty
// string, not a name that shares a known one's first bytes or slot.
func TestLookupTable(t *testing.T) {
	for m, want := range mnemonics {
		got, ok := lookup(m)
		if !ok || !reflect.DeepEqual(*got, want) {
			t.Errorf("lookup(%q) = %+v, %v; want %+v", m, *got, ok, want)
		}
		for _, other := range []string{m + "x", m[:len(m)-1] + "\x00", strings.ToUpper(m)} {
			if _, known := mnemonics[other]; known {
				continue
			}
			if info, ok := lookup(other); ok || !reflect.DeepEqual(*info, mnemonicInfo{}) {
				t.Errorf("lookup(%q) found an entry", other)
			}
		}
	}
	// A name for every slot: whatever lands on an occupied one is refused
	// by the comparison.
	for i := 0; i < 4*len(slotOf); i++ {
		name := fmt.Sprintf("q%d", i)
		if _, ok := lookup(name); ok {
			t.Errorf("lookup(%q) found an entry", name)
		}
	}
	if _, ok := lookup(""); ok || KnownMnemonic("") {
		t.Error("the empty mnemonic is known")
	}
	if !KnownMnemonic("cmovnz") || KnownMnemonic("cmovnzz") {
		t.Error("KnownMnemonic disagrees with the table")
	}
}
