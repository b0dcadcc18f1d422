package asm

import (
	"errors"
	"reflect"
	"testing"
)

// packVocab covers the operand shapes and the mnemonic table's corners:
// implicit registers, read-modify-write, lea's address-only operand, the
// three imul forms, an unknown mnemonic, offset operands, scaled indices,
// and symbols of equal name and different class.
func packVocab() []Inst {
	v := []Inst{
		MustParse("mov eax, ebx"), MustParse("mov [ebp+var_4], esi"), MustParse("mov eax, [ebx+ecx*4+8]"),
		MustParse("mov eax, [ebx+ecx*4-8]"), MustParse("add eax, 1"), MustParse("add eax, ebx"),
		MustParse("xchg eax, ebx"), MustParse("lea eax, [ebx+4]"), MustParse("push ebp"), MustParse("push 1"),
		MustParse("push offset aMsg"), MustParse("push aMsg"), MustParse("pop ebp"), MustParse("call _printf"),
		MustParse("imul eax"), MustParse("imul eax, ebx"), MustParse("imul eax, ebx, 4"), MustParse("idiv ecx"),
		MustParse("cdq"), MustParse("leave"), MustParse("retn"), MustParse("nop"), MustParse("cmovz eax, ebx"),
		MustParse("setz al"), MustParse("movzx eax, al"),
		New("frobnicate", RegOp(EAX), ImmOp(3)),
		New("call", SymOp(SymFunc, "x")), New("call", SymOp(SymData, "x")),
		// What only a malformed gob can carry: a register past the table, a
		// kind past the enum, fields the kind does not select.
		New("mov", RegOp(Reg(200)), RegOp(Reg(77))),
		New("mov", DirectOp(Arg{Kind: ArgKind(9), Cls: SymLocal, Sym: "q"}), RegOp(EAX)),
		New("mov", DirectOp(Arg{Kind: KindReg, Reg: EAX, Imm: 7}), RegOp(EAX)),
	}
	return v
}

// TestPackMatchesInstructions: the packed form must say about every
// instruction, and every pair, exactly what the instruction methods say.
func TestPackMatchesInstructions(t *testing.T) {
	v := packVocab()
	pk := Pack(v[:10], nil, v[10:]) // packs the concatenation
	if pk.Len() != len(v) || len(pk.Off) != len(v)+1 {
		t.Fatalf("packed %d instructions, want %d", pk.Len(), len(v))
	}
	for i, in := range v {
		args := pk.Args[pk.Off[i]:pk.Off[i+1]]
		if len(args) != in.NumArgs() {
			t.Fatalf("%q: %d packed args, want %d", in, len(args), in.NumArgs())
		}
		for k, a := range in.Args() {
			if got := args[k].Arg(pk.Names); got != a {
				t.Errorf("%q arg %d unpacks to %+v, want %+v", in, k, got, a)
			}
		}
		var rd, wr uint64
		for r := range in.Read() {
			rd |= RegBit(r)
		}
		for r := range in.Write() {
			wr |= RegBit(r)
		}
		if pk.Read[i] != rd || pk.Write[i] != wr {
			t.Errorf("%q: masks read %#x write %#x, want %#x %#x", in, pk.Read[i], pk.Write[i], rd, wr)
		}
		for j, other := range v {
			if got, want := pk.SameKind(i, pk, j), SameKind(in, other); got != want {
				t.Errorf("SameKind(%q, %q) = %v on the packed form, want %v", in, other, got, want)
			}
			oargs := pk.Args[pk.Off[j]:pk.Off[j+1]]
			for k, a := range in.Args() {
				if k < len(oargs) {
					if got, want := args[k].Equal(pk.Names, &oargs[k], pk.Names), a == other.Args()[k]; got != want {
						t.Errorf("%q arg %d vs %q: packed equality %v, want %v", in, k, other, got, want)
					}
				}
			}
		}
	}
}

// TestRegBits: every register the package defines has a bit of its own.
func TestRegBits(t *testing.T) {
	seen := make(map[uint64]Reg)
	for r := RegNone; r < numRegs; r++ {
		if prev, dup := seen[RegBit(r)]; dup {
			t.Errorf("%v and %v share a mask bit", prev, r)
		}
		seen[RegBit(r)] = r
		if r.Valid() != (LookupReg(r.String()) == r && r != RegNone) {
			t.Errorf("%v: Valid() = %v", r, r.Valid())
		}
	}
	if Reg(200).Valid() || RegBit(Reg(200)) == 0 {
		t.Error("a register past the table must be invalid and still have a bit")
	}
}

// TestPArgEqualIsFieldwise builds the arguments on which an Equal that
// mixes its fields up goes wrong — a tag difference hidden inside the bits
// of the name's hash, an immediate that spells a symbol's hash — and
// requires inequality in both directions.
func TestPArgEqualIsFieldwise(t *testing.T) {
	var names Names
	unequal := func(what string, a, b PArg) {
		t.Helper()
		if a.Equal(&names, &b, &names) || b.Equal(&names, &a, &names) {
			t.Errorf("%s: %+v and %+v compare equal", what, a, b)
		}
	}
	sym := PackArg(SymArg(SymFunc, "x"), &names)
	if self := sym; !sym.Equal(&names, &self, &names) {
		t.Fatalf("%+v is not equal to itself", sym)
	}
	// The same name at another index of another table is the same argument.
	var other Names
	other.Add("pad")
	if twin := PackArg(SymArg(SymFunc, "x"), &other); twin.Sym == sym.Sym || !sym.Equal(&names, &twin, &other) {
		t.Fatalf("%+v and %+v, the same symbol in two tables, compare unequal", sym, twin)
	}
	for bit := uint32(1); bit != 0; bit <<= 1 {
		if sym.SymH&uint64(bit) != 0 {
			other := sym
			other.Tag ^= bit
			unequal("same name, tag differing in a bit of the name's hash", sym, other)
		}
	}
	immTag, symTag := PackArg(ImmArg(0), nil).Tag, PackArg(SymArg(SymData, "q"), &names).Tag
	q, r := names.Add("q"), names.Add("r")
	named := PArg{Tag: symTag, SymH: uint64(immTag^symTag) | 0xabc<<32, Sym: q}
	unequal("immediate spelling a symbol's hash", PArg{Tag: immTag, Imm: int64(named.SymH)}, named)
	unequal("immediate spelling the hash less the tag difference",
		PArg{Tag: immTag, Imm: int64(named.SymH &^ uint64(immTag^symTag))}, named)
	unequal("same tag and hash, immediates differing", PArg{Tag: symTag, Imm: 1, SymH: named.SymH, Sym: q}, named)
	unequal("same hash, names differing", PArg{Tag: symTag, SymH: named.SymH, Sym: r}, named)
}

// TestRepackReuses: repacking into used memory — after a longer sequence
// and after a shorter one — gives what packing afresh gives, minus the
// masks.
func TestRepackReuses(t *testing.T) {
	v := packVocab()
	var p Packed
	for _, seq := range [][]Inst{v[:8], v, v[20:], nil, v[3:12]} {
		p.Repack(seq[:len(seq)/2], seq[len(seq)/2:])
		want := Pack(seq)
		if p.Read != nil || p.Write != nil {
			t.Fatal("Repack left register masks behind")
		}
		if p.Len() != want.Len() || len(p.Args) != len(want.Args) {
			t.Fatalf("repacked %d instructions with %d arguments, want %d with %d", p.Len(), len(p.Args), want.Len(), len(want.Args))
		}
		for i := range seq {
			if !p.SameKind(i, want, i) || p.KindH[i] != want.KindH[i] || p.Off[i+1] != want.Off[i+1] {
				t.Errorf("%q: repacked kind or argument range differs", seq[i])
			}
		}
		for k := range p.Args {
			if !p.Args[k].Equal(p.Names, &want.Args[k], want.Names) {
				t.Errorf("argument %d: repacked %+v, want %+v", k, p.Args[k], want.Args[k])
			}
		}
	}
}

// TestPackEachEqualsPack: every element is the packed form Pack gives the
// sequence alone — empty sequences included — and is capped at its own
// columns, so appending to one cannot reach into its neighbour's.
func TestPackEachEqualsPack(t *testing.T) {
	v := packVocab()
	seqs := [][]Inst{v[:8], nil, v, v[20:], {}, v[3:12]}
	pks := PackEach(seqs)
	if len(pks) != len(seqs) {
		t.Fatalf("packed %d sequences, want %d", len(pks), len(seqs))
	}
	for i, seq := range seqs {
		want := Pack(seq)
		if !pks[i].Same(want) {
			t.Errorf("sequence %d: PackEach gives %+v, Pack %+v", i, pks[i], *want)
		}
		prof := want.KindProfile(make([]KindCount, want.Len()))
		if pks[i].Hash != want.ContentHash() || !reflect.DeepEqual(pks[i].Prof, prof) || pks[i].Succs != nil {
			t.Errorf("sequence %d: PackEach gives hash %#x profile %v, Pack's are %#x %v", i, pks[i].Hash, pks[i].Prof, want.ContentHash(), prof)
		}
		p := &pks[i]
		if cap(p.KindH) != len(p.KindH) || cap(p.KOff) != len(p.KOff) || cap(p.Off) != len(p.Off) ||
			cap(p.Canon) != len(p.Canon) || cap(p.Args) != len(p.Args) ||
			cap(p.Read) != len(p.Read) || cap(p.Write) != len(p.Write) || cap(p.Prof) != len(p.Prof) {
			t.Errorf("sequence %d: a column's capacity runs past its length", i)
		}
	}
	if got := PackEach(nil); len(got) != 0 {
		t.Errorf("PackEach(nil) packed %d sequences", len(got))
	}
}

// TestPackedCheck: what Pack builds passes Check — the whole vocabulary,
// malformed arguments included, since Check is about the columns agreeing
// with one another — and a column that disagrees with another does not.
func TestPackedCheck(t *testing.T) {
	if err := Pack(packVocab()).Check(); err != nil {
		t.Fatalf("the packed vocabulary fails its own check: %v", err)
	}
	for _, b := range PackEach([][]Inst{packVocab(), nil, packVocab()[:3]}) {
		if err := b.Check(); err != nil {
			t.Fatalf("a block of PackEach fails its own check: %v", err)
		}
	}
	// mov eax, [ebp+var_4]: arguments eax, ebp, var_4; push offset aMsg: aMsg.
	seq := []Inst{MustParse("mov eax, [ebp+var_4]"), MustParse("push offset aMsg")}
	for name, mutate := range map[string]func(p *Packed){
		"missing mask":         func(p *Packed) { p.Read = p.Read[1:] },
		"offsets reordered":    func(p *Packed) { p.Off[1] = p.Off[2] + 1 },
		"argument moved over":  func(p *Packed) { p.Off[1]-- },
		"kind offsets short":   func(p *Packed) { p.KOff[2]-- },
		"immediate for a base": func(p *Packed) { p.Args[1].Tag = uint32(KindImm) },
		"class changed":        func(p *Packed) { p.Args[2].Tag ^= 1 << 16 },
		"name out of table":    func(p *Packed) { p.Args[3].Sym = 99 },
		"operand count gone":   func(p *Packed) { p.Canon[0] = 0x80 },
		"operand shape gone":   func(p *Packed) { p.Canon[1] = 9 },
	} {
		p := Pack(seq)
		if err := p.Check(); err != nil {
			t.Fatal(err)
		}
		mutate(p)
		if p.Check() == nil {
			t.Errorf("%s: Check passed", name)
		}
	}
}

// TestUnpackInvertsPackInst: every instruction of the vocabulary comes back
// from its packed form field for field, fields its kinds do not select
// included, whether its instructions are unpacked one by one or all into
// the same arrays; and an encoding cut short or handed the wrong arguments
// is refused, as CheckInst refuses it.
func TestUnpackInvertsPackInst(t *testing.T) {
	v := append(packVocab(), MustParse("jmp loc_401358"), MustParse("jmp [ebx+ecx*4]"), New("jmp"))
	var names Names
	u := Unpacker{Sym: func(i uint32) string { return string(names.At(i)) }}
	for _, in := range v {
		canon, args := PackInst(nil, nil, &in, &names)
		got, ok := u.Inst(string(canon), args)
		if !ok || !reflect.DeepEqual(got, in) {
			t.Errorf("%q unpacks to %#v, %v", in, got, ok)
		}
		if err := CheckInst(canon, args, &names); err != nil {
			t.Errorf("%q: CheckInst refuses its own packing: %v", in, err)
		}
		if len(canon) > 1 {
			if _, ok := u.Inst(string(canon[:1]), args); ok && len(args) > 0 {
				t.Errorf("%q: an encoding cut short unpacks", in)
			}
		}
		if len(args) > 0 {
			if _, ok := u.Inst(string(canon), args[1:]); ok {
				t.Errorf("%q: unpacks with an argument missing", in)
			}
		}
		// The operand count in a longer form than appendKind writes.
		long := append([]byte{canon[0] | 0x80, 0}, canon[1:]...)
		if _, ok := u.Inst(string(long), args); ok {
			t.Errorf("%q: unpacks with a non-minimal operand count", in)
		}
		if CheckInst(long, args, &names) == nil {
			t.Errorf("%q: CheckInst accepts a non-minimal operand count", in)
		}
	}
}

// TestPackable: the two operand shapes the packed form drops are refused
// with a *LossyOperandError naming the operand; what the parser produces
// is not.
func TestPackable(t *testing.T) {
	for _, in := range packVocab() {
		if err := in.Packable(); err != nil {
			t.Errorf("%q: %v", in, err)
		}
	}
	offsetMem := MemReg(EBX)
	offsetMem.Offset = true
	argMem := MemReg(EBX)
	argMem.Arg = ImmArg(4)
	for _, op := range []Operand{offsetMem, argMem} {
		in := New("mov", RegOp(EAX), op)
		var lossy *LossyOperandError
		if err := in.Packable(); !errors.As(err, &lossy) || lossy.Operand != 1 {
			t.Errorf("%+v: Packable() = %v, want a LossyOperandError for operand 1", op, err)
		}
	}
}
