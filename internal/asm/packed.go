package asm

import "encoding/binary"

// This file implements the packed form of an instruction sequence: the
// flat, pointer-light layout the compare core (alignment kernel, rewrite
// engine) works on instead of walking []Inst. Packing is a pure function
// of the instructions — no table outlives the call — so instructions that
// arrive from untrusted input cannot grow any process state, and equality
// on the packed form is exact: hashes only decide when the exact
// comparison is worth making.

// PArg is the packed form of one Arg. Two PArgs are Equal exactly when
// the Args they were packed from are ==: the kind, register and symbol
// class are kept by value in Tag, the immediate by value in Imm, and the
// symbol name as the string itself behind its hash.
type PArg struct {
	Tag  uint32 // Kind | Reg<<8 | Cls<<16
	Imm  int64
	SymH uint64 // hash of Sym; zero exactly when Sym is empty
	Sym  string
}

// PackArg packs one argument.
func PackArg(a Arg) PArg {
	var p PArg
	p.set(&a)
	return p
}

// set makes p the packed form of a.
func (p *PArg) set(a *Arg) {
	p.Tag, p.Imm = uint32(a.Kind)|uint32(a.Reg)<<8|uint32(a.Cls)<<16, a.Imm
	p.SymH, p.Sym = 0, a.Sym
	if a.Sym != "" {
		if p.SymH = fnvBytes(fnvOffset, a.Sym); p.SymH == 0 {
			p.SymH = 1
		}
	}
}

// Arg unpacks the argument; PackArg(a).Arg() == a.
func (a *PArg) Arg() Arg {
	return Arg{Kind: a.Kind(), Reg: a.Reg(), Imm: a.Imm, Sym: a.Sym, Cls: a.Cls()}
}

// Kind returns the argument kind.
func (a *PArg) Kind() ArgKind { return ArgKind(a.Tag) }

// Reg returns the register field.
func (a *PArg) Reg() Reg { return Reg(a.Tag >> 8) }

// Cls returns the symbol-class field.
func (a *PArg) Cls() SymClass { return SymClass(a.Tag >> 16) }

// Equal reports whether the two packed arguments are the same argument.
// The symbol names are compared only after their hashes agree.
func (a *PArg) Equal(b *PArg) bool {
	// The parentheses matter: | and ^ have the same precedence.
	diff := uint64(a.Tag^b.Tag) | uint64(a.Imm^b.Imm) | (a.SymH ^ b.SymH)
	return diff == 0 && (a.SymH == 0 || a.Sym == b.Sym)
}

// Packed is an instruction sequence in packed form. Instruction i has the
// SameKind class (KindH[i], Kind(i)), the arguments
// Args[Off[i]:Off[i+1]] in Args() order, and reads and writes the
// registers whose RegBit is set in Read[i] and Write[i] (Pack fills the
// masks in, Repack does not).
type Packed struct {
	KindH []uint64 // hash of the SameKind class
	Canon []byte   // the classes' canonical encodings, back to back
	KOff  []int32  // class i is encoded in Canon[KOff[i]:KOff[i+1]]
	Off   []int32
	Args  []PArg
	Read  []uint64
	Write []uint64
}

// Len returns the number of instructions.
func (p *Packed) Len() int { return len(p.KindH) }

// Kind returns the canonical encoding of instruction i's SameKind class:
// its mnemonic and operand shapes.
func (p *Packed) Kind(i int) []byte { return p.Canon[p.KOff[i]:p.KOff[i+1]] }

// SameKind reports whether instruction i of p and instruction j of q are
// of the same kind: SameKind of the instructions they were packed from.
// The canonical encodings are compared only after their hashes agree.
func (p *Packed) SameKind(i int, q *Packed, j int) bool {
	return p.KindH[i] == q.KindH[j] && string(p.Kind(i)) == string(q.Kind(j))
}

// RegBit returns the bit of register r in a Packed Read/Write mask. Every
// register the package defines has its own bit; values past them, which
// only malformed input carries, share the last one.
func RegBit(r Reg) uint64 {
	if r > 63 {
		r = 63
	}
	return 1 << r
}

const fnvOffset, fnvPrime = 14695981039346656037, 1099511628211

func fnvBytes[T string | []byte](h uint64, s T) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h
}

// packSize sizes the packed form of the given instruction sequences: the
// instructions, the arguments exactly, and the encodings amply — an
// encoding holds the mnemonic, the operand count, at most two bytes per
// operand and at most three per argument.
func packSize(blocks [][]Inst) (n, na, nc int) {
	for _, b := range blocks {
		n += len(b)
		for i := range b {
			args := b[i].NumArgs()
			na += args
			nc += len(b[i].Mnemonic) + 1 + 2*len(b[i].Ops) + 3*args
		}
	}
	return n, na, nc
}

// Pack packs the concatenation of the given instruction sequences.
func Pack(blocks ...[]Inst) *Packed {
	n, na, nc := packSize(blocks)
	p := &Packed{Args: make([]PArg, 0, na), Canon: make([]byte, 0, nc)}
	p.Repack(blocks...)
	masks := make([]uint64, 2*n)
	p.Read, p.Write = masks[:n:n], masks[n:]
	i := 0
	for _, b := range blocks {
		for bi := range b {
			p.Read[i], p.Write[i] = b[bi].regMasks()
			i++
		}
	}
	return p
}

// PackEach packs every sequence on its own — element i equals *Pack(seqs[i])
// — with each column of all of them carved from one array, so packing the
// blocks of a function costs the same few allocations however many blocks
// it has. The packed forms share that memory and live and die together.
func PackEach(seqs [][]Inst) []Packed {
	n, na, nc := packSize(seqs)
	out := make([]Packed, len(seqs))
	kindH := make([]uint64, n)
	offs := make([]int32, 2*(n+len(seqs)))
	masks := make([]uint64, 2*n)
	canon, args := make([]byte, 0, nc), make([]PArg, 0, na)
	for i, seq := range seqs {
		p, n := &out[i], len(seq)
		// Repack fills the memory p holds; canon and args offer all that is
		// left of theirs and are cut behind what it used.
		p.KindH, kindH = kindH[:0:n], kindH[n:]
		p.KOff, p.Off, offs = offs[:0:n+1], offs[n+1:n+1:2*(n+1)], offs[2*(n+1):]
		p.Canon, p.Args = canon, args
		p.Repack(seq)
		p.Canon, canon = p.Canon[:len(p.Canon):len(p.Canon)], p.Canon[len(p.Canon):]
		p.Args, args = p.Args[:len(p.Args):len(p.Args)], p.Args[len(p.Args):]
		p.Read, p.Write, masks = masks[:n:n], masks[n:2*n:2*n], masks[2*n:]
		for j := range seq {
			p.Read[j], p.Write[j] = seq[j].regMasks()
		}
	}
	return out
}

// Repack makes p the packed form of the concatenation of the given
// instruction sequences without the register masks — Read and Write are
// left nil — and in the memory p already holds, grown where it is not
// enough. It is for callers that pack afresh on every call and only align:
// the alignment kernel never looks at the masks, and they cost a table
// lookup per instruction.
func (p *Packed) Repack(blocks ...[]Inst) {
	n := 0
	for _, b := range blocks {
		n += len(b)
	}
	if cap(p.Off) < n+1 {
		p.KindH = make([]uint64, n)
		offs := make([]int32, 2*(n+1))
		p.KOff, p.Off = offs[:n+1:n+1], offs[n+1:]
	}
	kindH, kOff, off := p.KindH[:n], p.KOff[:n+1], p.Off[:n+1]
	canon, args := p.Canon[:0], p.Args[:0]
	kOff[0], off[0] = 0, 0
	i := 0
	for _, b := range blocks {
		for bi := range b {
			in := &b[bi]
			canon = appendKind(canon, in)
			kindH[i] = fnvBytes(fnvOffset, canon[kOff[i]:])
			for oi := range in.Ops {
				op := &in.Ops[oi]
				if !op.IsMem() {
					args = append(args, PArg{})
					args[len(args)-1].set(&op.Arg)
					continue
				}
				for ti := range op.Mem {
					args = append(args, PArg{})
					args[len(args)-1].set(&op.Mem[ti].Arg)
				}
			}
			i++
			kOff[i], off[i] = int32(len(canon)), int32(len(args))
		}
	}
	*p = Packed{KindH: kindH, Canon: canon, KOff: kOff, Off: off, Args: args}
}

// appendKind appends the canonical encoding of in's SameKind class: the
// operand count, then per operand its shape — direct (with the offset
// flag) or memory (with the term count and each term's operator) and the
// type of every argument, a symbol's class included — and last the
// mnemonic. The shape part is self-delimiting, so two instructions encode
// alike exactly when SameKind holds for them.
func appendKind(b []byte, in *Inst) []byte {
	b = binary.AppendUvarint(b, uint64(len(in.Ops)))
	for oi := range in.Ops {
		op := &in.Ops[oi]
		if !op.IsMem() {
			if op.Offset {
				b = append(b, 1)
			} else {
				b = append(b, 0)
			}
			b = appendType(b, op.Arg)
			continue
		}
		b = binary.AppendUvarint(append(b, 2), uint64(len(op.Mem)))
		for ti := range op.Mem {
			b = appendType(append(b, byte(op.Mem[ti].Op)), op.Mem[ti].Arg)
		}
	}
	return append(b, in.Mnemonic...)
}

func appendType(b []byte, a Arg) []byte {
	b = append(b, byte(a.Kind))
	if a.Kind == KindSym {
		b = append(b, byte(a.Cls))
	}
	return b
}
