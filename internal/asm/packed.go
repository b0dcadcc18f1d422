package asm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// This file implements the packed form of an instruction sequence: the
// flat, pointer-light layout the compare core (alignment kernel, rewrite
// engine) works on instead of walking []Inst. Packing is a pure function
// of the instructions — no table outlives the call — so instructions that
// arrive from untrusted input cannot grow any process state, and equality
// on the packed form is exact: hashes only decide when the exact
// comparison is worth making.

// Names is a table of symbol names: name i is Tab[Off[i]:Off[i+1]]. A
// packed argument names its symbol by index into the table of the block
// it belongs to, which is what keeps the argument itself free of
// pointers. The zero Names is empty and ready for Add.
type Names struct {
	Tab []byte
	Off []uint32 // one more than there are names; Off[0] is 0
}

// Len returns the number of names; a nil table has none.
func (n *Names) Len() int {
	if n == nil {
		return 0
	}
	return max(len(n.Off)-1, 0)
}

// At returns name i. The bytes are the table's and must not be changed.
func (n *Names) At(i uint32) []byte { return n.Tab[n.Off[i]:n.Off[i+1]] }

// Add appends a name and returns its index.
func (n *Names) Add(name string) uint32 {
	n.Tab = append(n.Tab, name...)
	return n.added()
}

// Copy appends name i of from and returns its index.
func (n *Names) Copy(from *Names, i uint32) uint32 {
	n.Tab = append(n.Tab, from.At(i)...)
	return n.added()
}

// added closes the name just appended to Tab.
func (n *Names) added() uint32 {
	if len(n.Off) == 0 {
		n.Off = append(n.Off, 0)
	}
	n.Off = append(n.Off, uint32(len(n.Tab)))
	return uint32(len(n.Off) - 2)
}

// Truncate drops every name from the k-th on and keeps the table's memory.
func (n *Names) Truncate(k int) {
	if k < n.Len() {
		n.Tab, n.Off = n.Tab[:n.Off[k]], n.Off[:k+1]
	}
}

// PArg is the packed form of one Arg: 24 bytes and no pointer, so an
// argument column is one flat array the collector never scans and a file
// can hold as it is. Two PArgs are Equal exactly when the Args they were
// packed from are ==: the kind, register and symbol class are kept by
// value in Tag, the immediate by value in Imm, and the symbol name behind
// its hash as an index into a name table.
type PArg struct {
	Tag  uint32 // Kind | Reg<<8 | Cls<<16
	Sym  uint32 // index of the symbol's name in the table; zero without one
	Imm  int64
	SymH uint64 // hash of the symbol's name; zero exactly when it is empty
}

// PackArg packs one argument, adding its symbol name, if it has one, to
// names.
func PackArg(a Arg, names *Names) PArg {
	var p PArg
	p.set(&a, names)
	return p
}

// SymHash returns the SymH of a symbol name.
func SymHash(name string) uint64 {
	if name == "" {
		return 0
	}
	if h := fnvBytes(fnvOffset, name); h != 0 {
		return h
	}
	return 1
}

// set makes p the packed form of a.
func (p *PArg) set(a *Arg, names *Names) {
	*p = PArg{Tag: uint32(a.Kind) | uint32(a.Reg)<<8 | uint32(a.Cls)<<16, Imm: a.Imm}
	if a.Sym != "" {
		p.Sym, p.SymH = names.Add(a.Sym), SymHash(a.Sym)
	}
}

// Arg unpacks the argument, whose symbol name is in names;
// PackArg(a, names).Arg(names) == a.
func (a *PArg) Arg(names *Names) Arg {
	out := Arg{Kind: a.Kind(), Reg: a.Reg(), Imm: a.Imm, Cls: a.Cls()}
	if a.SymH != 0 {
		out.Sym = string(names.At(a.Sym))
	}
	return out
}

// Kind returns the argument kind.
func (a *PArg) Kind() ArgKind { return ArgKind(a.Tag) }

// Reg returns the register field.
func (a *PArg) Reg() Reg { return Reg(a.Tag >> 8) }

// Cls returns the symbol-class field.
func (a *PArg) Cls() SymClass { return SymClass(a.Tag >> 16) }

// Equal reports whether a, whose symbol name is in an, and b, whose is in
// bn, are the same argument. The names are compared only after their
// hashes agree.
func (a *PArg) Equal(an *Names, b *PArg, bn *Names) bool {
	// The parentheses matter: | and ^ have the same precedence.
	diff := uint64(a.Tag^b.Tag) | uint64(a.Imm^b.Imm) | (a.SymH ^ b.SymH)
	return diff == 0 && (a.SymH == 0 || string(an.At(a.Sym)) == string(bn.At(b.Sym)))
}

// Packed is an instruction sequence in packed form. Instruction i has the
// SameKind class (KindH[i], Kind(i)), the arguments
// Args[Off[i]:Off[i+1]] in Args() order, their symbols named in Names,
// and reads and writes the registers whose RegBit is set in Read[i] and
// Write[i] (Pack fills the masks in, Repack does not). Every column is a
// flat array of fixed-width values: a heap-packed block owns its columns
// and a small name table, a stored block's columns lie in the file and its
// names are the file's string table.
type Packed struct {
	KindH []uint64 // hash of the SameKind class
	Canon []byte   // the classes' canonical encodings, back to back
	KOff  []int32  // class i is encoded in Canon[KOff[i]:KOff[i+1]]
	Off   []int32
	Args  []PArg
	Names *Names
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

// Same reports whether p and q hold the same packed form: every column
// equal, the arguments with their symbols compared by name — in which
// table and where a name sits is the one thing two packings of the same
// instructions may differ in.
func (p *Packed) Same(q *Packed) bool {
	if len(p.Args) != len(q.Args) {
		return false
	}
	for k := range p.Args {
		if !p.Args[k].Equal(p.Names, &q.Args[k], q.Names) {
			return false
		}
	}
	return slices.Equal(p.KindH, q.KindH) && string(p.Canon) == string(q.Canon) &&
		slices.Equal(p.KOff, q.KOff) && slices.Equal(p.Off, q.Off) &&
		slices.Equal(p.Read, q.Read) && slices.Equal(p.Write, q.Write)
}

// Mix folds one 64-bit word into a running content hash that starts at
// HashSeed.
func Mix(h, v uint64) uint64 {
	h = (h ^ v) * fnvPrime
	return h ^ h>>32
}

// HashSeed is the content hash of nothing.
const HashSeed uint64 = fnvOffset

// ContentHash content-hashes the sequence: every instruction's kind hash
// and every argument by value (a symbol by the hash of its name), each
// instruction closed by its argument count so that arguments cannot drift
// between neighbours.
func (p *Packed) ContentHash() uint64 {
	h := HashSeed
	for i, kh := range p.KindH {
		h = Mix(h, kh)
		args := p.Args[p.Off[i]:p.Off[i+1]]
		for k := range args {
			a := &args[k]
			h = Mix(Mix(Mix(h, uint64(a.Tag)), uint64(a.Imm)), a.SymH)
		}
		h = Mix(h, uint64(len(args)))
	}
	return h
}

// KindCount is one entry of a sequence's instruction-kind profile: how
// many instructions of one SameKind class it holds, and the identity
// weight (2 + #args, the most a pair within the class can score) each
// contributes. SameKind instructions have equal argument counts, so the
// weight is a class property. Classes are told apart by their hash alone:
// a collision can only merge two classes, which over-approximates — safe
// for the upper bound the profile exists for.
type KindCount struct {
	Hash   uint64
	Weight int32
	Count  int32
}

// KindProfile computes the sequence's kind profile into the front of buf,
// which must hold at least p.Len() entries, sorted by (Hash, Weight) so
// two profiles intersect with a linear merge. The returned slice is capped
// at its length: the rest of buf stays the caller's.
func (p *Packed) KindProfile(buf []KindCount) []KindCount {
	prof := buf[:p.Len()]
	for i, kh := range p.KindH {
		prof[i] = KindCount{Hash: kh, Weight: 2 + p.Off[i+1] - p.Off[i], Count: 1}
	}
	slices.SortFunc(prof, func(a, b KindCount) int {
		if a.Hash != b.Hash {
			if a.Hash < b.Hash {
				return -1
			}
			return 1
		}
		return int(a.Weight - b.Weight)
	})
	n := 0
	for _, kc := range prof {
		if n > 0 && prof[n-1].Hash == kc.Hash && prof[n-1].Weight == kc.Weight {
			prof[n-1].Count++
			continue
		}
		prof[n] = kc
		n++
	}
	return prof[:n:n]
}

// Block is one basic block of a stored function in the form the matcher
// consumes: the packed body (jump stripped) with the content hash and kind
// profile derived from it, and the block's successors in the function's
// graph. An index file keeps its functions this way, and a Block read from
// one aliases the file.
type Block struct {
	Packed
	Hash  uint64      // ContentHash of the body
	Prof  []KindCount // KindProfile of the body
	Succs []uint32    // successor blocks, function-local
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
// instructions, the arguments, the symbol names and their bytes exactly,
// and the encodings amply — an encoding holds the mnemonic, the operand
// count, at most two bytes per operand and at most three per argument.
func packSize(blocks [][]Inst) (n, na, nc, ns, nb int) {
	for _, b := range blocks {
		n += len(b)
		for i := range b {
			before := na
			for oi := range b[i].Ops {
				op := &b[i].Ops[oi]
				if !op.IsMem() {
					na++
					if s := op.Arg.Sym; s != "" {
						ns, nb = ns+1, nb+len(s)
					}
					continue
				}
				na += len(op.Mem)
				for ti := range op.Mem {
					if s := op.Mem[ti].Arg.Sym; s != "" {
						ns, nb = ns+1, nb+len(s)
					}
				}
			}
			nc += len(b[i].Mnemonic) + 1 + 2*len(b[i].Ops) + 3*(na-before)
		}
	}
	return n, na, nc, ns, nb
}

// newNames returns an empty table with room for ns names of nb bytes.
func newNames(ns, nb int) *Names {
	return &Names{Tab: make([]byte, 0, nb), Off: make([]uint32, 0, ns+1)}
}

// Pack packs the concatenation of the given instruction sequences.
func Pack(blocks ...[]Inst) *Packed {
	n, na, nc, ns, nb := packSize(blocks)
	p := &Packed{Args: make([]PArg, 0, na), Canon: make([]byte, 0, nc), Names: newNames(ns, nb)}
	p.repack(blocks...)
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

// PackEach packs every sequence on its own, as a Block without successors
// — element i holds what Pack(seqs[i]) holds, its content hash and its
// kind profile — with each column of all of them carved from one array and
// all their names in one table, so packing the blocks of a function costs
// the same few allocations however many blocks it has. The blocks share
// that memory and live and die together. It is the one place a function's
// blocks are packed: what an index file stores per block is what it
// returns.
func PackEach(seqs [][]Inst) []Block {
	var pk Packer
	return pk.PackEach(seqs)
}

// Packer is PackEach for a caller that packs one function after another
// and is done with each before the next, like an index writer: it packs
// into the memory of the call before, grown where that is not enough. The
// zero Packer is ready to use.
type Packer struct {
	out   []Block
	kindH []uint64
	offs  []int32
	masks []uint64
	profs []KindCount
	canon []byte
	args  []PArg
	names *Names // on its own: the blocks point at it, and must not thereby hold the Packer
}

// sized returns s with length n, in its own memory when that suffices. The
// contents are unspecified.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// PackEach is the function PackEach; the blocks it returns are valid until
// the next call.
func (pk *Packer) PackEach(seqs [][]Inst) []Block {
	n, na, nc, ns, nb := packSize(seqs)
	pk.out, pk.kindH, pk.offs = sized(pk.out, len(seqs)), sized(pk.kindH, n), sized(pk.offs, 2*(n+len(seqs)))
	pk.masks, pk.profs, pk.canon, pk.args = sized(pk.masks, 2*n), sized(pk.profs, n), sized(pk.canon, nc), sized(pk.args, na)
	if pk.names == nil {
		pk.names = new(Names)
	}
	pk.names.Tab, pk.names.Off = sized(pk.names.Tab, nb)[:0], sized(pk.names.Off, ns+1)[:0]
	out, kindH, offs, masks, profs := pk.out, pk.kindH, pk.offs, pk.masks, pk.profs
	canon, args := pk.canon[:0], pk.args[:0]
	for i, seq := range seqs {
		p, n := &out[i], len(seq)
		*p = Block{}
		// repack fills the memory p holds; canon and args offer all that is
		// left of theirs and are cut behind what it used.
		p.KindH, kindH = kindH[:0:n], kindH[n:]
		p.KOff, p.Off, offs = offs[:0:n+1], offs[n+1:n+1:2*(n+1)], offs[2*(n+1):]
		p.Canon, p.Args, p.Names = canon, args, pk.names
		p.repack(seq)
		p.Canon, canon = p.Canon[:len(p.Canon):len(p.Canon)], p.Canon[len(p.Canon):]
		p.Args, args = p.Args[:len(p.Args):len(p.Args)], p.Args[len(p.Args):]
		p.Read, p.Write, masks = masks[:n:n], masks[n:2*n:2*n], masks[2*n:]
		for j := range seq {
			p.Read[j], p.Write[j] = seq[j].regMasks()
		}
		p.Hash = p.ContentHash()
		p.Prof = p.KindProfile(profs)
		profs = profs[len(p.Prof):]
	}
	return out
}

// Repack makes p the packed form of the concatenation of the given
// instruction sequences without the register masks — Read and Write are
// left nil — and in the memory p already holds, its name table included,
// grown where it is not enough. It is for callers that pack afresh on
// every call and only align: the alignment kernel never looks at the
// masks, and they cost a table lookup per instruction.
func (p *Packed) Repack(blocks ...[]Inst) {
	if p.Names == nil {
		p.Names = new(Names)
	}
	p.Names.Truncate(0)
	p.repack(blocks...)
}

// repack is Repack with the symbol names added to the table p holds.
func (p *Packed) repack(blocks ...[]Inst) {
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
	canon, args, names := p.Canon[:0], p.Args[:0], p.Names
	kOff[0], off[0] = 0, 0
	i := 0
	for _, b := range blocks {
		for bi := range b {
			canon, args = PackInst(canon, args, &b[bi], names)
			kindH[i] = fnvBytes(fnvOffset, canon[kOff[i]:])
			i++
			kOff[i], off[i] = int32(len(canon)), int32(len(args))
		}
	}
	*p = Packed{KindH: kindH, Canon: canon, KOff: kOff, Off: off, Args: args, Names: names}
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

// PackInst appends the packed form of in — the canonical encoding of its
// kind to canon, its arguments in Args() order to args, their symbol names
// to names — and returns the grown slices. It is how Pack lays out each
// instruction; Unpacker.Inst is its inverse for every instruction Packable
// accepts.
func PackInst(canon []byte, args []PArg, in *Inst, names *Names) ([]byte, []PArg) {
	canon = appendKind(canon, in)
	for oi := range in.Ops {
		op := &in.Ops[oi]
		if !op.IsMem() {
			args = append(args, PArg{})
			args[len(args)-1].set(&op.Arg, names)
			continue
		}
		for ti := range op.Mem {
			args = append(args, PArg{})
			args[len(args)-1].set(&op.Mem[ti].Arg, names)
		}
	}
	return canon, args
}

// LossyOperandError names an operand the packed form cannot carry: a
// memory operand with the offset flag set or a direct argument beside its
// terms. Packing drops both, so every compare ignores them, and an index
// file, which stores its instructions packed, would lose them.
type LossyOperandError struct {
	Inst    string // the instruction, as printed
	Operand int    // the operand's position in it
}

func (e *LossyOperandError) Error() string {
	return fmt.Sprintf("asm: operand %d of %q is a memory operand with an offset flag or a direct argument, which the packed form cannot carry", e.Operand, e.Inst)
}

// Packable returns a *LossyOperandError for the first operand of in that
// packing would lose, or nil when PackInst carries every field of in.
func (in *Inst) Packable() error {
	for oi := range in.Ops {
		if op := &in.Ops[oi]; op.IsMem() && (op.Offset || op.Arg != (Arg{})) {
			return &LossyOperandError{Inst: in.String(), Operand: oi}
		}
	}
	return nil
}

// Unpacker rebuilds instructions from their packed form. Operand lists and
// memory-term lists are carved from Ops and Mems, which it appends to, and
// Check appends the instructions to Insts, so a caller that gives them room
// for a whole function rebuilds it in a fixed few allocations. A rebuilt
// mnemonic is the string of the package's mnemonic table, or a copy where
// the table lacks it.
type Unpacker struct {
	Sym   func(i uint32) string // the name of symbol i of the arguments' name table
	Ops   []Operand
	Mems  []MemTerm
	Insts []Inst
}

// Inst rebuilds the instruction PackInst packed into enc, the canonical
// encoding of its kind, and args, its arguments; ok is false where
// CheckInst refuses them. Every symbol args name must be one Sym knows.
func (u *Unpacker) Inst(enc string, args []PArg) (in Inst, ok bool) {
	ok = readKind(enc, args, u, &in)
	return in, ok
}

// Check reports whether p's columns are consistent with one another, which
// is what the compare core takes for granted: the columns cover the same
// instructions, the offsets run in order from the start of their column to
// its end, and every instruction passes CheckInst. What Pack builds passes;
// a Packed that arrives from outside the process must pass before anything
// is aligned with it. The hashes are taken on trust: a wrong one changes a
// score, never a memory access.
func (p *Packed) Check() error {
	n := len(p.KindH)
	if len(p.KOff) != n+1 || len(p.Off) != n+1 || len(p.Read) != n || len(p.Write) != n {
		return errors.New("columns of different lengths")
	}
	return (*Unpacker)(nil).Check(p)
}

// Check is Packed.Check of the columns the instructions are rebuilt from —
// Canon, KOff, Off, Args and Names — and refuses what it refuses, where it
// refuses it, with its error. With u non-nil it rebuilds each instruction
// at the step that checks it, appending it to u.Insts.
func (u *Unpacker) Check(p *Packed) error {
	canon, kOff, off, args, nsym := p.Canon, p.KOff, p.Off, p.Args, uint32(p.Names.Len())
	n := len(kOff) - 1
	if n < 0 || len(off) != n+1 {
		return errors.New("columns of different lengths")
	}
	if kOff[0] != 0 || int(kOff[n]) != len(canon) || off[0] != 0 || int(off[n]) != len(args) {
		return errors.New("offsets do not span their column")
	}
	for i := 0; i < n; i++ {
		if kOff[i] > kOff[i+1] || int(kOff[i+1]) > len(canon) || off[i] > off[i+1] || int(off[i+1]) > len(args) {
			return errors.New("offsets out of order")
		}
		// The symbols' range first, so that Sym is asked only for names the
		// table holds; then one walk of the encoding checks and rebuilds.
		as, ru, inTable := args[off[i]:off[i+1]], u, true
		for k := range as {
			if as[k].SymH != 0 && as[k].Sym >= nsym {
				ru, inTable = nil, false
			}
		}
		var in Inst
		switch {
		case !readKind(canon[kOff[i]:kOff[i+1]], as, ru, &in):
			return errors.New("arguments disagree with the instruction's kind")
		case !inTable:
			return errors.New("symbol name out of table")
		case u != nil:
			u.Insts = append(u.Insts, in)
		}
	}
	return nil
}

// CheckInst reports whether enc, the canonical encoding of an instruction's
// kind, and args, its packed arguments, fit together: the arguments are
// what enc says — as many, of those kinds and symbol classes — and every
// symbol's name is in names.
func CheckInst(enc []byte, args []PArg, names *Names) error {
	one := Packed{Canon: enc, KOff: []int32{0, int32(len(enc))}, Off: []int32{0, int32(len(args))}, Args: args, Names: names}
	return (*Unpacker)(nil).Check(&one)
}

// readKind walks enc, an encoding appendKind wrote, against args and
// reports whether they are what enc says the instruction has: one argument
// per direct operand and per memory term, each of the encoded kind and, for
// a symbol, class. With u non-nil it also rebuilds the instruction into
// *in, its operands and memory terms carved from u's arrays.
func readKind[T string | []byte](enc T, args []PArg, u *Unpacker, in *Inst) bool {
	nops, w := uvarint(enc)
	if w <= 0 {
		return false
	}
	enc = enc[w:]
	k, firstOp := 0, 0
	if u != nil {
		firstOp = len(u.Ops)
	}
	// Every round of either loop consumes a byte of enc, so a count that
	// promises more than enc holds ends in a refusal, not a long walk.
	for ; nops > 0; nops-- {
		if len(enc) == 0 || enc[0] > 2 {
			return false
		}
		shape, terms := enc[0], uint64(1)
		enc = enc[1:]
		mem := shape == 2
		if mem {
			if terms, w = uvarint(enc); w <= 0 || terms == 0 {
				return false
			}
			enc = enc[w:]
		}
		op, firstTerm := Operand{Offset: shape == 1}, 0
		if u != nil {
			firstTerm = len(u.Mems)
		}
		for ; terms > 0; terms-- {
			var aop MemOp
			if mem {
				if len(enc) == 0 {
					return false
				}
				aop, enc = MemOp(enc[0]), enc[1:] // the term's operator
			}
			if len(enc) == 0 || k == len(args) || byte(args[k].Tag) != enc[0] {
				return false
			}
			if ArgKind(enc[0]) == KindSym {
				if len(enc) < 2 || byte(args[k].Tag>>16) != enc[1] {
					return false
				}
				enc = enc[1:]
			}
			enc = enc[1:]
			if u != nil {
				a := &args[k]
				arg := Arg{Kind: a.Kind(), Reg: a.Reg(), Imm: a.Imm, Cls: a.Cls()}
				if a.SymH != 0 {
					arg.Sym = u.Sym(a.Sym)
				}
				if mem {
					u.Mems = append(u.Mems, MemTerm{Op: aop, Arg: arg})
				} else {
					op.Arg = arg
				}
			}
			k++
		}
		if u != nil {
			if mem {
				op.Mem = u.Mems[firstTerm:len(u.Mems):len(u.Mems)]
			}
			u.Ops = append(u.Ops, op)
		}
	}
	if k != len(args) {
		return false
	}
	if u != nil {
		*in = Inst{Mnemonic: mnemonic(enc)}
		if n := len(u.Ops); n > firstOp {
			in.Ops = u.Ops[firstOp:n:n]
		}
	}
	return true
}

// mnemonic returns m as a string: the mnemonic table's own when it has m,
// so that instructions rebuilt from bytes share it, and a copy when not.
func mnemonic[T string | []byte](m T) string {
	if e := &entries[slotOf[slot(string(m), slotMul)]]; e.name == string(m) {
		return e.name
	}
	return string(m)
}

// uvarint is binary.Uvarint over a string or a byte slice that also
// refuses a non-minimal form — a last byte of zero after the first — so
// that a count has the one encoding appendKind writes.
func uvarint[T string | []byte](b T) (uint64, int) {
	var x uint64
	var s uint
	for i := 0; i < len(b) && i < binary.MaxVarintLen64; i++ {
		c := b[i]
		if c < 0x80 {
			if i == binary.MaxVarintLen64-1 && c > 1 || i > 0 && c == 0 {
				return 0, -(i + 1) // overflow or not minimal
			}
			return x | uint64(c)<<s, i + 1
		}
		x |= uint64(c&0x7f) << s
		s += 7
	}
	return 0, 0
}
