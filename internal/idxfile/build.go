package idxfile

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"

	"repro/internal/minhash"
	"repro/internal/prep"
)

// Builder accumulates functions into the columnar arrays incrementally,
// so a million-function corpus can be indexed one executable at a time
// with memory bounded by the (compact) columnar size rather than the
// lifted object graph: callers lift an image, Add its functions, and
// drop the lifted form before the next image.
type Builder struct {
	strs    map[string]uint32
	strb    []byte
	stro    []uint32
	funcs   []byte
	blcks   []byte
	insts   []byte
	opnds   []byte
	memts   []byte
	succs   []byte
	feats   []byte
	nblocks int
	ninsts  int
	nops    int
	nmems   int
	nsuccs  int
	nfeats  int
	nfuncs  int
	err     error

	lsh     *minhash.Params // non-nil: emit the LSHB and LSHT sections
	lshSigs []uint32        // accumulated signature values, function-major
}

// NewBuilder returns an empty builder. String id 0 is reserved for the
// empty string so zero-valued record fields stay self-describing.
func NewBuilder() *Builder {
	b := &Builder{strs: make(map[string]uint32)}
	b.stro = append(b.stro, 0)
	b.intern("") // id 0
	return b
}

// NumFuncs returns the number of functions added so far.
func (b *Builder) NumFuncs() int { return b.nfuncs }

// Bytes returns the current approximate encoded size, the number the
// scale campaign reports as it streams executables through.
func (b *Builder) Bytes() int {
	return len(b.strb) + len(b.stro)*stroRecSize + len(b.funcs) + len(b.blcks) +
		len(b.insts) + len(b.opnds) + len(b.memts) + len(b.succs) + len(b.feats) +
		len(b.lshSigs)*lshSigSize
}

// SetLSH arms MinHash signature emission: every subsequent Add hashes
// the function's feature set under p and WriteTo appends an LSHB section
// with the signatures and an LSHT section with the band table sorted
// from them. It must be called before the first Add (signatures are
// computed as functions stream through, never retroactively); calling
// it late or with invalid parameters is a sticky error.
func (b *Builder) SetLSH(p minhash.Params) {
	if b.err != nil {
		return
	}
	if !p.Valid() {
		b.err = fmt.Errorf("idxfile: invalid LSH parameters (%d bands x %d rows)", p.Bands, p.Rows)
		return
	}
	if b.nfuncs > 0 {
		b.err = fmt.Errorf("idxfile: SetLSH after %d functions were already added", b.nfuncs)
		return
	}
	b.lsh = &p
}

func (b *Builder) intern(s string) uint32 {
	if id, ok := b.strs[s]; ok {
		return id
	}
	id := uint32(len(b.stro) - 1)
	b.strs[s] = id
	b.strb = append(b.strb, s...)
	b.stro = append(b.stro, uint32(len(b.strb)))
	return id
}

func (b *Builder) u32(dst []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(dst, v)
}

func appendU32s(dst []byte, vs []uint32) []byte {
	for _, v := range vs {
		dst = binary.LittleEndian.AppendUint32(dst, v)
	}
	return dst
}

// Add appends one lifted function with its index metadata and prefilter
// feature set. Feats may be nil. Errors (a corpus overflowing the u32
// column offsets, a malformed graph) are sticky and reported by WriteTo.
func (b *Builder) Add(exe string, fn *prep.Function, truth string, feats []uint64) {
	if b.err != nil {
		return
	}
	g := fn.Graph
	if g == nil || len(g.Blocks) == 0 || g.Entry < 0 || g.Entry >= len(g.Blocks) {
		b.err = fmt.Errorf("idxfile: function %s: malformed graph", fn.Name)
		return
	}
	if len(b.strb) > math.MaxUint32-1<<20 || b.ninsts > math.MaxUint32-1<<20 {
		b.err = fmt.Errorf("idxfile: corpus overflows u32 column offsets")
		return
	}
	blockOff := b.nblocks
	for _, blk := range g.Blocks {
		instOff := b.ninsts
		for _, in := range blk.Insts {
			opOff := b.nops
			for _, op := range in.Ops {
				var flags byte
				if op.Offset {
					flags |= opndFlagOffset
				}
				memOff, nmem := 0, 0
				if op.IsMem() {
					flags |= opndFlagMem
					memOff = b.nmems
					nmem = len(op.Mem)
					for _, t := range op.Mem {
						b.memts = append(b.memts, byte(t.Op), byte(t.Arg.Kind), byte(t.Arg.Cls), byte(t.Arg.Reg))
						b.memts = b.u32(b.memts, b.intern(t.Arg.Sym))
						b.memts = binary.LittleEndian.AppendUint64(b.memts, uint64(t.Arg.Imm))
					}
					b.nmems += nmem
				}
				a := op.Arg
				b.opnds = append(b.opnds, byte(a.Kind), byte(a.Cls), byte(a.Reg), flags)
				b.opnds = b.u32(b.opnds, b.intern(a.Sym))
				b.opnds = binary.LittleEndian.AppendUint64(b.opnds, uint64(a.Imm))
				b.opnds = b.u32(b.opnds, uint32(memOff))
				b.opnds = b.u32(b.opnds, uint32(nmem))
			}
			b.insts = b.u32(b.insts, b.intern(in.Mnemonic))
			b.insts = b.u32(b.insts, uint32(opOff))
			b.insts = b.u32(b.insts, uint32(len(in.Ops)))
			b.nops += len(in.Ops)
		}
		succOff := b.nsuccs
		for _, s := range blk.Succs {
			if s < 0 || s >= len(g.Blocks) {
				b.err = fmt.Errorf("idxfile: function %s: successor %d out of %d blocks", fn.Name, s, len(g.Blocks))
				return
			}
			b.succs = b.u32(b.succs, uint32(s))
		}
		b.blcks = b.u32(b.blcks, blk.Addr)
		b.blcks = b.u32(b.blcks, uint32(instOff))
		b.blcks = b.u32(b.blcks, uint32(len(blk.Insts)))
		b.blcks = b.u32(b.blcks, uint32(succOff))
		b.blcks = b.u32(b.blcks, uint32(len(blk.Succs)))
		b.ninsts += len(blk.Insts)
		b.nsuccs += len(blk.Succs)
	}
	b.nblocks += len(g.Blocks)

	featOff := b.nfeats
	for _, f := range feats {
		b.feats = binary.LittleEndian.AppendUint64(b.feats, f)
	}
	b.nfeats += len(feats)

	if b.lsh != nil {
		n, k := len(b.lshSigs), b.lsh.K()
		b.lshSigs = slices.Grow(b.lshSigs, k)[:n+k]
		minhash.Signature(b.lshSigs[n:], feats, *b.lsh)
	}

	b.funcs = b.u32(b.funcs, b.intern(exe))
	b.funcs = b.u32(b.funcs, b.intern(fn.Name))
	b.funcs = b.u32(b.funcs, b.intern(truth))
	b.funcs = b.u32(b.funcs, fn.Addr)
	b.funcs = b.u32(b.funcs, uint32(g.Entry))
	b.funcs = b.u32(b.funcs, uint32(blockOff))
	b.funcs = b.u32(b.funcs, uint32(len(g.Blocks)))
	b.funcs = b.u32(b.funcs, uint32(featOff))
	b.funcs = b.u32(b.funcs, uint32(len(feats)))
	b.funcs = b.u32(b.funcs, 0) // reserved
	b.nfuncs++
}

// section pairs a directory entry with its payload for writing.
type section struct {
	name    string
	payload []byte
}

// WriteTo encodes the accumulated corpus as a complete v3 file.
func (b *Builder) WriteTo(w io.Writer) (int64, error) {
	if b.err != nil {
		return 0, b.err
	}
	stro := make([]byte, 0, len(b.stro)*stroRecSize)
	for _, off := range b.stro {
		stro = binary.LittleEndian.AppendUint32(stro, off)
	}
	secs := []section{
		{SecSTRB, b.strb},
		{SecSTRO, stro},
		{SecFUNC, b.funcs},
		{SecBLCK, b.blcks},
		{SecINST, b.insts},
		{SecOPND, b.opnds},
		{SecMEMT, b.memts},
		{SecSUCC, b.succs},
		{SecFEAT, b.feats},
	}
	if b.lsh != nil {
		lshb := make([]byte, 0, lshHdrSize+len(b.lshSigs)*lshSigSize)
		lshb = binary.LittleEndian.AppendUint32(lshb, uint32(b.lsh.Bands))
		lshb = binary.LittleEndian.AppendUint32(lshb, uint32(b.lsh.Rows))
		lshb = binary.LittleEndian.AppendUint64(lshb, b.lsh.Seed)
		lshb = appendU32s(lshb, b.lshSigs)
		table := minhash.BandTable(*b.lsh, b.lshSigs, b.nfuncs)
		secs = append(secs, section{SecLSHB, lshb},
			section{SecLSHT, appendU32s(make([]byte, 0, len(table)*lshtRecSize), table)})
	}

	// Lay sections out 8-aligned after the directory.
	dirOff := headerSize
	off := dirOff + len(secs)*dirEntrySize
	off = align8(off)
	var dir []byte
	offsets := make([]int, len(secs))
	for i, s := range secs {
		offsets[i] = off
		dir = binary.LittleEndian.AppendUint32(dir, sectionID(s.name))
		dir = binary.LittleEndian.AppendUint32(dir, 0)
		dir = binary.LittleEndian.AppendUint64(dir, uint64(off))
		dir = binary.LittleEndian.AppendUint64(dir, uint64(len(s.payload)))
		dir = binary.LittleEndian.AppendUint32(dir, crc32.Checksum(s.payload, crcTable))
		dir = binary.LittleEndian.AppendUint32(dir, 0)
		off = align8(off + len(s.payload))
	}
	fileSize := off

	hdr := make([]byte, headerSize)
	copy(hdr, Magic)
	hdr[8] = Version
	binary.LittleEndian.PutUint32(hdr[12:], uint32(len(secs)))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(fileSize))
	binary.LittleEndian.PutUint64(hdr[24:], uint64(b.nfuncs))
	binary.LittleEndian.PutUint32(hdr[32:], crc32.Checksum(dir, crcTable))

	bw := bufio.NewWriterSize(w, 1<<20)
	n := int64(0)
	emit := func(p []byte) error {
		m, err := bw.Write(p)
		n += int64(m)
		return err
	}
	if err := emit(hdr); err != nil {
		return n, err
	}
	if err := emit(dir); err != nil {
		return n, err
	}
	pos := dirOff + len(dir)
	var pad [8]byte
	for i, s := range secs {
		if gap := offsets[i] - pos; gap > 0 {
			if err := emit(pad[:gap]); err != nil {
				return n, err
			}
			pos += gap
		}
		if err := emit(s.payload); err != nil {
			return n, err
		}
		pos += len(s.payload)
	}
	if gap := fileSize - pos; gap > 0 {
		if err := emit(pad[:gap]); err != nil {
			return n, err
		}
	}
	return n, bw.Flush()
}

// Write encodes a whole corpus in one call: metadata-carrying functions
// with optional per-function feature sets (feats may be nil or aligned
// with fns).
func Write(w io.Writer, exes []string, fns []*prep.Function, truths []string, feats [][]uint64) (int64, error) {
	b := NewBuilder()
	for i, fn := range fns {
		var fs []uint64
		if feats != nil {
			fs = feats[i]
		}
		truth := ""
		if truths != nil {
			truth = truths[i]
		}
		b.Add(exes[i], fn, truth, fs)
	}
	return b.WriteTo(w)
}
