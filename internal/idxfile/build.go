package idxfile

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
	"unsafe"

	"repro/internal/asm"
	"repro/internal/cfg"
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
	succs   []byte
	feats   []byte
	nblocks int
	nsuccs  int
	nfeats  int
	nfuncs  int
	expect  int // functions the caller said will be added in all; 0: unknown
	err     error

	pack    []byte    // the PACK function records, back to back
	packOff []uint64  // where each starts in pack
	packers []*packer // scratch: the functions being added, packed

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

// Expect tells the builder how many functions will be added in all. A
// builder that knows sizes each column for the whole corpus as soon as the
// first functions show what a function takes, instead of growing it by
// doubling: a 4032-function save then allocates 95 MB where it allocated
// 314, and takes a third less time. It changes no byte of the output, and a
// wrong or missing count only costs that copying.
func (b *Builder) Expect(funcs int) { b.expect = funcs }

// room returns col with room for what the functions still to come will
// add, judging by what those added so far did. It acts when col has room
// for fewer than a few average functions, so a column is moved a few
// times in all; without a count to go by it leaves the growing to append.
func room[T any](b *Builder, col []T) []T {
	const probe, margin = 16, 8 // functions seen before judging; average functions of slack
	if b.nfuncs < probe || b.expect <= b.nfuncs {
		return col
	}
	avg := len(col)/b.nfuncs + 1
	if cap(col)-len(col) >= margin*avg {
		return col
	}
	ahead := b.expect - b.nfuncs
	return slices.Grow(col, ahead*avg+ahead*avg/16+margin*avg)
}

// NumFuncs returns the number of functions added so far.
func (b *Builder) NumFuncs() int { return b.nfuncs }

// Bytes returns the current approximate encoded size, the number the
// scale campaign reports as it streams executables through.
func (b *Builder) Bytes() int {
	return len(b.strb) + len(b.stro)*stroRecSize + len(b.funcs) + len(b.blcks) +
		len(b.succs) + len(b.feats) + len(b.lshSigs)*lshSigSize + len(b.pack) + len(b.packOff)*packOffSize
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
	if s == "" && len(b.stro) > 1 {
		return 0 // most arguments have no symbol; the empty string is id 0
	}
	if id, ok := b.strs[s]; ok {
		return id
	}
	id := uint32(len(b.stro) - 1)
	b.strs[s] = id
	b.strb = append(b.strb, s...)
	b.stro = append(b.stro, uint32(len(b.strb)))
	return id
}

// internName is intern for a symbol name of a packed block's table.
func (b *Builder) internName(s []byte) uint32 {
	if id, ok := b.strs[string(s)]; ok {
		return id
	}
	return b.intern(string(s))
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

// Item is one function for the builder: what Add takes.
type Item struct {
	Exe   string
	Fn    *prep.Function
	Truth string
	Feats []uint64 // may be nil
}

// Add appends one lifted function with its index metadata and prefilter
// feature set. Errors (a corpus overflowing the u32 column offsets, a
// malformed graph, an operand the packed form cannot carry — an
// *asm.LossyOperandError) are sticky and reported by WriteTo.
func (b *Builder) Add(exe string, fn *prep.Function, truth string, feats []uint64) {
	if b.err == nil {
		b.add(Item{exe, fn, truth, feats}, b.packFunc(0, fn.Graph))
	}
}

// AddAll is Add for each item in order, with the packing for PACK — a
// third of what adding a function costs, and independent of everything
// else the builder does — done one stage ahead, on another CPU when there
// is one, in the memory of as many packers as there are items. The output
// is Add's, byte for byte.
func (b *Builder) AddAll(items []Item) {
	// Buffered for every item: the packing never waits for the walk, so it
	// has ended by the time the last item is received.
	packed := make(chan *packer, len(items))
	go func() {
		for i := range items {
			packed <- b.packFunc(i, items[i].Fn.Graph)
		}
	}()
	for i := range items {
		b.add(items[i], <-packed)
	}
}

// add is Add with the function already packed.
func (b *Builder) add(it Item, pk *packer) {
	if b.err != nil {
		return
	}
	exe, fn, truth, feats := it.Exe, it.Fn, it.Truth, it.Feats
	g := fn.Graph
	if g == nil || len(g.Blocks) == 0 || g.Entry < 0 || g.Entry >= len(g.Blocks) {
		b.err = fmt.Errorf("idxfile: function %s: malformed graph", fn.Name)
		return
	}
	if pk.err != nil {
		b.err = fmt.Errorf("idxfile: function %s: %w", fn.Name, pk.err)
		return
	}
	const lim = math.MaxUint32 - 1<<20
	if len(b.strb) > lim || b.nblocks > lim || b.nsuccs > lim || b.nfeats > lim {
		b.err = fmt.Errorf("idxfile: corpus overflows u32 column offsets")
		return
	}
	b.funcs, b.blcks, b.succs, b.feats = room(b, b.funcs), room(b, b.blcks), room(b, b.succs), room(b, b.feats)
	b.lshSigs, b.pack, b.packOff = room(b, b.lshSigs), room(b, b.pack), room(b, b.packOff)
	blockOff := b.nblocks
	for _, blk := range g.Blocks {
		succOff := b.nsuccs
		for _, s := range blk.Succs {
			if s < 0 || s >= len(g.Blocks) {
				b.err = fmt.Errorf("idxfile: function %s: successor %d out of %d blocks", fn.Name, s, len(g.Blocks))
				return
			}
			b.succs = b.u32(b.succs, uint32(s))
		}
		b.blcks = b.u32(b.blcks, blk.Addr)
		b.blcks = b.u32(b.blcks, uint32(succOff))
		b.blcks = b.u32(b.blcks, uint32(len(blk.Succs)))
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
	b.addPack(pk)
	b.nfuncs++
}

// bytesOf returns the memory of s as bytes: how a fixed-width column goes
// into the file on the little-endian hosts the format's readers assume.
func bytesOf[T any](s []T) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*int(unsafe.Sizeof(s[0])))
}

// packFunc packs the function's block bodies with asm.PackEach — the one
// function that packs blocks, so what a reader finds in PACK is what
// core.Decompose would have computed from the function — and its blocks'
// trailing jumps, each as a sequence of its own, into the builder's
// slot-th packer, which is valid until the slot is used again. It notes in
// the packer the first operand packing would lose. A graph add will refuse
// packs to nothing.
func (b *Builder) packFunc(slot int, g *cfg.Graph) *packer {
	for len(b.packers) <= slot {
		b.packers = append(b.packers, new(packer))
	}
	pk := b.packers[slot]
	pk.bodies, pk.jumps, pk.blocks, pk.jblocks, pk.err = pk.bodies[:0], pk.jumps[:0], nil, nil, nil
	if g == nil {
		return pk
	}
	for _, blk := range g.Blocks {
		for k := range blk.Insts {
			if err := blk.Insts[k].Packable(); err != nil && pk.err == nil {
				pk.err = err
			}
		}
		body := blk.Body()
		pk.bodies, pk.jumps = append(pk.bodies, body), append(pk.jumps, blk.Insts[len(body):])
	}
	pk.blocks, pk.jblocks = pk.bodyPacker.PackEach(pk.bodies), pk.jumpPacker.PackEach(pk.jumps)
	return pk
}

// packer packs one function at a time: its block bodies and their packed
// blocks, and its blocks' jumps (none, or the one) and theirs.
type packer struct {
	bodyPacker, jumpPacker asm.Packer
	bodies, jumps          [][]asm.Inst
	blocks, jblocks        []asm.Block
	err                    error // the first operand that packing would lose
}

// addPack appends the function's PACK record: its packed blocks and their
// jumps laid out column by column (see the PACK layout in the package
// comment), every symbol named by its string id.
func (b *Builder) addPack(pk *packer) {
	blocks, jumps := pk.blocks, pk.jblocks
	ninsts, nargs, ncanon, nprof := 0, 0, 0, 0
	for i := range blocks {
		blk, j := &blocks[i], &jumps[i]
		ninsts, nprof = ninsts+blk.Len(), nprof+len(blk.Prof)
		nargs, ncanon = nargs+len(blk.Args)+len(j.Args), ncanon+len(blk.Canon)+len(j.Canon)
	}
	b.packOff = append(b.packOff, uint64(len(b.pack)))
	p := slices.Grow(b.pack, packHdrSize+packBlkSize*len(blocks)+24*ninsts+packArgSize*nargs+
		packProfSize*nprof+8*(ninsts+2*len(blocks))+align8(ncanon))
	for _, v := range [...]int{len(blocks), ninsts, nargs, ncanon, nprof, 0} {
		p = binary.LittleEndian.AppendUint32(p, uint32(v))
	}
	for i := range blocks {
		p = binary.LittleEndian.AppendUint64(p, blocks[i].Hash)
		p = binary.LittleEndian.AppendUint32(p, uint32(blocks[i].Len()))
		p = binary.LittleEndian.AppendUint32(p, uint32(len(blocks[i].Prof)))
	}
	for i := range blocks {
		p = append(p, bytesOf(blocks[i].KindH)...)
	}
	for i := range blocks {
		p = append(p, bytesOf(blocks[i].Read)...)
	}
	for i := range blocks {
		p = append(p, bytesOf(blocks[i].Write)...)
	}
	for i := range blocks {
		p = b.appendArgs(p, blocks[i].Args, blocks[i].Names)
		p = b.appendArgs(p, jumps[i].Args, jumps[i].Names)
	}
	for i := range blocks {
		p = append(p, bytesOf(blocks[i].Prof)...)
	}
	for i := range blocks {
		p = append(p, bytesOf(blocks[i].KOff)...)
		p = binary.LittleEndian.AppendUint32(p, uint32(len(blocks[i].Canon)+len(jumps[i].Canon)))
	}
	for i := range blocks {
		p = append(p, bytesOf(blocks[i].Off)...)
		p = binary.LittleEndian.AppendUint32(p, uint32(len(blocks[i].Args)+len(jumps[i].Args)))
	}
	for i := range blocks {
		p = append(append(p, blocks[i].Canon...), jumps[i].Canon...)
	}
	b.pack = append(p, make([]byte, align8(len(p))-len(p))...)
}

// appendArgs appends args, whose symbols are named in names, to p with
// every symbol named by its string id instead.
func (b *Builder) appendArgs(p []byte, args []asm.PArg, names *asm.Names) []byte {
	at := len(p)
	p = append(p, bytesOf(args)...)
	for k := range args {
		if a := &args[k]; a.SymH != 0 {
			binary.LittleEndian.PutUint32(p[at+k*packArgSize+4:], b.internName(names.At(a.Sym)))
		}
	}
	return p
}

// section pairs a directory entry with its payload, given in the parts it
// is the concatenation of, for writing.
type section struct {
	name  string
	parts [][]byte
}

func (s *section) size() (n int) {
	for _, p := range s.parts {
		n += len(p)
	}
	return n
}

func (s *section) crc() (c uint32) {
	for _, p := range s.parts {
		c = crc32.Update(c, crcTable, p)
	}
	return c
}

// WriteTo encodes the accumulated corpus as a complete v4 file.
func (b *Builder) WriteTo(w io.Writer) (int64, error) {
	if b.err != nil {
		return 0, b.err
	}
	stro := make([]byte, 0, len(b.stro)*stroRecSize)
	for _, off := range b.stro {
		stro = binary.LittleEndian.AppendUint32(stro, off)
	}
	secs := []section{
		{SecSTRB, [][]byte{b.strb}},
		{SecSTRO, [][]byte{stro}},
		{SecFUNC, [][]byte{b.funcs}},
		{SecBLCK, [][]byte{b.blcks}},
		{SecSUCC, [][]byte{b.succs}},
		{SecFEAT, [][]byte{b.feats}},
	}
	if b.lsh != nil {
		lshb := make([]byte, 0, lshHdrSize+len(b.lshSigs)*lshSigSize)
		lshb = binary.LittleEndian.AppendUint32(lshb, uint32(b.lsh.Bands))
		lshb = binary.LittleEndian.AppendUint32(lshb, uint32(b.lsh.Rows))
		lshb = binary.LittleEndian.AppendUint64(lshb, b.lsh.Seed)
		lshb = appendU32s(lshb, b.lshSigs)
		table := minhash.BandTable(*b.lsh, b.lshSigs, b.nfuncs)
		secs = append(secs, section{SecLSHB, [][]byte{lshb}},
			section{SecLSHT, [][]byte{appendU32s(make([]byte, 0, len(table)*lshtRecSize), table)}})
	}
	// PACK: the table of where each function's record starts, counted from
	// the start of the section, then the records.
	packTab := make([]byte, 0, (b.nfuncs+1)*packOffSize)
	base := uint64(b.nfuncs+1) * packOffSize
	for _, off := range b.packOff {
		packTab = binary.LittleEndian.AppendUint64(packTab, base+off)
	}
	packTab = binary.LittleEndian.AppendUint64(packTab, base+uint64(len(b.pack)))
	secs = append(secs, section{SecPACK, [][]byte{packTab, b.pack}})

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
		dir = binary.LittleEndian.AppendUint64(dir, uint64(s.size()))
		dir = binary.LittleEndian.AppendUint32(dir, s.crc())
		dir = binary.LittleEndian.AppendUint32(dir, 0)
		off = align8(off + s.size())
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
		for _, p := range s.parts {
			if err := emit(p); err != nil {
				return n, err
			}
		}
		pos += s.size()
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
