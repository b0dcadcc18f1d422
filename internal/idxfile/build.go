package idxfile

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"runtime"
	"sync"
	"unsafe"

	"repro/internal/asm"
	"repro/internal/minhash"
	"repro/internal/prep"
)

// Builder accumulates functions into the columnar arrays incrementally,
// so a million-function corpus can be indexed one executable at a time
// with memory bounded by the (compact) columnar size rather than the
// lifted object graph: callers lift an image, add its functions, and
// drop the lifted form before the next image. Every column grows in
// chunks that are never moved (see chunked), and each function's PACK
// record is built apart from the builder by a Packer, so the packing can
// run on another goroutine while the builder appends what was packed
// before (Append). A builder is only read by WriteTo and WriteLSH: it can
// be written any number of times and grown in between.
type Builder struct {
	strs    map[string]uint32
	strb    chunked
	stro    chunked
	funcs   chunked
	blcks   chunked
	succs   chunked
	feats   [][]uint64 // each function's feature set, as the caller gave it
	nstrs   int
	nblocks int
	nsuccs  int
	nfeats  int
	nfuncs  int
	err     error

	pack  [][]byte // the PACK function records, one per function
	npack int      // their bytes
	pk    Packer   // Add's
}

// NewBuilder returns an empty builder. String id 0 is reserved for the
// empty string so zero-valued record fields stay self-describing.
func NewBuilder() *Builder {
	b := &Builder{strs: make(map[string]uint32)}
	b.stro.u32(0)
	b.intern("") // id 0
	return b
}

// chunked is one section's payload, grown in chunks that are never copied:
// a full chunk is kept where it is and the next one started, each twice
// the size of the one before up to maxChunk, since WriteTo writes a
// section as the parts it is the concatenation of.
type chunked struct {
	full [][]byte // the filled chunks, in order
	cur  []byte   // the chunk being filled
	n    int      // bytes in full
}

const minChunk, maxChunk = 4 << 10, 1 << 20

// room makes room for n more bytes in the current chunk.
func (c *chunked) room(n int) {
	if cap(c.cur)-len(c.cur) >= n {
		return
	}
	if len(c.cur) > 0 {
		c.full, c.n = append(c.full, c.cur), c.n+len(c.cur)
	}
	c.cur = make([]byte, 0, max(min(max(2*cap(c.cur), minChunk), maxChunk), n))
}

func (c *chunked) u32(v uint32) {
	c.room(4)
	c.cur = binary.LittleEndian.AppendUint32(c.cur, v)
}

func (c *chunked) str(p string) {
	c.room(len(p))
	c.cur = append(c.cur, p...)
}

// len returns the bytes in the column.
func (c *chunked) len() int { return c.n + len(c.cur) }

// parts returns the chunks the column is the concatenation of.
func (c *chunked) parts() [][]byte { return append(c.full[:len(c.full):len(c.full)], c.cur) }

// NumFuncs returns the number of functions added so far.
func (b *Builder) NumFuncs() int { return b.nfuncs }

// Bytes returns the current approximate encoded size, without lsh
// sections: the number the scale campaign reports as it streams
// executables through.
func (b *Builder) Bytes() int {
	return b.strb.len() + b.stro.len() + b.funcs.len() + b.blcks.len() + b.succs.len() + 8*b.nfeats +
		b.npack + (b.nfuncs+1)*packOffSize
}

func (b *Builder) intern(s string) uint32 {
	if s == "" && b.nstrs > 0 {
		return 0 // most arguments have no symbol; the empty string is id 0
	}
	if id, ok := b.strs[s]; ok {
		return id
	}
	id := uint32(b.nstrs)
	b.strs[s] = id
	b.strb.str(s)
	b.stro.u32(uint32(b.strb.len()))
	b.nstrs++
	return id
}

// internName is intern for a symbol name of a packed block's table.
func (b *Builder) internName(s []byte) uint32 {
	if id, ok := b.strs[string(s)]; ok {
		return id
	}
	return b.intern(string(s))
}

// Item is one function for the builder: what Add takes.
type Item struct {
	Exe   string
	Fn    *prep.Function
	Truth string
	Feats []uint64 // may be nil; kept, not copied, so it must not change
}

// Add appends one lifted function with its index metadata and prefilter
// feature set. Errors (a corpus overflowing the u32 column offsets, a
// malformed graph, an operand the packed form cannot carry — an
// *asm.LossyOperandError) are sticky and reported by WriteTo.
func (b *Builder) Add(exe string, fn *prep.Function, truth string, feats []uint64) {
	if b.err == nil {
		p := b.pk.Pack(Item{exe, fn, truth, feats})
		b.Append(&p)
	}
}

// Append adds a function a Packer packed, with the metadata and
// features of its item, as Add does. Functions go into the file in the
// order they are appended; a Packed is appended to one builder, once.
func (b *Builder) Append(p *Packed) {
	if b.err != nil {
		return
	}
	exe, fn, truth, feats := p.Exe, p.Fn, p.Truth, p.Feats
	g := fn.Graph
	if g == nil || len(g.Blocks) == 0 || g.Entry < 0 || g.Entry >= len(g.Blocks) {
		b.err = fmt.Errorf("idxfile: function %s: malformed graph", fn.Name)
		return
	}
	if p.err != nil {
		b.err = fmt.Errorf("idxfile: function %s: %w", fn.Name, p.err)
		return
	}
	const lim = math.MaxUint32 - 1<<20
	if b.strb.len() > lim || b.nblocks > lim || b.nsuccs > lim || b.nfeats > lim {
		b.err = fmt.Errorf("idxfile: corpus overflows u32 column offsets")
		return
	}
	blockOff := b.nblocks
	for _, blk := range g.Blocks {
		succOff := b.nsuccs
		for _, s := range blk.Succs {
			if s < 0 || s >= len(g.Blocks) {
				b.err = fmt.Errorf("idxfile: function %s: successor %d out of %d blocks", fn.Name, s, len(g.Blocks))
				return
			}
			b.succs.u32(uint32(s))
		}
		b.blcks.u32(blk.Addr)
		b.blcks.u32(uint32(succOff))
		b.blcks.u32(uint32(len(blk.Succs)))
		b.nsuccs += len(blk.Succs)
	}
	b.nblocks += len(g.Blocks)

	featOff := b.nfeats
	b.feats = append(b.feats, feats)
	b.nfeats += len(feats)

	for _, v := range [...]uint32{b.intern(exe), b.intern(fn.Name), b.intern(truth), fn.Addr, uint32(g.Entry),
		uint32(blockOff), uint32(len(g.Blocks)), uint32(featOff), uint32(len(feats)), 0} {
		b.funcs.u32(v)
	}
	for _, s := range p.syms {
		binary.LittleEndian.PutUint32(p.rec[s.at:], b.internName(s.name))
	}
	b.pack = append(b.pack, p.rec)
	b.npack += len(p.rec)
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

// Packed is one function made ready for Builder.Append by a Packer: its
// item and its PACK record, every symbol of which Append still has to
// name by its string id.
type Packed struct {
	Item
	rec  []byte   // the PACK record, symbol ids 0
	syms []symRef // the symbols rec names, in the order Append interns them
	err  error    // the first operand that packing would lose
}

// symRef is where a PACK record names a symbol.
type symRef struct {
	at   int    // the offset of the symbol's string id in the record
	name []byte // the symbol
}

// Packer packs functions for a Builder apart from it — the bulk of what
// adding a function costs — so the packing can run on another goroutine
// than the appending. Each function is packed with asm.PackEach, the one
// function that packs blocks, so what a reader finds in PACK is what
// core.Decompose would have computed from the function. The records and
// symbol names it makes are carved from chunks of its own that it never
// reuses, so what one Pack returned stays valid whatever the Packer packs
// next. The zero Packer is ready to use; it is not safe for concurrent
// use.
type Packer struct {
	bodyPacker, jumpPacker asm.Packer
	bodies, jumps          [][]asm.Inst
	buf, names             []byte   // the chunks records and names are carved from
	syms                   []symRef // the chunk symbol notes are carved from
}

// carve returns an empty slice with room for n bytes at the end of the
// chunk *buf, starting a new chunk when that has too little room.
func carve(buf *[]byte, n int) []byte {
	if cap(*buf)-len(*buf) < n {
		*buf = make([]byte, 0, max(maxChunk/4, n))
	}
	at := len(*buf)
	*buf = (*buf)[:at+n]
	return (*buf)[at : at : at+n]
}

// Pack packs the function of it: its block bodies, and its blocks'
// trailing jumps, each as a sequence of its own, laid out as its PACK
// record. It notes the first operand packing would lose; a graph Append
// will refuse packs to nothing.
func (pk *Packer) Pack(it Item) Packed {
	p := Packed{Item: it}
	g := it.Fn.Graph
	if g == nil {
		return p
	}
	pk.bodies, pk.jumps = pk.bodies[:0], pk.jumps[:0]
	for _, blk := range g.Blocks {
		for k := range blk.Insts {
			if err := blk.Insts[k].Packable(); err != nil && p.err == nil {
				p.err = err
			}
		}
		body := blk.Body()
		pk.bodies, pk.jumps = append(pk.bodies, body), append(pk.jumps, blk.Insts[len(body):])
	}
	pk.record(&p, pk.bodyPacker.PackEach(pk.bodies), pk.jumpPacker.PackEach(pk.jumps))
	return p
}

// record lays out p's PACK record: its packed blocks and their jumps
// column by column (see the PACK layout in the package comment), each
// symbol noted for Append to name.
func (pk *Packer) record(p *Packed, blocks, jumps []asm.Block) {
	ninsts, nargs, ncanon, nprof := 0, 0, 0, 0
	for i := range blocks {
		blk, j := &blocks[i], &jumps[i]
		ninsts, nprof = ninsts+blk.Len(), nprof+len(blk.Prof)
		nargs, ncanon = nargs+len(blk.Args)+len(j.Args), ncanon+len(blk.Canon)+len(j.Canon)
	}
	r := carve(&pk.buf, packHdrSize+packBlkSize*len(blocks)+24*ninsts+packArgSize*nargs+
		packProfSize*nprof+8*(ninsts+2*len(blocks))+align8(ncanon))
	for _, v := range [...]int{len(blocks), ninsts, nargs, ncanon, nprof, 0} {
		r = binary.LittleEndian.AppendUint32(r, uint32(v))
	}
	for i := range blocks {
		r = binary.LittleEndian.AppendUint64(r, blocks[i].Hash)
		r = binary.LittleEndian.AppendUint32(r, uint32(blocks[i].Len()))
		r = binary.LittleEndian.AppendUint32(r, uint32(len(blocks[i].Prof)))
	}
	for i := range blocks {
		r = append(r, bytesOf(blocks[i].KindH)...)
	}
	for i := range blocks {
		r = append(r, bytesOf(blocks[i].Read)...)
	}
	for i := range blocks {
		r = append(r, bytesOf(blocks[i].Write)...)
	}
	if cap(pk.syms)-len(pk.syms) < nargs { // a symbol note per argument at most
		pk.syms = make([]symRef, 0, max(4096, nargs))
	}
	sym0 := len(pk.syms)
	for i := range blocks {
		r = pk.appendArgs(r, blocks[i].Args, blocks[i].Names)
		r = pk.appendArgs(r, jumps[i].Args, jumps[i].Names)
	}
	for i := range blocks {
		r = append(r, bytesOf(blocks[i].Prof)...)
	}
	for i := range blocks {
		r = append(r, bytesOf(blocks[i].KOff)...)
		r = binary.LittleEndian.AppendUint32(r, uint32(len(blocks[i].Canon)+len(jumps[i].Canon)))
	}
	for i := range blocks {
		r = append(r, bytesOf(blocks[i].Off)...)
		r = binary.LittleEndian.AppendUint32(r, uint32(len(blocks[i].Args)+len(jumps[i].Args)))
	}
	for i := range blocks {
		r = append(append(r, blocks[i].Canon...), jumps[i].Canon...)
	}
	var pad [8]byte
	p.rec = append(r, pad[:align8(len(r))-len(r)]...)
	p.syms = pk.syms[sym0:len(pk.syms):len(pk.syms)]
}

// appendArgs appends args to r, each symbol they name, in names, noted
// in pk.syms for Append to replace by its string id.
func (pk *Packer) appendArgs(r []byte, args []asm.PArg, names *asm.Names) []byte {
	at := len(r)
	r = append(r, bytesOf(args)...)
	for k := range args {
		if a := &args[k]; a.SymH != 0 {
			name := names.At(a.Sym)
			pk.syms = append(pk.syms, symRef{at: at + k*packArgSize + 4, name: append(carve(&pk.names, len(name)), name...)})
		}
	}
	return r
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

// WriteTo encodes the accumulated corpus as a complete v4 file without
// the lsh sections.
func (b *Builder) WriteTo(w io.Writer) (int64, error) { return b.WriteLSH(w, nil) }

// WriteLSH encodes the accumulated corpus as a complete v4 file, with an
// LSHB section holding every function's MinHash signature under *lsh,
// signed from its feature set, and an LSHT section with the band table
// sorted from them; with neither when lsh is nil. Invalid parameters fail
// this write only. It leaves the builder as it was.
func (b *Builder) WriteLSH(w io.Writer, lsh *minhash.Params) (int64, error) {
	if b.err != nil {
		return 0, b.err
	}
	if lsh != nil && !lsh.Valid() {
		return 0, fmt.Errorf("idxfile: invalid LSH parameters (%d bands x %d rows)", lsh.Bands, lsh.Rows)
	}
	feat := make([][]byte, len(b.feats))
	for i, fs := range b.feats {
		feat[i] = bytesOf(fs)
	}
	secs := []section{
		{SecSTRB, b.strb.parts()},
		{SecSTRO, b.stro.parts()},
		{SecFUNC, b.funcs.parts()},
		{SecBLCK, b.blcks.parts()},
		{SecSUCC, b.succs.parts()},
		{SecFEAT, feat},
	}
	if lsh != nil {
		var hdr []byte
		hdr = binary.LittleEndian.AppendUint32(hdr, uint32(lsh.Bands))
		hdr = binary.LittleEndian.AppendUint32(hdr, uint32(lsh.Rows))
		hdr = binary.LittleEndian.AppendUint64(hdr, lsh.Seed)
		sigs := b.sign(*lsh)
		secs = append(secs, section{SecLSHB, [][]byte{hdr, bytesOf(sigs)}},
			section{SecLSHT, [][]byte{bytesOf(minhash.BandTable(*lsh, sigs, b.nfuncs))}})
	}
	// PACK: the table of where each function's record starts, counted from
	// the start of the section, then the records.
	packTab := make([]byte, 0, (b.nfuncs+1)*packOffSize)
	off := uint64(b.nfuncs+1) * packOffSize
	for _, r := range b.pack {
		packTab = binary.LittleEndian.AppendUint64(packTab, off)
		off += uint64(len(r))
	}
	packTab = binary.LittleEndian.AppendUint64(packTab, off)
	secs = append(secs, section{SecPACK, append([][]byte{packTab}, b.pack...)})
	return writeSections(w, secs, b.nfuncs)
}

// sign returns every function's MinHash signature under p, function-major,
// signed from its feature set, the functions split evenly over as many
// goroutines as there are CPUs to run them.
func (b *Builder) sign(p minhash.Params) []uint32 {
	k := p.K()
	sigs := make([]uint32, b.nfuncs*k)
	parts := min(runtime.GOMAXPROCS(0), b.nfuncs/64+1)
	var wg sync.WaitGroup
	for w := range parts {
		lo, hi := w*b.nfuncs/parts, (w+1)*b.nfuncs/parts
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				minhash.Signature(sigs[i*k:(i+1)*k], b.feats[i], p)
			}
		}()
	}
	wg.Wait()
	return sigs
}

// writeSections writes a v4 file of secs, which hold nfuncs functions.
func writeSections(w io.Writer, secs []section, nfuncs int) (int64, error) {
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
	binary.LittleEndian.PutUint64(hdr[24:], uint64(nfuncs))
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
