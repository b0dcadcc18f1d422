package idxfile

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"unsafe"

	"repro/internal/asm"
	"repro/internal/cfg"
	"repro/internal/minhash"
	"repro/internal/prep"
)

// SectionInfo describes one section of a parsed file, for tracy idxinfo
// and tests.
type SectionInfo struct {
	Name    string
	Offset  uint64
	Len     uint64
	CRC     uint32
	Records int // record count (0 for byte-granular sections)
}

// File is a parsed v4 index. All accessors are safe for any number of
// concurrent readers; nothing in a File mutates after Parse. The backing
// data is either an mmap region (Open) or a heap buffer (Parse over
// bytes from any reader).
type File struct {
	data []byte // whole file
	path string // "" when parsed from memory

	strtab string    // one heap copy of STRB; string values slice into it
	names  asm.Names // the same copy and STRO's offsets, as packed blocks name their symbols

	funcs []byte // FUNC payload
	blcks []byte
	succs []uint32 // SUCC as native u32s (zero-copy when 4-aligned)
	feats []uint64 // FEAT as native u64s (zero-copy when 8-aligned)

	pack    []byte   // PACK payload, 8-aligned (zero-copy when the buffer is)
	packOff []uint64 // its function table: nfuncs+1 offsets into pack

	lshParams minhash.Params // valid iff hasLSH
	lshSigs   []uint32       // nfuncs*K() values, function-major (zero-copy when 4-aligned)
	lshTable  []uint32       // LSHT: Bands runs of nfuncs ids, nil when absent (zero-copy when 4-aligned)
	hasLSH    bool

	sections []SectionInfo
	nfuncs   int

	mapped  []byte // non-nil iff the data is an mmap region owned by this File
	cleanup func() // unmaps; set by Open
}

// corruptError is the typed "this is not a valid index" failure; every
// validation path returns one so callers (and the fuzzer) can tell
// corruption from I/O errors.
type corruptError struct{ msg string }

func (e *corruptError) Error() string { return "idxfile: corrupt index: " + e.msg }

func corruptf(format string, args ...any) error {
	return &corruptError{msg: fmt.Sprintf(format, args...)}
}

// IsCorrupt reports whether err marks, or wraps the mark of, a
// structurally invalid index file: what Parse refuses at open, and what a
// function whose records fail their checks yields at first touch.
func IsCorrupt(err error) bool {
	var ce *corruptError
	return errors.As(err, &ce)
}

// SniffVersion inspects a file prelude (>= 9 bytes) and returns the
// TRACYIDX format version it announces: 4 for this package's format, 3
// for the columnar format before it, 1/2 for the headered gob formats, 0
// for a headerless v0 gob payload or anything unrecognized.
func SniffVersion(prelude []byte) int {
	if len(prelude) < len(Magic)+1 || string(prelude[:len(Magic)]) != Magic {
		return 0
	}
	return int(prelude[len(Magic)])
}

// Parse validates data as a v4 file and returns a File reading from it.
// The caller keeps ownership of data and must not mutate it.
//
// Parse checks what every reader depends on and what costs no more than
// the functions are many: the header, the section directory (every
// offset/length against the file size), the string offsets, every FUNC
// record against the pools it points into, and the shapes of the LSHB,
// LSHT and PACK sections. A function's own records are checked when it is
// first read (PackedFunc, DecodeFunc), so opening never walks the
// instructions. Section payload checksums are NOT verified here
// (that would force every page resident, defeating lazy loading); use
// Verify for an integrity pass.
func Parse(data []byte) (*File, error) {
	f := &File{data: data}
	if err := f.parseHeader(); err != nil {
		return nil, err
	}
	if err := f.checkFuncs(); err != nil {
		return nil, err
	}
	return f, nil
}

// readSections checks the header and section directory of a TRACYIDX
// file — magic, file size, directory checksum, every section inside the
// file, 8-aligned and named once — and returns the version the header
// announces, its function count and every section's payload by name, each
// a slice of data, and the directory's entries. parseHeader checks the
// version and the sections a v4 file needs on top of it.
func readSections(data []byte) (version, nfuncs int, secs []SectionInfo, payloads map[string][]byte, err error) {
	if len(data) < headerSize {
		return 0, 0, nil, nil, corruptf("file shorter than header (%d bytes)", len(data))
	}
	if string(data[:len(Magic)]) != Magic {
		return 0, 0, nil, nil, corruptf("bad magic")
	}
	nsec := binary.LittleEndian.Uint32(data[12:])
	fileSize := binary.LittleEndian.Uint64(data[16:])
	nf := binary.LittleEndian.Uint64(data[24:])
	dirCRC := binary.LittleEndian.Uint32(data[32:])
	if fileSize != uint64(len(data)) {
		return 0, 0, nil, nil, corruptf("header file size %d, real size %d", fileSize, len(data))
	}
	if nsec > 64 {
		return 0, 0, nil, nil, corruptf("section count %d out of range", nsec)
	}
	dirLen := int(nsec) * dirEntrySize
	if headerSize+dirLen > len(data) {
		return 0, 0, nil, nil, corruptf("section directory overruns file")
	}
	dir := data[headerSize : headerSize+dirLen]
	if got := crc32.Checksum(dir, crcTable); got != dirCRC {
		return 0, 0, nil, nil, corruptf("section directory checksum %08x, want %08x", got, dirCRC)
	}
	if nf > uint64(len(data)/funcRecSize) {
		return 0, 0, nil, nil, corruptf("function count %d impossible for %d-byte file", nf, len(data))
	}
	payloads = make(map[string][]byte, nsec)
	for i := 0; i < int(nsec); i++ {
		e := dir[i*dirEntrySize:]
		name := sectionName(binary.LittleEndian.Uint32(e))
		off := binary.LittleEndian.Uint64(e[8:])
		length := binary.LittleEndian.Uint64(e[16:])
		crc := binary.LittleEndian.Uint32(e[24:])
		if off%8 != 0 {
			return 0, 0, nil, nil, corruptf("section %s misaligned at offset %d", name, off)
		}
		if off > uint64(len(data)) || length > uint64(len(data))-off {
			return 0, 0, nil, nil, corruptf("section %s [%d,+%d) overruns %d-byte file", name, off, length, len(data))
		}
		if _, dup := payloads[name]; dup {
			return 0, 0, nil, nil, corruptf("duplicate section %s", name)
		}
		payloads[name] = data[off : off+length]
		secs = append(secs, SectionInfo{Name: name, Offset: off, Len: length, CRC: crc})
	}
	return int(data[len(Magic)]), int(nf), secs, payloads, nil
}

func (f *File) parseHeader() error {
	version, nfuncs, secs, payloads, err := readSections(f.data)
	if err != nil {
		return err
	}
	if version != Version {
		return corruptf("format v%d, want v%d", version, Version)
	}
	f.nfuncs, f.sections = nfuncs, secs
	recSizes := map[string]int{
		SecSTRO: stroRecSize, SecFUNC: funcRecSize, SecBLCK: blckRecSize,
		SecSUCC: succRecSize, SecFEAT: featRecSize, SecLSHT: lshtRecSize,
	}
	for _, name := range requiredSections {
		p, ok := payloads[name]
		if !ok {
			return corruptf("missing section %s", name)
		}
		if rs := recSizes[name]; rs != 0 && len(p)%rs != 0 {
			return corruptf("section %s length %d not a multiple of its %d-byte record", name, len(p), rs)
		}
	}
	for i := range f.sections {
		s := &f.sections[i]
		if rs := recSizes[s.Name]; rs != 0 {
			s.Records = int(s.Len) / rs
		}
		if s.Name == SecLSHB || s.Name == SecPACK {
			s.Records = f.nfuncs // one record a function
		}
	}

	// The string table: one heap copy of the bytes, seen as a string by the
	// decoders and as a name table by packed blocks; every string value is
	// a slice of it, so neither decoded functions nor names alias the
	// mapping.
	tab := append([]byte(nil), payloads[SecSTRB]...)
	f.strtab = unsafe.String(unsafe.SliceData(tab), len(tab))
	strob := payloads[SecSTRO]
	if len(strob) == 0 {
		return corruptf("empty string offset table")
	}
	stro := make([]uint32, len(strob)/stroRecSize)
	prev := uint32(0)
	for i := range stro {
		v := binary.LittleEndian.Uint32(strob[i*stroRecSize:])
		if v < prev || v > uint32(len(tab)) {
			return corruptf("string offset %d at entry %d not monotonic within table", v, i)
		}
		stro[i] = v
		prev = v
	}
	if stro[0] != 0 {
		return corruptf("string offsets must start at 0")
	}
	f.names = asm.Names{Tab: tab, Off: stro}

	f.funcs = payloads[SecFUNC]
	f.blcks = payloads[SecBLCK]
	f.succs = column[uint32](payloads[SecSUCC])
	if f.nfuncs != len(f.funcs)/funcRecSize {
		return corruptf("header says %d functions, FUNC holds %d", f.nfuncs, len(f.funcs)/funcRecSize)
	}

	f.feats = column[uint64](payloads[SecFEAT])

	if lshb, ok := payloads[SecLSHB]; ok {
		if err := f.parseLSH(lshb); err != nil {
			return err
		}
	}
	if lsht, ok := payloads[SecLSHT]; ok {
		if err := f.parseLSHTable(lsht); err != nil {
			return err
		}
	}
	return f.parsePack(payloads[SecPACK])
}

// view returns the first n values of b as native Ts. b must be aligned for
// T and hold them.
func view[T any](b []byte, n int) []T {
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n)
}

// column returns b as native Ts: a zero-copy view when b is aligned for T
// (always, for a section of a mapping), one copy otherwise (a heap buffer
// handed to Parse need not be aligned).
func column[T uint32 | uint64](b []byte) []T {
	n := len(b) / int(unsafe.Sizeof(T(0)))
	if n == 0 {
		return nil
	}
	if uintptr(unsafe.Pointer(&b[0]))%unsafe.Sizeof(T(0)) == 0 {
		return view[T](b, n)
	}
	out := make([]T, n)
	copy(bytesOf(out), b)
	return out
}

// parseLSH validates and adopts the optional LSHB section. The length
// check is exact — header plus nfuncs·k signature values and nothing
// else — so every LSHSig call is in bounds by construction.
func (f *File) parseLSH(p []byte) error {
	if len(p) < lshHdrSize {
		return corruptf("section LSHB shorter than its %d-byte header (%d bytes)", lshHdrSize, len(p))
	}
	params := minhash.Params{
		Bands: int(binary.LittleEndian.Uint32(p)),
		Rows:  int(binary.LittleEndian.Uint32(p[4:])),
		Seed:  binary.LittleEndian.Uint64(p[8:]),
	}
	if !params.Valid() {
		return corruptf("section LSHB has unusable parameters (%d bands x %d rows)", params.Bands, params.Rows)
	}
	k := uint64(params.K())
	want := uint64(lshHdrSize) + uint64(f.nfuncs)*k*lshSigSize
	if uint64(len(p)) != want {
		return corruptf("section LSHB length %d, want exactly %d for %d functions x k=%d",
			len(p), want, f.nfuncs, k)
	}
	f.lshSigs = column[uint32](p[lshHdrSize:])
	f.lshParams = params
	f.hasLSH = true
	return nil
}

// parseLSHTable validates and adopts the optional LSHT section against
// the geometry LSHB announced. The length check is exact and every band
// must be a permutation of [0, nfuncs): a probe counts an id once per
// band it collides in, and a repeated id would push that count past
// Bands, the size of the table the ranking selects from. The (band hash,
// id) order inside a band is not checked here but by Verify: it costs a
// hash per entry, and a mis-sorted band only makes a probe return the
// wrong stretch of it, never read out of range.
func (f *File) parseLSHTable(p []byte) error {
	if !f.hasLSH {
		return corruptf("section LSHT without the LSHB section it indexes")
	}
	bands := f.lshParams.Bands
	want := uint64(bands) * uint64(f.nfuncs) * lshtRecSize
	if uint64(len(p)) != want {
		return corruptf("section LSHT length %d, want exactly %d for %d bands x %d functions",
			len(p), want, bands, f.nfuncs)
	}
	table := column[uint32](p)
	n := f.nfuncs
	seenIn := make([]uint32, n) // 1 + the last band that listed the id
	for b := 0; b < bands; b++ {
		for _, id := range table[b*n : (b+1)*n] {
			if id >= uint32(n) {
				return corruptf("section LSHT band %d: function id %d of %d", b, id, n)
			}
			if seenIn[id] == uint32(b)+1 {
				return corruptf("section LSHT band %d: function id %d listed twice", b, id)
			}
			seenIn[id] = uint32(b) + 1
		}
	}
	f.lshTable = table
	return nil
}

// parsePack checks the shape of the PACK section and adopts it: a
// length that holds the function table in whole words, and a table that
// starts right behind itself and ends at the section's end. Where each
// function's record lies in between, and what is in it, is checked when
// the function is read (PackedFunc).
func (f *File) parsePack(p []byte) error {
	tab := uint64(f.nfuncs+1) * packOffSize
	if len(p)%8 != 0 || uint64(len(p)) < tab {
		return corruptf("section PACK length %d, want a multiple of 8 of at least %d for %d functions", len(p), tab, f.nfuncs)
	}
	p = bytesOf(column[uint64](p))
	off := view[uint64](p, f.nfuncs+1)
	if off[0] != tab || off[f.nfuncs] != uint64(len(p)) {
		return corruptf("section PACK function table spans [%d,%d), want [%d,%d)", off[0], off[f.nfuncs], tab, len(p))
	}
	f.pack, f.packOff = p, off
	return nil
}

// checkFuncs checks every FUNC record against the tables it points into:
// string ids, the block range, the entry block and the feature range.
// Forty bytes a function, pure integer work; what the blocks in turn
// point at is checked when the function is read.
func (f *File) checkFuncs() error {
	nstr := uint32(f.names.Len())
	nBlocks := uint32(len(f.blcks) / blckRecSize)
	nFeats := uint32(len(f.feats))
	for i := 0; i < f.nfuncs; i++ {
		r := f.funcs[i*funcRecSize:]
		exe := binary.LittleEndian.Uint32(r)
		name := binary.LittleEndian.Uint32(r[4:])
		truth := binary.LittleEndian.Uint32(r[8:])
		entry := binary.LittleEndian.Uint32(r[16:])
		blockOff := binary.LittleEndian.Uint32(r[20:])
		nblocks := binary.LittleEndian.Uint32(r[24:])
		featOff := binary.LittleEndian.Uint32(r[28:])
		nfeats := binary.LittleEndian.Uint32(r[32:])
		if exe >= nstr || name >= nstr || truth >= nstr {
			return corruptf("function %d: string id out of table (%d strings)", i, nstr)
		}
		if nblocks == 0 || blockOff > nBlocks || nblocks > nBlocks-blockOff {
			return corruptf("function %d: block range [%d,+%d) of %d", i, blockOff, nblocks, nBlocks)
		}
		if entry >= nblocks {
			return corruptf("function %d: entry block %d of %d", i, entry, nblocks)
		}
		if featOff > nFeats || nfeats > nFeats-featOff {
			return corruptf("function %d: feature range [%d,+%d) of %d", i, featOff, nfeats, nFeats)
		}
	}
	return nil
}

// Verify is the integrity pass behind tracy idxinfo -verify and tracy
// convert. It recomputes every section checksum against the directory,
// makes DecodeFunc's one walk over every function — every record check
// Parse leaves to first touch — checks that every LSHT band is in (band
// hash, id) order, and packs every rebuilt function afresh to see that the
// columns PACK derives from the instructions (kind and content hashes,
// register masks, kind profiles) still agree with the packed view the walk
// checked. It touches every page of the file.
func (f *File) Verify() error {
	for _, s := range f.sections {
		got := crc32.Checksum(f.data[s.Offset:s.Offset+s.Len], crcTable)
		if got != s.CRC {
			return corruptf("section %s checksum %08x, want %08x", s.Name, got, s.CRC)
		}
	}
	for i := 0; i < f.nfuncs; i++ {
		pf, fn, err := f.decode(i)
		if err != nil {
			return err
		}
		if err := packedAgrees(pf, fn); err != nil {
			return corruptf("function %d: section PACK disagrees with its own instructions: %v", i, err)
		}
	}
	if f.lshTable == nil {
		return nil
	}
	p, n := f.lshParams, f.nfuncs
	for b := 0; b < p.Bands; b++ {
		var prevH uint64
		var prevID uint32
		for i, id := range f.lshTable[b*n : (b+1)*n] {
			h := minhash.BandHash(f.LSHSig(int(id)), b, p)
			if i > 0 && (h < prevH || (h == prevH && id <= prevID)) {
				return corruptf("section LSHT band %d: entry %d (function %d) out of (band hash, id) order", b, i, id)
			}
			prevH, prevID = h, id
		}
	}
	return nil
}

// packedAgrees reports how the stored packed form of a function differs
// from what packing the rebuilt function gives, nil when it does not.
func packedAgrees(pf PackedFunc, fn *prep.Function) error {
	g := fn.Graph
	bodies := make([][]asm.Inst, len(g.Blocks))
	for b, blk := range g.Blocks {
		bodies[b] = blk.Body()
	}
	for b, want := range asm.PackEach(bodies) {
		if got := &pf.Blocks[b]; got.Hash != want.Hash || !slices.Equal(got.Prof, want.Prof) || !got.Same(&want.Packed) {
			return fmt.Errorf("block %d is not what its instructions pack to", b)
		}
	}
	return nil
}

// NumFuncs returns the number of indexed functions.
func (f *File) NumFuncs() int { return f.nfuncs }

// Path returns the file path backing the mapping, or "" when parsed
// from memory.
func (f *File) Path() string { return f.path }

// Size returns the total file size in bytes.
func (f *File) Size() int64 { return int64(len(f.data)) }

// Sections returns the section directory (a copy; safe to retain).
func (f *File) Sections() []SectionInfo {
	return append([]SectionInfo(nil), f.sections...)
}

// Mapped reports whether the file is backed by an mmap region (as
// opposed to a heap buffer).
func (f *File) Mapped() bool { return f.mapped != nil }

func (f *File) str(id uint32) string {
	return f.strtab[f.names.Off[id]:f.names.Off[id+1]]
}

// Meta is the cheap per-function metadata: everything an index entry
// needs without decoding the function body.
type Meta struct {
	Exe   string
	Name  string
	Truth string
	Addr  uint32
}

// Meta returns the metadata of function i.
func (f *File) Meta(i int) Meta {
	r := f.funcs[i*funcRecSize:]
	return Meta{
		Exe:   f.str(binary.LittleEndian.Uint32(r)),
		Name:  f.str(binary.LittleEndian.Uint32(r[4:])),
		Truth: f.str(binary.LittleEndian.Uint32(r[8:])),
		Addr:  binary.LittleEndian.Uint32(r[12:]),
	}
}

// Features returns function i's prefilter feature slice. The slice
// aliases the file mapping (zero copy); it stays valid exactly as long
// as the File is not Closed.
func (f *File) Features(i int) []uint64 {
	r := f.funcs[i*funcRecSize:]
	off := binary.LittleEndian.Uint32(r[28:])
	n := binary.LittleEndian.Uint32(r[32:])
	return f.feats[off : off+n : off+n]
}

// HasLSH reports whether the file carries an LSHB MinHash signature
// section (files written before the lsh prefilter existed do not).
func (f *File) HasLSH() bool { return f.hasLSH }

// LSHParams returns the banding parameters the signatures were computed
// under (the zero Params when HasLSH is false).
func (f *File) LSHParams() minhash.Params {
	if !f.hasLSH {
		return minhash.Params{}
	}
	return f.lshParams
}

// LSHSig returns function i's MinHash signature (K values). The slice
// may alias the file mapping; it stays valid exactly as long as the
// File is not Closed. It returns nil when HasLSH is false.
func (f *File) LSHSig(i int) []uint32 {
	if !f.hasLSH {
		return nil
	}
	k := f.lshParams.K()
	return f.lshSigs[i*k : (i+1)*k : (i+1)*k]
}

// LSHSigs returns the whole signature pool, function-major — what a
// snapshot adopts wholesale to probe band buckets. Nil when HasLSH is
// false. Like LSHSig it may alias the file mapping.
func (f *File) LSHSigs() []uint32 { return f.lshSigs }

// LSHTable returns the persisted sorted band table (see the LSHT layout
// in the package comment): Bands runs of NumFuncs ids, each a validated
// permutation of [0, NumFuncs). Nil when the file has no LSHT section
// (or no functions); callers then sort one from LSHSigs with
// minhash.BandTable. It may alias the file mapping.
func (f *File) LSHTable() []uint32 { return f.lshTable }

// PackedFunc is a function as the PACK section stores it: what
// core.DecomposeBlocks consumes.
type PackedFunc struct {
	Name     string
	Blocks   []asm.Block // the graph's blocks, in order, aliasing the file
	NumInsts int         // instructions of the function, jumps included
}

// PackedFunc returns function i in packed form, every column of every
// block a slice of the file — one allocation, the slice of blocks — and
// the symbols named in the file's heap copy of the string table. The
// blocks stay valid exactly as long as the File is not Closed, and whoever
// keeps them must keep the File reachable. The function's records are
// checked first (see record), so that comparing the blocks reads nothing
// unchecked; a record that fails yields the typed error IsCorrupt
// recognizes. Safe for concurrent callers.
func (f *File) PackedFunc(i int) (PackedFunc, error) {
	return f.record(i, nil, nil)
}

// packBlk is the per-block entry of a PACK function record.
type packBlk struct {
	hash   uint64
	ninsts uint32
	nprof  uint32
}

// record reads and checks function i's PACK record and its blocks' BLCK
// and SUCC records — the record's place, length and counts, each block's
// successors, its body as asm.Packed.Check checks it and its jump slot as
// asm.CheckInst does — in the one walk over a record that PackedFunc,
// DecodeFunc and Verify all refuse through. With u non-nil it rebuilds each
// instruction at the step that checks it (asm.Unpacker.Check), in memory of
// u's sized from the checked counts, and sets blocks[b].Insts to block b's.
func (f *File) record(i int, u *asm.Unpacker, blocks []cfg.Block) (PackedFunc, error) {
	r := f.funcs[i*funcRecSize:]
	blockOff := int(binary.LittleEndian.Uint32(r[20:]))
	nblocks := int(binary.LittleEndian.Uint32(r[24:]))

	lo, hi := f.packOff[i], f.packOff[i+1]
	if lo%8 != 0 || lo > hi || hi > uint64(len(f.pack)) || hi-lo < packHdrSize {
		return PackedFunc{}, corruptf("function %d: PACK record [%d,%d) of %d bytes", i, lo, hi, len(f.pack))
	}
	rec := f.pack[lo:hi]
	hdr := view[uint32](rec, packHdrSize/4)
	ninsts, nargs, ncanon, nprof := uint64(hdr[1]), uint64(hdr[2]), uint64(hdr[3]), uint64(hdr[4])
	if int(hdr[0]) != nblocks {
		return PackedFunc{}, corruptf("function %d: PACK holds %d blocks, FUNC %d", i, hdr[0], nblocks)
	}
	nb := uint64(nblocks)
	if want := packHdrSize + packBlkSize*nb + 24*ninsts + packArgSize*nargs + packProfSize*nprof +
		8*(ninsts+2*nb) + (ncanon+7)&^7; want != uint64(len(rec)) {
		return PackedFunc{}, corruptf("function %d: PACK record of %d bytes, its counts want %d", i, len(rec), want)
	}
	// The columns, in file order; each count is now known to fit in rec.
	cut := func(n uint64) []byte {
		col := rec[:n]
		rec = rec[n:]
		return col
	}
	cut(packHdrSize)
	meta := view[packBlk](cut(packBlkSize*nb), nblocks)
	kindH := view[uint64](cut(8*ninsts), int(ninsts))
	read := view[uint64](cut(8*ninsts), int(ninsts))
	write := view[uint64](cut(8*ninsts), int(ninsts))
	args := view[asm.PArg](cut(packArgSize*nargs), int(nargs))
	prof := view[asm.KindCount](cut(packProfSize*nprof), int(nprof))
	// Per block ninsts+2 offsets: as the blocks' counts add up to ninsts,
	// a block's share is in range whenever its kind hashes are.
	kOff := view[int32](cut(4*(ninsts+2*nb)), int(ninsts+2*nb))
	off := view[int32](cut(4*(ninsts+2*nb)), int(ninsts+2*nb))
	canon := rec[:ncanon]

	if u != nil {
		// Every direct operand and every memory term takes one of the
		// function's arguments, and a block holds its body and a jump at most.
		u.Ops, u.Mems, u.Insts = make([]asm.Operand, 0, nargs), make([]asm.MemTerm, 0, nargs), make([]asm.Inst, 0, ninsts+nb)
	}
	out := PackedFunc{Name: f.str(binary.LittleEndian.Uint32(r[4:])), Blocks: make([]asm.Block, nblocks)}
	for bi := range out.Blocks {
		succs, err := f.succsOf(i, blockOff, nblocks, bi)
		if err != nil {
			return PackedFunc{}, err
		}
		m := meta[bi]
		n, np := int(m.ninsts), int(m.nprof)
		if n > len(kindH) || np > len(prof) {
			return PackedFunc{}, corruptf("function %d block %d: PACK block counts run past the function's", i, bi)
		}
		blk := &out.Blocks[bi]
		blk.Hash, blk.Succs, blk.Names = m.hash, succs, &f.names
		blk.KindH, kindH = kindH[:n:n], kindH[n:]
		blk.Read, read = read[:n:n], read[n:]
		blk.Write, write = write[:n:n], write[n:]
		blk.Prof, prof = prof[:np:np], prof[np:]
		blk.KOff, blk.Off = kOff[:n+1:n+1], off[:n+1:n+1]
		// The body's stretch ends at its last offsets, the jump slot's at the
		// ones behind them.
		nc, na, jc, ja := int(kOff[n]), int(off[n]), int(kOff[n+1]), int(off[n+1])
		kOff, off = kOff[n+2:], off[n+2:]
		if nc < 0 || nc > jc || jc > len(canon) || na < 0 || na > ja || ja > len(args) {
			return PackedFunc{}, corruptf("function %d block %d: PACK offsets run past the function's encodings or arguments", i, bi)
		}
		blk.Canon, blk.Args = canon[:nc:nc], args[:na:na]
		first := out.NumInsts
		if err := u.Check(&blk.Packed); err != nil {
			return PackedFunc{}, corruptf("function %d block %d: PACK %v", i, bi, err)
		}
		out.NumInsts += n
		// An empty jump slot is no jump; anything else must be one instruction.
		if jc > nc || ja > na {
			jk, jo := [2]int32{0, int32(jc - nc)}, [2]int32{0, int32(ja - na)}
			jump := asm.Packed{Canon: canon[nc:jc], KOff: jk[:], Off: jo[:], Args: args[na:ja], Names: &f.names}
			if err := u.Check(&jump); err != nil {
				return PackedFunc{}, corruptf("function %d block %d: PACK jump %v", i, bi, err)
			}
			out.NumInsts++
		}
		if u != nil && out.NumInsts > first {
			blocks[bi].Insts = u.Insts[first:out.NumInsts:out.NumInsts]
		}
		canon, args = canon[jc:], args[ja:]
	}
	if len(kindH)+len(prof)+len(canon)+len(args) != 0 {
		return PackedFunc{}, corruptf("function %d: PACK blocks do not add up to the function's counts", i)
	}
	return out, nil
}

// succsOf reads the successors of block bi of the nblocks BLCK records of
// function i that start at blockOff, checking their range and every one.
func (f *File) succsOf(i, blockOff, nblocks, bi int) ([]uint32, error) {
	br := f.blcks[(blockOff+bi)*blckRecSize:]
	succOff := binary.LittleEndian.Uint32(br[4:])
	nsuccs := binary.LittleEndian.Uint32(br[8:])
	if nSuccs := uint32(len(f.succs)); succOff > nSuccs || nsuccs > nSuccs-succOff {
		return nil, corruptf("function %d block %d: successor range [%d,+%d) of %d", i, bi, succOff, nsuccs, len(f.succs))
	}
	succs := f.succs[succOff : succOff+nsuccs : succOff+nsuccs]
	for _, s := range succs {
		if s >= uint32(nblocks) {
			return nil, corruptf("function %d block %d: successor %d of %d blocks", i, bi, s, nblocks)
		}
	}
	return succs, nil
}

// DecodeFunc materializes function i as a lifted prep.Function,
// identical field for field to the function that was written: record
// rebuilds each body instruction from its PACK encoding and arguments and
// each block's trailing jump from its jump slot where it checks them, and
// DecodeFunc lays out the blocks and successors. It refuses what
// PackedFunc refuses, with the same error. Instructions, operands, memory
// terms, blocks and successors are each carved from one array for the
// whole function, so a decode costs a fixed handful of allocations
// whatever its size. Safe for concurrent callers.
func (f *File) DecodeFunc(i int) (*prep.Function, error) {
	_, fn, err := f.decode(i)
	return fn, err
}

// decode is DecodeFunc that also returns the packed view its walk checked.
func (f *File) decode(i int) (PackedFunc, *prep.Function, error) {
	r := f.funcs[i*funcRecSize:]
	blockOff, nblocks := int(binary.LittleEndian.Uint32(r[20:])), int(binary.LittleEndian.Uint32(r[24:]))
	blocks := make([]cfg.Block, nblocks) // Parse has checked nblocks against BLCK
	pf, err := f.record(i, &asm.Unpacker{Sym: f.str}, blocks)
	if err != nil {
		return PackedFunc{}, nil, err
	}
	nsuccs := 0
	for bi := range pf.Blocks {
		nsuccs += len(pf.Blocks[bi].Succs)
	}
	succBuf := make([]int, 0, nsuccs)
	g := &cfg.Graph{Name: pf.Name, Entry: int(binary.LittleEndian.Uint32(r[16:])), Blocks: make([]*cfg.Block, len(pf.Blocks))}
	for bi := range blocks {
		blk := &blocks[bi]
		blk.Index = bi
		blk.Addr = binary.LittleEndian.Uint32(f.blcks[(blockOff+bi)*blckRecSize:])
		if succs := pf.Blocks[bi].Succs; len(succs) > 0 {
			s := len(succBuf)
			for _, v := range succs {
				succBuf = append(succBuf, int(v))
			}
			blk.Succs = succBuf[s:len(succBuf):len(succBuf)]
		}
		g.Blocks[bi] = blk
	}
	return pf, &prep.Function{Name: pf.Name, Addr: binary.LittleEndian.Uint32(r[12:]), Graph: g}, nil
}

// Close releases the mapping when the File came from Open; for a File
// parsed from a caller-owned buffer it is a no-op. After Close every
// Features slice and raw section view is invalid — callers must prove
// nothing derived from the mapping is still reachable (the serving layer
// instead drops its reference and lets the finalizer unmap).
func (f *File) Close() error {
	if f.cleanup != nil {
		c := f.cleanup
		f.cleanup = nil
		c()
	}
	return nil
}
