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

// File is a parsed v3 index. All accessors are safe for any number of
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
	insts []byte
	opnds []byte
	memts []byte
	succs []uint32 // SUCC as native u32s (zero-copy when 4-aligned)
	feats []uint64 // FEAT as native u64s (zero-copy when 8-aligned)

	pack    []byte   // PACK payload, 8-aligned (zero-copy when the buffer is); nil when absent
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

// corruptError is the typed "this is not a valid v3 index" failure; every
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
// TRACYIDX format version it announces: 3 for this package's format,
// 1/2 for the headered gob formats, 0 for a headerless v0 gob payload
// or anything unrecognized.
func SniffVersion(prelude []byte) int {
	if len(prelude) < len(Magic)+1 || string(prelude[:len(Magic)]) != Magic {
		return 0
	}
	return int(prelude[len(Magic)])
}

// Parse validates data as a v3 file and returns a File reading from it.
// The caller keeps ownership of data and must not mutate it.
//
// Parse checks what every reader depends on and what costs no more than
// the functions are many: the header, the section directory (every
// offset/length against the file size), the string offsets, every FUNC
// record against the pools it points into, and the shapes of the LSHB,
// LSHT and PACK sections. A function's own records are checked when it is
// first read (DecodeFunc, PackedFunc), so opening never walks the
// instruction columns. Section payload checksums are NOT verified here
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

func (f *File) parseHeader() error {
	data := f.data
	if len(data) < headerSize {
		return corruptf("file shorter than header (%d bytes)", len(data))
	}
	if string(data[:len(Magic)]) != Magic {
		return corruptf("bad magic")
	}
	if v := data[8]; v != Version {
		return corruptf("format v%d, want v%d", v, Version)
	}
	nsec := binary.LittleEndian.Uint32(data[12:])
	fileSize := binary.LittleEndian.Uint64(data[16:])
	nfuncs := binary.LittleEndian.Uint64(data[24:])
	dirCRC := binary.LittleEndian.Uint32(data[32:])
	if fileSize != uint64(len(data)) {
		return corruptf("header file size %d, real size %d", fileSize, len(data))
	}
	if nsec < uint32(len(requiredSections)) || nsec > 64 {
		return corruptf("section count %d out of range", nsec)
	}
	dirLen := int(nsec) * dirEntrySize
	if headerSize+dirLen > len(data) {
		return corruptf("section directory overruns file")
	}
	dir := data[headerSize : headerSize+dirLen]
	if got := crc32.Checksum(dir, crcTable); got != dirCRC {
		return corruptf("section directory checksum %08x, want %08x", got, dirCRC)
	}
	if nfuncs > uint64(len(data)/funcRecSize) {
		return corruptf("function count %d impossible for %d-byte file", nfuncs, len(data))
	}
	f.nfuncs = int(nfuncs)

	payloads := make(map[string][]byte, nsec)
	for i := 0; i < int(nsec); i++ {
		e := dir[i*dirEntrySize:]
		name := sectionName(binary.LittleEndian.Uint32(e))
		off := binary.LittleEndian.Uint64(e[8:])
		length := binary.LittleEndian.Uint64(e[16:])
		crc := binary.LittleEndian.Uint32(e[24:])
		if off%8 != 0 {
			return corruptf("section %s misaligned at offset %d", name, off)
		}
		if off > uint64(len(data)) || length > uint64(len(data))-off {
			return corruptf("section %s [%d,+%d) overruns %d-byte file", name, off, length, len(data))
		}
		if _, dup := payloads[name]; dup {
			return corruptf("duplicate section %s", name)
		}
		payloads[name] = data[off : off+length]
		f.sections = append(f.sections, SectionInfo{Name: name, Offset: off, Len: length, CRC: crc})
	}
	recSizes := map[string]int{
		SecSTRO: stroRecSize, SecFUNC: funcRecSize, SecBLCK: blckRecSize,
		SecINST: instRecSize, SecOPND: opndRecSize, SecMEMT: memtRecSize,
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
	f.insts = payloads[SecINST]
	f.opnds = payloads[SecOPND]
	f.memts = payloads[SecMEMT]
	f.succs = u32View(payloads[SecSUCC])
	if f.nfuncs != len(f.funcs)/funcRecSize {
		return corruptf("header says %d functions, FUNC holds %d", f.nfuncs, len(f.funcs)/funcRecSize)
	}

	featb := payloads[SecFEAT]
	if len(featb) == 0 {
		f.feats = nil
	} else if uintptr(unsafe.Pointer(&featb[0]))%8 == 0 {
		f.feats = unsafe.Slice((*uint64)(unsafe.Pointer(&featb[0])), len(featb)/featRecSize)
	} else {
		// A heap buffer handed to Parse need not be 8-aligned; copy once.
		f.feats = make([]uint64, len(featb)/featRecSize)
		for i := range f.feats {
			f.feats[i] = binary.LittleEndian.Uint64(featb[i*featRecSize:])
		}
	}

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
	if pack, ok := payloads[SecPACK]; ok {
		if err := f.parsePack(pack); err != nil {
			return err
		}
	}
	return nil
}

// view returns the first n values of b as native Ts. b must be aligned for
// T and hold them.
func view[T any](b []byte, n int) []T {
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n)
}

// u32View returns b as native u32s: a zero-copy view when b is 4-aligned
// (always, for a section of a mapping), one decoded copy otherwise (a
// heap buffer handed to Parse need not be aligned).
func u32View(b []byte) []uint32 {
	n := len(b) / 4
	if n == 0 {
		return nil
	}
	if uintptr(unsafe.Pointer(&b[0]))%4 == 0 {
		return unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(b[i*4:])
	}
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
	f.lshSigs = u32View(p[lshHdrSize:])
	f.lshParams = params
	f.hasLSH = true
	// Surface a per-function record count in idxinfo's section table.
	for i := range f.sections {
		if f.sections[i].Name == SecLSHB {
			f.sections[i].Records = f.nfuncs
		}
	}
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
	table := u32View(p)
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

// parsePack checks the shape of the optional PACK section and adopts it: a
// length that holds the function table in whole words, and a table that
// starts right behind itself and ends at the section's end. Where each
// function's record lies in between, and what is in it, is checked when
// the function is read (PackedFunc).
func (f *File) parsePack(p []byte) error {
	tab := uint64(f.nfuncs+1) * packOffSize
	if len(p)%8 != 0 || uint64(len(p)) < tab {
		return corruptf("section PACK length %d, want a multiple of 8 of at least %d for %d functions", len(p), tab, f.nfuncs)
	}
	if uintptr(unsafe.Pointer(&p[0]))%8 != 0 {
		// A heap buffer handed to Parse need not be 8-aligned; copy once.
		p = append(bytesOf(make([]uint64, len(p)/8))[:0], p...)
	}
	off := view[uint64](p, f.nfuncs+1)
	if off[0] != tab || off[f.nfuncs] != uint64(len(p)) {
		return corruptf("section PACK function table spans [%d,%d), want [%d,%d)", off[0], off[f.nfuncs], tab, len(p))
	}
	f.pack, f.packOff = p, off
	for i := range f.sections {
		if f.sections[i].Name == SecPACK {
			f.sections[i].Records = f.nfuncs
		}
	}
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
// reads every function the way a query would — so every record check that
// Parse leaves to first touch runs — checks that every LSHT band is in
// (band hash, id) order, and packs every decoded function afresh to see
// that PACK, which is derived from the records, still agrees with them. It
// touches every page of the file.
func (f *File) Verify() error {
	for _, s := range f.sections {
		got := crc32.Checksum(f.data[s.Offset:s.Offset+s.Len], crcTable)
		if got != s.CRC {
			return corruptf("section %s checksum %08x, want %08x", s.Name, got, s.CRC)
		}
	}
	for i := 0; i < f.nfuncs; i++ {
		fn, err := f.DecodeFunc(i)
		if err != nil {
			return err
		}
		if f.pack == nil {
			continue
		}
		pf, err := f.PackedFunc(i)
		if err != nil {
			return err
		}
		if err := packedAgrees(pf, fn); err != nil {
			return corruptf("function %d: section PACK disagrees with the records: %v", i, err)
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
// from what packing the decoded function gives, nil when it does not.
func packedAgrees(pf PackedFunc, fn *prep.Function) error {
	g := fn.Graph
	bodies := make([][]asm.Inst, len(g.Blocks))
	for b, blk := range g.Blocks {
		bodies[b] = blk.Body()
	}
	if pf.NumInsts != g.NumInsts() {
		return fmt.Errorf("%d instructions, the records hold %d", pf.NumInsts, g.NumInsts())
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

// blockRec is one BLCK record, with its successor range checked: the
// part of a block both ways of reading a function share.
type blockRec struct {
	addr            uint32
	instOff, ninsts int
	succs           []uint32 // aliases SUCC
}

// block reads record bi of the nblocks BLCK records of function i that
// start at blockOff, and checks the successor range and every successor.
// The instruction range is returned unchecked.
func (f *File) block(i, blockOff, nblocks, bi int) (blockRec, error) {
	br := f.blcks[(blockOff+bi)*blckRecSize:]
	succOff := binary.LittleEndian.Uint32(br[12:])
	nsuccs := binary.LittleEndian.Uint32(br[16:])
	if nSuccs := uint32(len(f.succs)); succOff > nSuccs || nsuccs > nSuccs-succOff {
		return blockRec{}, corruptf("function %d block %d: successor range [%d,+%d) of %d", i, bi, succOff, nsuccs, len(f.succs))
	}
	succs := f.succs[succOff : succOff+nsuccs : succOff+nsuccs]
	for _, s := range succs {
		if s >= uint32(nblocks) {
			return blockRec{}, corruptf("function %d block %d: successor %d of %d blocks", i, bi, s, nblocks)
		}
	}
	return blockRec{
		addr:    binary.LittleEndian.Uint32(br),
		instOff: int(binary.LittleEndian.Uint32(br[4:])),
		ninsts:  int(binary.LittleEndian.Uint32(br[8:])),
		succs:   succs,
	}, nil
}

// DecodeFunc materializes function i as a lifted prep.Function,
// identical field for field to the function that was written. A
// first pass over the function's records checks every range and id they
// hold — this is where a function's BLCK, SUCC, INST, OPND and MEMT
// records are validated, not Parse — and sizes the function; then blocks,
// instructions, operands, memory terms and successors are each carved
// from one array for the whole function, so a decode costs a fixed
// handful of allocations whatever the function's size; strings are shared
// slices of the file's one string-table copy. A function whose records
// are corrupt yields the typed error IsCorrupt recognizes. Safe for
// concurrent callers.
func (f *File) DecodeFunc(i int) (*prep.Function, error) {
	r := f.funcs[i*funcRecSize:]
	name := f.str(binary.LittleEndian.Uint32(r[4:]))
	addr := binary.LittleEndian.Uint32(r[12:])
	entry := int(binary.LittleEndian.Uint32(r[16:]))
	blockOff := int(binary.LittleEndian.Uint32(r[20:]))
	nblocks := int(binary.LittleEndian.Uint32(r[24:]))

	nstr := uint32(f.names.Len())
	nInsts, nOps, nMems := len(f.insts)/instRecSize, len(f.opnds)/opndRecSize, len(f.memts)/memtRecSize
	var total struct{ insts, ops, mems, succs int }
	var few [16]blockRec // the checked block records, on the stack for most functions
	recs := few[:0]
	for bi := 0; bi < nblocks; bi++ {
		blk, err := f.block(i, blockOff, nblocks, bi)
		if err != nil {
			return nil, err
		}
		recs = append(recs, blk)
		if blk.instOff > nInsts || blk.ninsts > nInsts-blk.instOff {
			return nil, corruptf("function %d block %d: instruction range [%d,+%d) of %d", i, bi, blk.instOff, blk.ninsts, nInsts)
		}
		total.insts += blk.ninsts
		total.succs += len(blk.succs)
		for ii := blk.instOff; ii < blk.instOff+blk.ninsts; ii++ {
			ir := f.insts[ii*instRecSize:]
			opOff := int(binary.LittleEndian.Uint32(ir[4:]))
			nops := int(binary.LittleEndian.Uint32(ir[8:]))
			if mnem := binary.LittleEndian.Uint32(ir); mnem >= nstr {
				return nil, corruptf("function %d instruction %d: mnemonic id %d of %d strings", i, ii, mnem, nstr)
			}
			if opOff > nOps || nops > nOps-opOff {
				return nil, corruptf("function %d instruction %d: operand range [%d,+%d) of %d", i, ii, opOff, nops, nOps)
			}
			total.ops += nops
			for oi := opOff; oi < opOff+nops; oi++ {
				opr := f.opnds[oi*opndRecSize:]
				if opr[0] > byte(asm.KindSym) {
					return nil, corruptf("function %d operand %d: bad argument kind %d", i, oi, opr[0])
				}
				if sym := binary.LittleEndian.Uint32(opr[4:]); sym >= nstr {
					return nil, corruptf("function %d operand %d: symbol id %d of %d strings", i, oi, sym, nstr)
				}
				if opr[3]&opndFlagMem == 0 {
					continue
				}
				memOff := int(binary.LittleEndian.Uint32(opr[16:]))
				nmem := int(binary.LittleEndian.Uint32(opr[20:]))
				if nmem == 0 {
					return nil, corruptf("function %d operand %d: memory operand with no terms", i, oi)
				}
				if memOff > nMems || nmem > nMems-memOff {
					return nil, corruptf("function %d operand %d: memory-term range [%d,+%d) of %d", i, oi, memOff, nmem, nMems)
				}
				total.mems += nmem
				for ti := memOff; ti < memOff+nmem; ti++ {
					tr := f.memts[ti*memtRecSize:]
					switch asm.MemOp(tr[0]) {
					case asm.OpAdd, asm.OpSub, asm.OpMul:
					default:
						return nil, corruptf("function %d memory term %d: bad operator %q", i, ti, tr[0])
					}
					if tr[1] > byte(asm.KindSym) {
						return nil, corruptf("function %d memory term %d: bad argument kind %d", i, ti, tr[1])
					}
					if sym := binary.LittleEndian.Uint32(tr[4:]); sym >= nstr {
						return nil, corruptf("function %d memory term %d: symbol id %d of %d strings", i, ti, sym, nstr)
					}
				}
			}
		}
	}
	d := funcDecoder{
		f:     f,
		insts: make([]asm.Inst, 0, total.insts),
		ops:   make([]asm.Operand, 0, total.ops),
		mems:  make([]asm.MemTerm, 0, total.mems),
	}
	blocks := make([]cfg.Block, nblocks)
	succBuf := make([]int, 0, total.succs)

	g := &cfg.Graph{Name: name, Entry: entry, Blocks: make([]*cfg.Block, nblocks)}
	for bi, rec := range recs {
		blk := &blocks[bi]
		blk.Index, blk.Addr = bi, rec.addr
		if rec.ninsts > 0 {
			start := len(d.insts)
			for ii := 0; ii < rec.ninsts; ii++ {
				d.inst(rec.instOff + ii)
			}
			blk.Insts = d.insts[start:len(d.insts):len(d.insts)]
		}
		if len(rec.succs) > 0 {
			start := len(succBuf)
			for _, s := range rec.succs {
				succBuf = append(succBuf, int(s))
			}
			blk.Succs = succBuf[start:len(succBuf):len(succBuf)]
		}
		g.Blocks[bi] = blk
	}
	return &prep.Function{Name: name, Addr: addr, Graph: g}, nil
}

// HasPack reports whether the file carries the PACK section, so that
// PackedFunc can serve its functions in packed form.
func (f *File) HasPack() bool { return f.pack != nil }

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
// keeps them must keep the File reachable. This is where the function's
// PACK record and its BLCK and SUCC records are validated: the record's
// place and length, its counts against FUNC's block count and against one
// another, and per block what asm.Packed.Check checks — offsets in order,
// arguments as the encodings say, string ids in range — before any of it
// is returned, so that comparing the blocks reads nothing unchecked. A
// record that fails yields the typed error IsCorrupt recognizes. The file
// must HasPack. Safe for concurrent callers.
func (f *File) PackedFunc(i int) (PackedFunc, error) {
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
		8*(ninsts+nb) + (ncanon+7)&^7; want != uint64(len(rec)) {
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
	kOff := view[int32](cut(4*(ninsts+nb)), int(ninsts+nb))
	off := view[int32](cut(4*(ninsts+nb)), int(ninsts+nb))
	canon := rec[:ncanon]

	pf := PackedFunc{Name: f.str(binary.LittleEndian.Uint32(r[4:])), Blocks: make([]asm.Block, nblocks)}
	for bi := range pf.Blocks {
		brec, err := f.block(i, blockOff, nblocks, bi)
		if err != nil {
			return PackedFunc{}, err
		}
		pf.NumInsts += brec.ninsts
		m := meta[bi]
		n, np := int(m.ninsts), int(m.nprof)
		if n > len(kindH) || np > len(prof) {
			return PackedFunc{}, corruptf("function %d block %d: PACK block counts run past the function's", i, bi)
		}
		blk := &pf.Blocks[bi]
		blk.Hash, blk.Succs, blk.Names = m.hash, brec.succs, &f.names
		blk.KindH, kindH = kindH[:n:n], kindH[n:]
		blk.Read, read = read[:n:n], read[n:]
		blk.Write, write = write[:n:n], write[n:]
		blk.Prof, prof = prof[:np:np], prof[np:]
		blk.KOff, kOff = kOff[:n+1:n+1], kOff[n+1:]
		blk.Off, off = off[:n+1:n+1], off[n+1:]
		nc, na := int(blk.KOff[n]), int(blk.Off[n])
		if nc < 0 || nc > len(canon) || na < 0 || na > len(args) {
			return PackedFunc{}, corruptf("function %d block %d: PACK offsets run past the function's encodings or arguments", i, bi)
		}
		blk.Canon, canon = canon[:nc:nc], canon[nc:]
		blk.Args, args = args[:na:na], args[na:]
		if err := blk.Check(); err != nil {
			return PackedFunc{}, corruptf("function %d block %d: PACK %v", i, bi, err)
		}
	}
	if len(kindH)+len(prof)+len(canon)+len(args) != 0 {
		return PackedFunc{}, corruptf("function %d: PACK blocks do not add up to the function's counts", i)
	}
	return pf, nil
}

// packBlk is the per-block entry of a PACK function record.
type packBlk struct {
	hash   uint64
	ninsts uint32
	nprof  uint32
}

// funcDecoder holds the per-function arrays DecodeFunc carves from. Each
// is sized exactly by DecodeFunc's counting pass, so no append below
// reallocates and every carved slice is capped at its own length.
type funcDecoder struct {
	f     *File
	insts []asm.Inst
	ops   []asm.Operand
	mems  []asm.MemTerm
}

func (d *funcDecoder) inst(i int) {
	r := d.f.insts[i*instRecSize:]
	in := asm.Inst{Mnemonic: d.f.str(binary.LittleEndian.Uint32(r))}
	opOff := int(binary.LittleEndian.Uint32(r[4:]))
	if nops := int(binary.LittleEndian.Uint32(r[8:])); nops > 0 {
		start := len(d.ops)
		for oi := 0; oi < nops; oi++ {
			d.operand(opOff + oi)
		}
		in.Ops = d.ops[start:len(d.ops):len(d.ops)]
	}
	d.insts = append(d.insts, in)
}

func (d *funcDecoder) operand(i int) {
	f := d.f
	r := f.opnds[i*opndRecSize:]
	flags := r[3]
	op := asm.Operand{
		Arg:    f.decodeArg(r[0], r[1], r[2], binary.LittleEndian.Uint32(r[4:]), int64(binary.LittleEndian.Uint64(r[8:]))),
		Offset: flags&opndFlagOffset != 0,
	}
	if flags&opndFlagMem != 0 {
		memOff := int(binary.LittleEndian.Uint32(r[16:]))
		nmem := int(binary.LittleEndian.Uint32(r[20:]))
		start := len(d.mems)
		for ti := 0; ti < nmem; ti++ {
			tr := f.memts[(memOff+ti)*memtRecSize:]
			d.mems = append(d.mems, asm.MemTerm{
				Op:  asm.MemOp(tr[0]),
				Arg: f.decodeArg(tr[1], tr[2], tr[3], binary.LittleEndian.Uint32(tr[4:]), int64(binary.LittleEndian.Uint64(tr[8:]))),
			})
		}
		op.Mem = d.mems[start:len(d.mems):len(d.mems)]
	}
	d.ops = append(d.ops, op)
}

func (f *File) decodeArg(kind, cls, reg byte, sym uint32, imm int64) asm.Arg {
	a := asm.Arg{Kind: asm.ArgKind(kind)}
	switch a.Kind {
	case asm.KindReg:
		a.Reg = asm.Reg(reg)
	case asm.KindImm:
		a.Imm = imm
	case asm.KindSym:
		a.Sym = f.str(sym)
		a.Cls = asm.SymClass(cls)
	}
	return a
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
