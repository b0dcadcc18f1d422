// Package idxfile implements TRACYIDX v4: a flat, section-based,
// little-endian columnar on-disk index format designed to be served
// straight out of the page cache.
//
// The gob formats it replaced (v0-v2) deserialize the whole corpus into
// heap objects on load — at 10⁵-10⁶ functions that costs seconds of
// reflection-driven decoding and a resident object graph many times the
// file size. v3 stored every instruction twice, as INST/OPND/MEMT records
// and again packed. Neither is read any more: internal/index refuses both
// with a typed error. v4 lays every piece of the corpus out as fixed-width
// column arrays plus one shared string table and one shared feature pool,
// and stores each function once, in the packed form the matcher consumes,
// so a reader can
//
//   - mmap the file and touch only the pages a query needs (function
//     metadata eagerly, a function's packed record lazily per candidate),
//   - share those clean file-backed pages across every serving process
//     on the host,
//   - compare a function where it lies: a candidate's first touch is
//     slice headers over the PACK section, not a decode and a pack, and
//   - rebuild any single function as instructions in O(its size) with a
//     handful of allocations, no reflection, in the walk that checks its
//     record (asm.Unpacker inverts the packing as it checks it).
//
// # On-disk layout
//
// All integers are little-endian. The file is:
//
//	header | section directory | section 0 | section 1 | ...
//
// Header (48 bytes):
//
//	off  size  field
//	  0     8  magic "TRACYIDX"
//	  8     1  format version (4)
//	  9     3  reserved (zero)
//	 12     4  section count   (u32)
//	 16     8  total file size (u64) — must equal the real size
//	 24     8  function count  (u64)
//	 32     4  crc32c of the section directory bytes (u32)
//	 36    12  reserved (zero)
//
// Section directory: section-count entries of 32 bytes each:
//
//	off  size  field
//	  0     4  section id (fourcc, u32)
//	  4     4  reserved (zero)
//	  8     8  byte offset of the section payload (u64, 8-aligned)
//	 16     8  payload length in bytes (u64)
//	 24     4  crc32c of the payload (u32)
//	 28     4  reserved (zero)
//
// Sections (every section payload is 8-byte aligned; every offset/length
// below is validated against the pool it indexes before it is followed —
// see "What is checked when"):
//
//	STRB  string-table bytes, concatenated UTF-8
//	STRO  u32[nstrings+1] cumulative offsets into STRB; string id i is
//	      STRB[STRO[i]:STRO[i+1]]; id 0 is always the empty string
//	FUNC  40-byte function records:
//	      exe u32 (string id), name u32, truth u32, addr u32,
//	      entry u32 (entry block, function-local),
//	      blockOff u32 + nblocks u32 (range in BLCK),
//	      featOff u32 + nfeats u32 (range in FEAT), reserved u32
//	BLCK  12-byte basic-block records:
//	      addr u32, succOff u32 + nsuccs u32 (range in SUCC)
//	SUCC  u32 successor block indices (function-local)
//	FEAT  u64 prefilter features; per-function slices of the shared pool
//	LSHB  optional MinHash/LSH signature block (absent when the file was
//	      written without -lsh; readers treat absence as "no lsh index").
//	      Layout: a 16-byte header —
//	          bands u32, rows u32, seed u64
//	      — followed by exactly nfuncs·bands·rows u32 signature values,
//	      function-major (function i's signature is the k = bands·rows
//	      values starting at 16 + i·k·4). The section length must equal
//	      16 + nfuncs·k·4 exactly; bands/rows are capped by
//	      minhash.MaxBands/MaxRows. Signatures are computed by
//	      minhash.Signature over the function's FEAT slice, so a reader
//	      can always verify or regenerate them.
//	LSHT  optional sorted band table, written beside LSHB and meaningless
//	      without it (its geometry is LSHB's header): exactly
//	      bands·nfuncs u32 function ids, band-major. Band b's run is the
//	      nfuncs ids starting at b·nfuncs·4 — a permutation of
//	      [0, nfuncs) ordered by (minhash.BandHash of the function's
//	      LSHB signature in band b, id) — so a band bucket is a
//	      contiguous stretch found by binary search with the hashes
//	      recomputed from LSHB, and a reader probes the mapping instead
//	      of building bucket tables at first query. When it is absent
//	      readers derive the same table from LSHB (minhash.BandTable) at
//	      first use.
//	PACK  the function records: every function's instructions, packed
//	      block by block as asm.PackEach packs the jump-stripped block
//	      bodies the matcher compares, plus each block's trailing jump,
//	      every symbol named by its string id. Layout: u64[nfuncs+1] byte
//	      offsets into the section, 8-aligned and ascending, the first
//	      just past the table and the last the section's length; function
//	      i's record lies between offsets i and i+1:
//	          nblocks u32 (= FUNC's), ninsts u32, nargs u32, ncanon u32,
//	          nprof u32, reserved u32
//	          nblocks x { content hash u64, ninsts u32, nprof u32 }
//	          kind hashes   u64[ninsts]
//	          read masks    u64[ninsts]
//	          write masks   u64[ninsts]
//	          arguments     nargs x { tag u32, sym u32 (string id), imm
//	                        i64, symbol hash u64 } — asm.PArg as it is
//	          kind profiles nprof x { hash u64, weight i32, count i32 }
//	          kind offsets  i32[ninsts+2·nblocks]: per block ninsts+2
//	                        offsets into its stretch of the encodings —
//	                        the body's ninsts+1, then the end of the
//	                        block's jump slot
//	          arg offsets   i32[ninsts+2·nblocks]: likewise into its
//	                        stretch of the arguments
//	          encodings     u8[ncanon] canonical kind encodings, then
//	                        zero padding to 8 bytes
//	      Blocks follow one another within every column in block order.
//	      ninsts counts body instructions: the hashes, masks and profiles
//	      cover the bodies alone, which is what is compared. A block's
//	      jump slot holds its trailing jump's encoding and arguments right
//	      behind the body's; an empty slot means the block ends without
//	      one (every encoding is at least one byte long). nargs and ncanon
//	      count the jumps' too. The record's length must be exactly what
//	      its counts add up to. Every column starts 8-aligned (4 for the
//	      two offset columns), so a reader serves each as a slice of the
//	      mapping.
//
// A PACK record of two blocks — "mov eax, 1; jmp L" (one body instruction
// and a jump) and "ret" (one body instruction, no jump) — so ninsts 2,
// nargs 3 (eax, 1, L) and ncanon = m+j+r, the lengths of the three
// encodings; byte offsets from the record's start:
//
//	  0  2 | 2 | 3 | m+j+r | 2 | 0             header
//	 24  hash₀ | 1 | 1 · hash₁ | 1 | 1         per block: body ninsts 1, one profile entry
//	 56  kindH(mov) · kindH(ret)               u64[2]
//	 72  read(mov) · read(ret)                 u64[2]
//	 88  write(mov) · write(ret)               u64[2]
//	104  eax · 1 · L                           3 x PArg: mov's two, then the jump's
//	176  prof₀ · prof₁                         2 x KindCount
//	208  0 m m+j · 0 r r                       kind offsets: block 0 body [0,m), jump [m,m+j);
//	                                           block 1 body [0,r), empty slot [r,r)
//	232  0 2 3 · 0 0 0                         arg offsets, likewise
//	256  enc(mov) enc(jmp L) enc(ret) 0…       encodings, padded to 8
//
// # What is checked when
//
// Parse (and Open) checks the header, the directory checksum, every
// section's bounds, alignment and record size, the string offsets, every
// FUNC record against the pools it points into, and the LSHB/LSHT/PACK
// section shapes — work proportional to the number of functions and
// strings, never to the instructions. A function's own records — its BLCK
// and SUCC ranges, and its PACK record's place, length, counts, offset
// order, and per instruction (jumps included) an encoding whose counts are
// in their one minimal form, arguments of the kinds it says and string ids
// in range (asm.Unpacker.Check) — are checked when the function is first
// read, before anything unchecked is followed, in one walk that DecodeFunc
// makes rebuilding each instruction where it checks it and PackedFunc
// without; a function that fails yields the same typed corruption error
// Parse does, and only the query that touched it fails. Verify makes the
// walk once a function, packs the rebuilt instructions afresh and compares
// what PACK derives from them — kind and content hashes, register masks,
// kind profiles — checks the LSHT band order, and recomputes the section
// checksums.
//
// # Lifetime and unmap safety
//
// Open maps the file with a shared read-only mapping. Strings never alias
// the mapping (the string table is copied once to the heap at parse time,
// and decoded functions and the name table of packed blocks share that
// copy; a decoded mnemonic is the string of asm's mnemonic table, or a
// copy where the table lacks it), but the per-function feature slices
// returned by Features DO alias it, as do the blocks PackedFunc returns and
// every raw section. Close unmaps; the caller owns proving nothing derived from the
// mapping is still live. The serving layer never calls Close on a
// hot-swapped file — the old mapping stays valid for in-flight queries
// and is unmapped by a finalizer once the last snapshot, and the last
// decomposition built from its packed blocks, is collected: whoever holds
// such slices must hold the File.
//
// The fixed-width columns are served by casting the mapping, as FEAT and
// the LSH sections always were: reader and writer assume a little-endian
// host.
package idxfile

import (
	"encoding/binary"
	"hash/crc32"
)

// Magic and Version are the v4 file prelude, byte-compatible with the
// header of v3 and of the gob formats v1 and v2 (8-byte magic + version
// byte), so one sniff tells the formats apart.
const (
	Magic   = "TRACYIDX"
	Version = 4
)

// Fixed layout sizes.
const (
	headerSize   = 48
	dirEntrySize = 32

	funcRecSize = 40
	blckRecSize = 12
	succRecSize = 4
	featRecSize = 8
	stroRecSize = 4

	lshHdrSize  = 16 // LSHB header: bands u32, rows u32, seed u64
	lshSigSize  = 4  // one u32 signature value
	lshtRecSize = 4  // one u32 function id of the sorted band table

	packOffSize  = 8  // one u64 offset of the PACK function table
	packHdrSize  = 24 // PACK function record header: five counts, one reserved u32
	packBlkSize  = 16 // per block: content hash u64, ninsts u32, nprof u32
	packArgSize  = 24 // asm.PArg
	packProfSize = 16 // asm.KindCount
)

// Section ids (fourcc, little-endian u32 on disk).
const (
	SecSTRB = "STRB"
	SecSTRO = "STRO"
	SecFUNC = "FUNC"
	SecBLCK = "BLCK"
	SecSUCC = "SUCC"
	SecFEAT = "FEAT"
	SecLSHB = "LSHB" // optional; not in requiredSections
	SecLSHT = "LSHT" // optional, only beside LSHB
	SecPACK = "PACK"
)

// requiredSections are the sections the parser requires, in the order the
// writer emits them (LSHB and LSHT, when written, go before PACK; extra
// unknown sections are tolerated and skipped, so the format can grow).
var requiredSections = []string{
	SecSTRB, SecSTRO, SecFUNC, SecBLCK, SecSUCC, SecFEAT, SecPACK,
}

// crcTable is the Castagnoli polynomial (hardware-accelerated on amd64
// and arm64), the checksum of every section and of the directory.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

func sectionID(name string) uint32 {
	b := []byte(name)
	return binary.LittleEndian.Uint32(b)
}

func sectionName(id uint32) string {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], id)
	return string(b[:])
}

// align8 rounds n up to the next multiple of 8.
func align8(n int) int { return (n + 7) &^ 7 }
