package index

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/asm"
	"repro/internal/cfg"
	"repro/internal/idxfile"
	"repro/internal/prep"
)

// This file holds the reader of the index format this binary no longer
// serves, for tracy convert: TRACYIDX v3. It reads the whole corpus into
// memory as lifted functions, which Save writes out as v4; nothing else
// reaches it.

// LoadLegacy reads a TRACYIDX v3 file, written by the tracy before v4,
// into an in-memory database, for tracy convert to save as v4. Every
// function is validated as a query off the wire is, so a corrupt file fails
// here and not at its first search. Nothing else reads v3: Load and
// OpenFile refuse it with ErrLegacy. A gob index (formats v0–v2) is refused
// here too, with an error wrapping ErrLegacy.
func LoadLegacy(r io.Reader) (*DB, error) {
	br := bufio.NewReader(r)
	prelude, err := br.Peek(len(idxfile.Magic) + 1)
	if err != nil && err != io.EOF {
		return nil, err
	}
	switch v := idxfile.SniffVersion(prelude); v {
	case 3:
		data, err := io.ReadAll(br)
		if err != nil {
			return nil, err
		}
		return loadV3(data)
	case 0, 1, 2:
		return nil, fmt.Errorf("index: %w", legacyError(v))
	default:
		return nil, fmt.Errorf("index: format v3 expected, file is v%d", v)
	}
}

// v3 record sizes and operand flags (the v3 layout: STRB, STRO, FUNC as in
// v4; BLCK addr, instOff+ninsts (INST), succOff+nsuccs (SUCC); INST
// mnemonic, opOff+nops (OPND); OPND kind, cls, reg, flags, sym, imm,
// memOff+nmem (MEMT); MEMT op, kind, cls, reg, sym, imm).
const (
	v3FuncSize, v3BlckSize, v3InstSize, v3OpndSize, v3MemtSize = 40, 20, 12, 24, 16
	v3FlagOffset, v3FlagMem                                    = 1 << 0, 1 << 1
)

// v3File reads the records of a TRACYIDX v3 file. The first range or id
// that is not in its table is kept in err, and every read after it
// returns nothing, so a walk over a corrupt file ends early and says why.
type v3File struct {
	secs map[string][]byte
	strb string
	err  error
}

// loadV3 reads every function of a TRACYIDX v3 file from its INST, OPND
// and MEMT records, checking every range and id before it is followed.
// Whether the file has the PACK section or not, it is not read: Save
// packs the functions afresh, and FEAT and the lsh sections are
// recomputed the same way.
func loadV3(data []byte) (*DB, error) {
	_, nfuncs, _, secs, err := idxfile.ReadSections(data)
	if err != nil {
		return nil, fmt.Errorf("index: v3: %w", err)
	}
	f := &v3File{secs: secs, strb: string(secs["STRB"])}
	for p, prev := secs["STRO"], uint32(0); len(p) >= 4; p, prev = p[4:], u32(p) {
		if v := u32(p); v < prev || v > uint32(len(f.strb)) {
			return nil, fmt.Errorf("index: v3: string offset %d out of order", v)
		}
	}
	funcs := f.records("FUNC", v3FuncSize, 0, uint32(nfuncs))
	db := New()
	for i := 0; i < nfuncs && f.err == nil; i++ {
		e := f.entry(funcs[i*v3FuncSize:])
		if f.err == nil {
			f.err = ValidateFunction(e.Func)
		}
		db.Entries = append(db.Entries, e)
	}
	if f.err != nil {
		return nil, fmt.Errorf("index: v3: corrupt after %d of %d functions (%v)", max(len(db.Entries)-1, 0), nfuncs, f.err)
	}
	return db, nil
}

func u32(b []byte) uint32 { return binary.LittleEndian.Uint32(b) }

func (f *v3File) fail(format string, args ...any) {
	if f.err == nil {
		f.err = fmt.Errorf(format, args...)
	}
}

// records returns records [off, off+n) of the named section, size bytes
// each.
func (f *v3File) records(sec string, size int, off, n uint32) []byte {
	p, ok := f.secs[sec]
	if !ok || uint64(off)+uint64(n) > uint64(len(p)/size) {
		f.fail("section %s: records [%d,+%d) of %d", sec, off, n, len(p)/size)
	}
	if f.err != nil {
		return nil
	}
	return p[int(off)*size : int(off+n)*size]
}

// str returns string id, which lies between entries id and id+1 of STRO.
func (f *v3File) str(id uint32) string {
	if r := f.records("STRO", 4, id, 2); r != nil {
		return f.strb[u32(r):u32(r[4:])]
	}
	return ""
}

// entry reads the function of FUNC record r.
func (f *v3File) entry(r []byte) *Entry {
	exe, name, truth := f.str(u32(r)), f.str(u32(r[4:])), f.str(u32(r[8:]))
	blks := f.records("BLCK", v3BlckSize, u32(r[20:]), u32(r[24:]))
	if len(blks) == 0 {
		f.fail("function without blocks")
	}
	g := &cfg.Graph{Name: name, Entry: int(u32(r[16:])), Blocks: make([]*cfg.Block, len(blks)/v3BlckSize)}
	for bi := range g.Blocks {
		br := blks[bi*v3BlckSize:]
		blk := &cfg.Block{Index: bi, Addr: u32(br)}
		for ir := f.records("INST", v3InstSize, u32(br[4:]), u32(br[8:])); len(ir) > 0; ir = ir[v3InstSize:] {
			blk.Insts = append(blk.Insts, f.inst(ir))
		}
		for sr := f.records("SUCC", 4, u32(br[12:]), u32(br[16:])); len(sr) > 0; sr = sr[4:] {
			blk.Succs = append(blk.Succs, int(u32(sr)))
		}
		g.Blocks[bi] = blk
	}
	return &Entry{Exe: exe, Name: name, Truth: truth, Addr: u32(r[12:]),
		Func: &prep.Function{Name: name, Addr: u32(r[12:]), Graph: g}}
}

// inst reads the instruction of INST record r.
func (f *v3File) inst(r []byte) asm.Inst {
	in := asm.Inst{Mnemonic: f.str(u32(r))}
	for or := f.records("OPND", v3OpndSize, u32(r[4:]), u32(r[8:])); len(or) > 0; or = or[v3OpndSize:] {
		op := asm.Operand{Arg: f.arg(or[0], or[1], or[2], u32(or[4:]), or[8:]), Offset: or[3]&v3FlagOffset != 0}
		if or[3]&v3FlagMem != 0 {
			terms := f.records("MEMT", v3MemtSize, u32(or[16:]), u32(or[20:]))
			if len(terms) == 0 {
				f.fail("memory operand without terms")
			}
			for ; len(terms) > 0; terms = terms[v3MemtSize:] {
				if o := asm.MemOp(terms[0]); o != asm.OpAdd && o != asm.OpSub && o != asm.OpMul {
					f.fail("bad memory operator %q", terms[0])
				}
				op.Mem = append(op.Mem, asm.MemTerm{Op: asm.MemOp(terms[0]), Arg: f.arg(terms[1], terms[2], terms[3], u32(terms[4:]), terms[8:])})
			}
		}
		in.Ops = append(in.Ops, op)
	}
	return in
}

// arg reads an argument: its kind, class and register bytes, its symbol's
// string id and its immediate, keeping only the fields its kind uses.
func (f *v3File) arg(kind, cls, reg byte, sym uint32, imm []byte) asm.Arg {
	a := asm.Arg{Kind: asm.ArgKind(kind)}
	switch a.Kind {
	case asm.KindNone:
	case asm.KindReg:
		a.Reg = asm.Reg(reg)
	case asm.KindImm:
		a.Imm = int64(binary.LittleEndian.Uint64(imm))
	case asm.KindSym:
		a.Sym, a.Cls = f.str(sym), asm.SymClass(cls)
	default:
		f.fail("bad argument kind %d", kind)
	}
	return a
}
