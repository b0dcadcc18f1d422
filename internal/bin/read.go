package bin

import (
	"bytes"
	"fmt"
	"sort"
	"sync/atomic"

	"repro/internal/asm"
	"repro/internal/x86"
)

// File is a parsed ELF image.
type File struct {
	Entry    uint32
	Sections []Section
	Symbols  []Symbol // from .symtab; empty in stripped binaries
	Imports  []Symbol // from .dynsym; survives stripping
}

// Read parses an ELF32 image produced by Link (or Strip).
func Read(img []byte) (*File, error) {
	if len(img) < ehSize || img[0] != elfMagic0 || img[1] != 'E' || img[2] != 'L' || img[3] != 'F' {
		return nil, fmt.Errorf("bin: not an ELF image")
	}
	if img[4] != elfClass32 || img[5] != elfData2LSB {
		return nil, fmt.Errorf("bin: not a little-endian ELF32 image")
	}
	f := &File{Entry: le.Uint32(img[24:])}
	shoff := le.Uint32(img[32:])
	shnum := int(le.Uint16(img[48:]))
	shstrndx := int(le.Uint16(img[50:]))
	if shoff == 0 || shnum == 0 {
		return nil, fmt.Errorf("bin: missing section headers")
	}
	type rawSH struct {
		nameOff, typ, flags, addr, off, size, link, align uint32
	}
	raw := make([]rawSH, shnum)
	for i := 0; i < shnum; i++ {
		base := shoff + uint32(i)*shSize
		if int(base)+shSize > len(img) {
			return nil, fmt.Errorf("bin: section header %d out of range", i)
		}
		sh := img[base:]
		raw[i] = rawSH{
			nameOff: le.Uint32(sh[0:]), typ: le.Uint32(sh[4:]),
			flags: le.Uint32(sh[8:]), addr: le.Uint32(sh[12:]),
			off: le.Uint32(sh[16:]), size: le.Uint32(sh[20:]),
			link: le.Uint32(sh[24:]), align: le.Uint32(sh[32:]),
		}
	}
	if shstrndx >= shnum {
		return nil, fmt.Errorf("bin: bad shstrndx")
	}
	shstr := sectionData(img, raw[shstrndx].off, raw[shstrndx].size)
	for i := 0; i < shnum; i++ {
		r := raw[i]
		data := sectionData(img, r.off, r.size)
		if r.typ == shtNull {
			data = nil
		}
		f.Sections = append(f.Sections, Section{
			Name: strAt(shstr, r.nameOff), Type: r.typ, Flags: r.flags,
			Addr: r.addr, Data: data, Link: r.link, Align: r.align,
		})
	}
	var err error
	if f.Symbols, err = f.parseSyms(".symtab"); err != nil {
		return nil, err
	}
	if f.Imports, err = f.parseSyms(".dynsym"); err != nil {
		return nil, err
	}
	return f, nil
}

func sectionData(img []byte, off, size uint32) []byte {
	if int(off) > len(img) || int(off+size) > len(img) {
		return nil
	}
	return img[off : off+size]
}

func (f *File) parseSyms(table string) ([]Symbol, error) {
	sec := f.Section(table)
	if sec == nil {
		return nil, nil
	}
	if int(sec.Link) >= len(f.Sections) {
		return nil, fmt.Errorf("bin: %s has bad string table link", table)
	}
	strs := f.Sections[sec.Link].Data
	var out []Symbol
	for off := stSize; off+stSize <= len(sec.Data); off += stSize {
		e := sec.Data[off:]
		secIdx := int(le.Uint16(e[14:]))
		secName := ""
		if secIdx < len(f.Sections) {
			secName = f.Sections[secIdx].Name
		}
		out = append(out, Symbol{
			Name:    strAt(strs, le.Uint32(e[0:])),
			Value:   le.Uint32(e[4:]),
			Size:    le.Uint32(e[8:]),
			Type:    int(e[12] & 0xf),
			Section: secName,
		})
	}
	return out, nil
}

// Section returns the named section, or nil.
func (f *File) Section(name string) *Section {
	for i := range f.Sections {
		if f.Sections[i].Name == name {
			return &f.Sections[i]
		}
	}
	return nil
}

// Stripped reports whether the image lacks a local symbol table.
func (f *File) Stripped() bool { return f.Section(".symtab") == nil }

// ImportAt returns the name of the imported function whose PLT stub starts
// at addr.
func (f *File) ImportAt(addr uint32) (string, bool) {
	for _, s := range f.Imports {
		if s.Value == addr {
			return s.Name, true
		}
	}
	return "", false
}

// DataAt returns the bytes of the data section containing addr, from addr
// to the end of the section, together with true. It is used to derive
// content tokens for global-memory references (paper Sec 4.1).
func (f *File) DataAt(addr uint32) ([]byte, bool) {
	for _, name := range []string{".rodata", ".data"} {
		if s := f.Section(name); s != nil && s.Contains(addr) {
			return s.Data[addr-s.Addr:], true
		}
	}
	return nil, false
}

// InText reports whether addr falls inside .text.
func (f *File) InText(addr uint32) bool {
	s := f.Section(".text")
	return s != nil && s.Contains(addr)
}

// InPLT reports whether addr falls inside .plt.
func (f *File) InPLT(addr uint32) bool {
	s := f.Section(".plt")
	return s != nil && s.Contains(addr)
}

// FuncImage is one function recovered from an image: its (possibly
// synthetic) name, start address and code bytes. A function discovered in
// a stripped image also carries the instructions discovery decoded from
// Code, for one lift to take (TakeDecoded).
type FuncImage struct {
	Name string
	Addr uint32
	Code []byte

	kept *keptRun
}

// keptRun is discovery's decode of one function's Code. Lifting
// symbolises operands in place, so the run has one owner: the first
// TakeDecoded.
type keptRun struct {
	taken atomic.Bool
	run   x86.Run
}

// TakeDecoded hands over the instructions discovery decoded from Code —
// all of Code, ending exactly at its end — or reports false when there
// are none: an image with a symbol table (nothing was decoded to find its
// functions), a function whose bytes did not decode to their trimmed end,
// or a run already taken. The caller owns the run and may rewrite its
// operands; a caller that gets none decodes Code itself, to the same
// instructions or the same error. Safe for concurrent callers.
func (im FuncImage) TakeDecoded() (x86.Run, bool) {
	if im.kept == nil || !im.kept.taken.CompareAndSwap(false, true) {
		return x86.Run{}, false
	}
	run := im.kept.run
	im.kept.run = x86.Run{}
	return run, true
}

// Discovery is what Discover recovers from an image.
type Discovery struct {
	Funcs   []FuncImage
	Decoded int // instructions decoded to find them; 0 with a symbol table
}

// Functions recovers the functions of the image. With a symbol table the
// table is authoritative. In stripped images functions are discovered the
// way real-world disassemblers do: the entry point, every direct-call
// target inside .text, and every "push ebp; mov ebp, esp" prologue become
// function starts, and each function extends to the next start. Recovered
// functions in stripped images get IDA-style sub_XXXXXX names.
func (f *File) Functions() ([]FuncImage, error) {
	d, err := f.Discover()
	return d.Funcs, err
}

// Discover is Functions with an account of the decoding it took.
func (f *File) Discover() (Discovery, error) {
	text := f.Section(".text")
	if text == nil {
		return Discovery{}, fmt.Errorf("bin: no .text section")
	}
	if !f.Stripped() {
		var out []FuncImage
		for _, s := range f.Symbols {
			if !s.IsFunc() || s.Section != ".text" {
				continue
			}
			start := s.Value - text.Addr
			end := start + s.Size
			if int(end) > len(text.Data) || start > end {
				return Discovery{}, fmt.Errorf("bin: symbol %s out of range", s.Name)
			}
			out = append(out, FuncImage{Name: s.Name, Addr: s.Value, Code: text.Data[start:end]})
		}
		sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
		return Discovery{Funcs: out}, nil
	}
	regions, decoded := discoverFuncStarts(text, f.Entry)
	out := make([]FuncImage, 0, len(regions))
	kept := make([]keptRun, len(regions))
	textEnd := text.Addr + uint32(len(text.Data))
	for i, r := range regions {
		end := textEnd
		if i+1 < len(regions) {
			end = regions[i+1].start
		}
		code := text.Data[r.start-text.Addr : end-text.Addr]
		// Trim inter-function alignment padding (zero bytes).
		for len(code) > 0 && code[len(code)-1] == 0 {
			code = code[:len(code)-1]
		}
		if len(code) == 0 {
			continue
		}
		im := FuncImage{Name: asm.HexToken("sub_", uint64(r.start), 0), Addr: r.start, Code: code}
		// The run stands for Code only if it covers exactly Code: a sweep
		// that stopped early leaves the failure to the lift, and trimming
		// can cut an instruction that ends in zero bytes.
		if r.run.End == r.start+uint32(len(code)) {
			kept[i].run = r.run
			im.kept = &kept[i]
		}
		out = append(out, im)
	}
	return Discovery{Funcs: out, Decoded: decoded}, nil
}

// region is one discovered function start and the instructions decoded
// from it: a run that ends at or before the next start.
type region struct {
	start uint32
	run   x86.Run
	swept bool // run is the decode of [start, next start)
}

// discoverFuncStarts scans stripped text for function entry points and
// returns them in address order, each with its decoded run, and the
// number of instructions it decoded.
//
// The starts are a fixpoint: the entry point and every prologue seed it,
// each round decodes from every start to the next one and adds the
// direct-call targets inside .text it meets. A region decoded in an
// earlier round is not decoded again: a new start on one of its
// instruction boundaries splits its run in two, one inside an instruction
// cuts the run before that instruction (which no longer fits its region)
// and only the new region is decoded. Each round therefore decodes only
// what its new starts created, and yields exactly the targets decoding
// every region again would.
func discoverFuncStarts(text *Section, entry uint32) ([]region, int) {
	if !text.Contains(entry) {
		entry = text.Addr
	}
	known := map[uint32]bool{entry: true}
	fresh := []uint32{entry}
	// The pattern 55 89 E5 (push ebp; mov ebp,esp) marks a conventional
	// function entry.
	prologue := []byte{0x55, 0x89, 0xE5}
	for i := 0; ; {
		j := bytes.Index(text.Data[i:], prologue)
		if j < 0 {
			break
		}
		i += j
		if a := text.Addr + uint32(i); !known[a] {
			known[a] = true
			fresh = append(fresh, a)
		}
		i++
	}
	var regions []region
	var sweep x86.Sweep
	sweep.Expect(len(text.Data))
	textEnd := text.Addr + uint32(len(text.Data))
	for len(fresh) > 0 {
		sort.Slice(fresh, func(i, j int) bool { return fresh[i] < fresh[j] })
		regions = splitRegions(regions, fresh)
		fresh = fresh[:0]
		for i := range regions {
			r := &regions[i]
			if r.swept {
				continue
			}
			end := textEnd
			if i+1 < len(regions) {
				end = regions[i+1].start
			}
			// A failure is padding or data: the region's run stops there.
			r.run, _ = sweep.Run(text.Data[r.start-text.Addr:end-text.Addr], r.start)
			r.swept = true
			for i := range r.run.Insts {
				in := &r.run.Insts[i]
				if in.IsCall() && len(in.Ops) == 1 && !in.Ops[0].IsMem() && in.Ops[0].Arg.IsImm() {
					if t := uint32(in.Ops[0].Arg.Imm); text.Contains(t) && !known[t] {
						known[t] = true
						fresh = append(fresh, t)
					}
				}
			}
		}
	}
	return regions, sweep.Insts
}

// splitRegions merges the new starts fresh (ascending, none a start
// already) into regions (ascending), dividing the run of the region each
// falls into.
func splitRegions(regions []region, fresh []uint32) []region {
	out := make([]region, 0, len(regions)+len(fresh))
	ri := 0
	for _, t := range fresh {
		for ri < len(regions) && regions[ri].start < t {
			out = append(out, regions[ri])
			ri++
		}
		nr := region{start: t}
		if n := len(out); n > 0 && out[n-1].swept {
			prev := &out[n-1]
			addrs := prev.run.Addrs
			i := sort.Search(len(addrs), func(i int) bool { return addrs[i] >= t })
			if i < len(addrs) && addrs[i] == t {
				prev.run, nr.run = prev.run.Split(i)
				nr.swept = true
			} else {
				// The instruction before t may reach past it, and then it
				// is not in prev's region any more.
				if i > 0 && addrs[i-1]+uint32(prev.run.Len(i-1)) > t {
					i--
				}
				prev.run, _ = prev.run.Split(i)
			}
		}
		out = append(out, nr)
	}
	return append(out, regions[ri:]...)
}

// Strip returns a copy of the image without .symtab and .strtab, leaving
// .dynsym/.dynstr intact — the shape of a stripped dynamically-linked
// executable.
func Strip(img []byte) ([]byte, error) {
	f, err := Read(img)
	if err != nil {
		return nil, err
	}
	var keep []Section
	var dynsymIdx, dynstrIdx uint32
	idx := uint32(1)
	for _, s := range f.Sections {
		if s.Type == shtNull || s.Name == ".shstrtab" || s.Name == ".symtab" || s.Name == ".strtab" {
			continue
		}
		switch s.Name {
		case ".dynsym":
			dynsymIdx = idx
		case ".dynstr":
			dynstrIdx = idx
		}
		keep = append(keep, s)
		idx++
	}
	for i := range keep {
		if keep[i].Name == ".dynsym" {
			_ = dynsymIdx
			keep[i].Link = dynstrIdx
		}
	}
	return writeELF(keep, f.Entry)
}
