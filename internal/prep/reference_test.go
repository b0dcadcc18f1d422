package prep

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/bin"
	"repro/internal/corpus"
	"repro/internal/tinyc"
	"repro/internal/x86"
)

// This file keeps the two-pass lift the package had before discovery kept
// what it decodes — find the function starts by decoding all of .text
// again on every round of the fixpoint, throw the instructions away, then
// decode each function's bytes a second time, one x86.Decode at a time —
// as the oracle the one-pass lift is held to.

// referenceFunctions is bin.(*File).Functions as it was: every round
// re-sorts the starts and decodes every region from scratch. It also
// returns the number of instructions it decoded.
func referenceFunctions(f *bin.File) ([]bin.FuncImage, int, error) {
	text := f.Section(".text")
	if text == nil {
		return nil, 0, fmt.Errorf("bin: no .text section")
	}
	if !f.Stripped() {
		ims, err := f.Functions() // the symbol table is authoritative: nothing is decoded
		return ims, 0, err
	}
	starts := map[uint32]bool{f.Entry: true}
	if !text.Contains(f.Entry) {
		delete(starts, f.Entry)
		starts[text.Addr] = true
	}
	prologue := []byte{0x55, 0x89, 0xE5}
	for i := 0; i+len(prologue) <= len(text.Data); i++ {
		if bytes.Equal(text.Data[i:i+len(prologue)], prologue) {
			starts[text.Addr+uint32(i)] = true
		}
	}
	sortedStarts := func() []uint32 {
		out := make([]uint32, 0, len(starts))
		for a := range starts {
			out = append(out, a)
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	regionOf := func(sorted []uint32, i int) []byte {
		end := text.Addr + uint32(len(text.Data))
		if i+1 < len(sorted) {
			end = sorted[i+1]
		}
		return text.Data[sorted[i]-text.Addr : end-text.Addr]
	}
	decoded := 0
	for added := true; added; {
		added = false
		sorted := sortedStarts()
		var targets []uint32
		for i, addr := range sorted {
			code := regionOf(sorted, i)
			for p := 0; p < len(code); {
				in, n, err := x86.Decode(code[p:], addr+uint32(p))
				if err != nil {
					break // padding or data; stop this region
				}
				decoded++
				if in.IsCall() && len(in.Ops) == 1 && !in.Ops[0].IsMem() && in.Ops[0].Arg.IsImm() {
					if t := uint32(in.Ops[0].Arg.Imm); text.Contains(t) {
						targets = append(targets, t)
					}
				}
				p += n
			}
		}
		for _, t := range targets {
			if !starts[t] {
				starts[t], added = true, true
			}
		}
	}
	sorted := sortedStarts()
	var out []bin.FuncImage
	for i, addr := range sorted {
		code := regionOf(sorted, i)
		for len(code) > 0 && code[len(code)-1] == 0 {
			code = code[:len(code)-1]
		}
		if len(code) == 0 {
			continue
		}
		out = append(out, bin.FuncImage{Name: fmt.Sprintf("sub_%X", addr), Addr: addr, Code: code})
	}
	return out, decoded, nil
}

// referenceDecodeAll is x86.DecodeAll as it was: one Decode per
// instruction, each allocating its own operands.
func referenceDecodeAll(code []byte, base uint32) ([]x86.Decoded, error) {
	var out []x86.Decoded
	for p := 0; p < len(code); {
		in, n, err := x86.Decode(code[p:], base+uint32(p))
		if err != nil {
			return out, fmt.Errorf("at %#x: %w", base+uint32(p), err)
		}
		out = append(out, x86.Decoded{Inst: in, Addr: base + uint32(p), Len: n})
		p += n
	}
	return out, nil
}

// lifted is one function's outcome: the function or the error.
type lifted struct {
	fn  *Function
	err error
}

// liftReference lifts every function of img the two-pass way, function by
// function, so one that fails does not hide the others.
func liftReference(t testing.TB, img []byte) (ims []bin.FuncImage, out []lifted, decoded int) {
	t.Helper()
	f, err := bin.Read(img)
	if err != nil {
		t.Fatal(err)
	}
	ims, decoded, err = referenceFunctions(f)
	if err != nil {
		t.Fatal(err)
	}
	starts := make(map[uint32]bool, len(ims))
	for _, im := range ims {
		starts[im.Addr] = true
	}
	for _, im := range ims {
		dec, err := referenceDecodeAll(im.Code, im.Addr)
		decoded += len(dec)
		if err != nil {
			out = append(out, lifted{err: err})
			continue
		}
		fn, err := liftDecoded(f, im, x86.RunOf(dec), starts)
		out = append(out, lifted{fn, err})
	}
	return ims, out, decoded
}

// liftOnce lifts every function of img the one-pass way, function by
// function, and returns the account next to the outcomes.
func liftOnce(t testing.TB, img []byte) ([]bin.FuncImage, []lifted, liftStats) {
	t.Helper()
	f, err := bin.Read(img)
	if err != nil {
		t.Fatal(err)
	}
	ims, starts, decoded, err := discover(f)
	if err != nil {
		t.Fatal(err)
	}
	st := liftStats{Decoded: decoded}
	var out []lifted
	for _, im := range ims {
		fn, err := liftFunc(f, im, starts, &st)
		if err == nil {
			st.Functions++
		}
		out = append(out, lifted{fn, err})
	}
	return ims, out, st
}

// sameOutcome compares a one-pass outcome to the reference's: the same
// function, or the same typed error with the same text.
func sameOutcome(got, want lifted) error {
	if (got.err == nil) != (want.err == nil) {
		return fmt.Errorf("error %v, reference %v", got.err, want.err)
	}
	if want.err != nil {
		for _, typed := range []error{x86.ErrTruncated, x86.ErrBadOpcode} {
			if errors.Is(got.err, typed) != errors.Is(want.err, typed) {
				return fmt.Errorf("error %v, reference %v: different class", got.err, want.err)
			}
		}
		if got.err.Error() != want.err.Error() {
			return fmt.Errorf("error %q, reference %q", got.err, want.err)
		}
		return nil
	}
	if !reflect.DeepEqual(got.fn, want.fn) {
		return fmt.Errorf("lifted function differs from the reference")
	}
	return nil
}

// checkAgainstReference holds the one-pass lift of img to the reference,
// function by function, and returns the account and the reference's
// decode count.
func checkAgainstReference(t *testing.T, label string, img []byte) (liftStats, int) {
	t.Helper()
	wantIms, want, refDecoded := liftReference(t, img)
	gotIms, got, st := liftOnce(t, img)
	if len(gotIms) != len(wantIms) {
		t.Fatalf("%s: discovered %d functions, reference %d", label, len(gotIms), len(wantIms))
	}
	for i := range wantIms {
		g, w := gotIms[i], wantIms[i]
		if g.Name != w.Name || g.Addr != w.Addr || !bytes.Equal(g.Code, w.Code) {
			t.Fatalf("%s: function %d is %s@%#x (%d bytes), reference %s@%#x (%d bytes)",
				label, i, g.Name, g.Addr, len(g.Code), w.Name, w.Addr, len(w.Code))
		}
		if err := sameOutcome(got[i], want[i]); err != nil {
			t.Errorf("%s: %s: %v", label, w.Name, err)
		}
	}
	return st, refDecoded
}

// TestLiftOnceEqualsReference: over a campaign corpus, stripped and
// unstripped, the one-pass lift yields for every function exactly what the
// two-pass reference yields, every stripped function comes from the
// instructions discovery kept, and LiftImage returns those same functions.
func TestLiftOnceEqualsReference(t *testing.T) {
	funcs := 4032
	if testing.Short() {
		funcs = 384
	}
	var total, kept, decoded, refDecoded int
	_, err := corpus.RunCampaign(corpus.CampaignConfig{Seed: 5, Funcs: funcs, FuncsPerExe: 32, Stmts: 10, Workers: 2},
		func(e corpus.Executable, _ tinyc.OptLevel) error {
			st, ref := checkAgainstReference(t, e.Name, e.Image)
			total += st.Functions
			kept += st.Kept
			decoded += st.Decoded
			refDecoded += ref
			_, alone, _ := liftOnce(t, e.Image)
			all, err := LiftImage(e.Image)
			if err != nil {
				t.Fatalf("%s: %v", e.Name, err)
			}
			for i, fn := range all {
				if !reflect.DeepEqual(fn, alone[i].fn) {
					t.Errorf("%s: LiftImage[%d] differs from lifting %s alone", e.Name, i, fn.Name)
				}
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if total < funcs {
		t.Errorf("oracle covered %d functions, want >= %d", total, funcs)
	}
	if kept != total {
		t.Errorf("%d of %d stripped functions were lifted from the kept instructions; the rest were decoded twice", kept, total)
	}
	t.Logf("%d functions: %d instructions decoded, reference %d (%.2fx)", total, decoded, refDecoded, float64(refDecoded)/float64(decoded))

	// Unstripped: the symbol table names the functions, nothing is kept.
	for _, opt := range []tinyc.OptLevel{tinyc.O0, tinyc.O1, tinyc.O2} {
		srcs := make([]string, 12)
		for j := range srcs {
			srcs[j] = corpus.RandomFunc(fmt.Sprintf("fn_u_%d", j), 2_000_003+int64(j), corpus.GenConfig{Stmts: 10, Calls: true})
		}
		img, err := tinyc.Build(strings.Join(srcs, "\n"), tinyc.Config{Opt: opt, Seed: 31 + int64(opt)})
		if err != nil {
			t.Fatal(err)
		}
		if st, _ := checkAgainstReference(t, fmt.Sprintf("unstripped O%d", opt), img); st.Kept != 0 {
			t.Errorf("unstripped O%d: %d functions lifted from kept instructions of a symbol-table image", opt, st.Kept)
		}
	}
}

// craft returns a stripped image whose .text holds exactly text (zero
// padded to the section's size) and whose entry point is text's address
// plus entryOff; entryOff < 0 puts the entry point outside .text.
func craft(t testing.TB, text []byte, entryOff int) []byte {
	t.Helper()
	room := asm.MustParse("mov eax, 12345678h") // 5 bytes a piece
	var insts []asm.Inst
	for i := 0; i*5 < len(text)+8; i++ {
		insts = append(insts, room)
	}
	insts = append(insts, asm.MustParse("retn"))
	img, err := bin.Link(&bin.Program{Funcs: []bin.Func{{Name: "f", Insts: insts}}})
	if err != nil {
		t.Fatal(err)
	}
	if img, err = bin.Strip(img); err != nil {
		t.Fatal(err)
	}
	f, err := bin.Read(img)
	if err != nil {
		t.Fatal(err)
	}
	sec := f.Section(".text")
	at := bytes.Index(img, sec.Data)
	if at < 0 || len(sec.Data) < len(text) {
		t.Fatalf("cannot place %d bytes in a %d-byte .text", len(text), len(sec.Data))
	}
	for i := range sec.Data {
		img[at+i] = 0
	}
	copy(img[at:], text)
	entry := uint32(0)
	if entryOff >= 0 {
		entry = sec.Addr + uint32(entryOff)
	}
	binary.LittleEndian.PutUint32(img[24:], entry)
	return img
}

// call encodes "call rel32" at offset at, targeting offset to.
func call(at, to int) []byte {
	b := []byte{0xE8, 0, 0, 0, 0}
	binary.LittleEndian.PutUint32(b[1:], uint32(int32(to-(at+5))))
	return b
}

func cat(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

// TestLiftOnceCrafted holds the one-pass lift to the reference on the
// shapes discovery's bookkeeping has to get right.
func TestLiftOnceCrafted(t *testing.T) {
	prologue := []byte{0x55, 0x89, 0xE5}
	ret := []byte{0xC3}
	for _, tc := range []struct {
		name     string
		text     []byte
		entryOff int
		funcs    int // functions discovered
		kept     int // of them, lifted from what discovery decoded
		failing  int // of them, failing to lift (the same way as the reference)
	}{
		{
			// Trimming the padding cuts "mov eax, 0": the kept run ends past
			// the trimmed code, so the lift decodes — and fails as it did.
			name:  "last instruction ends in zero bytes",
			text:  cat(prologue, []byte{0xB8, 0, 0, 0, 0}),
			funcs: 1, failing: 1,
		},
		{
			// The call's target is an instruction boundary of the region
			// swept from the entry point: the run is split, both halves are
			// lifted from it.
			name:  "call target inside a swept region",
			text:  cat(call(0, 7), []byte{0x40, 0x40}, []byte{0x40}, ret),
			funcs: 2, kept: 2,
		},
		{
			// The target is the C3 inside "mov eax, 0C3h": the mov no longer
			// fits the first region (its lift fails on the cut instruction),
			// the second is decoded from the target.
			name:  "call target inside an instruction",
			text:  cat(call(0, 6), []byte{0xB8, 0xC3, 0, 0, 0}),
			funcs: 2, kept: 1, failing: 1,
		},
		{
			// hlt bytes after the first function's ret stop its sweep short
			// of the next prologue; they stay in its code and fail its lift.
			name:  "data bytes stop a sweep",
			text:  cat(prologue, ret, []byte{0xF4, 0xF4}, prologue, ret),
			funcs: 2, kept: 1, failing: 1,
		},
		{
			name:     "entry point outside .text",
			text:     cat([]byte{0x40}, ret, []byte{0, 0}, prologue, ret),
			entryOff: -1,
			funcs:    2, kept: 2,
		},
		{
			// Two targets found in one round inside one swept region, the
			// second inside the first target's half.
			name:  "two splits of one region",
			text:  cat(call(0, 11), call(5, 12), []byte{0x40}, []byte{0x40}, []byte{0x40}, ret),
			funcs: 3, kept: 3,
		},
	} {
		img := craft(t, tc.text, tc.entryOff)
		st, _ := checkAgainstReference(t, tc.name, img)
		_, got, _ := liftOnce(t, img)
		failing := 0
		for _, l := range got {
			if l.err != nil {
				failing++
			}
		}
		if len(got) != tc.funcs || st.Kept != tc.kept || failing != tc.failing {
			t.Errorf("%s: %d functions, %d kept, %d failing; want %d, %d, %d",
				tc.name, len(got), st.Kept, failing, tc.funcs, tc.kept, tc.failing)
		}
	}
}

// TestLiftTwice: the kept instructions are symbolised in place, so they
// are handed out once; a FuncImage lifted again is decoded again, to an
// equal function.
func TestLiftTwice(t *testing.T) {
	img := craft(t, cat(call(0, 7), []byte{0x40, 0x40}, []byte{0x40, 0xC3}), 0)
	f, err := bin.Read(img)
	if err != nil {
		t.Fatal(err)
	}
	ims, starts, _, err := discover(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, im := range ims {
		var st liftStats
		first, err := liftFunc(f, im, starts, &st)
		if err != nil {
			t.Fatal(err)
		}
		second, err := liftFunc(f, im, starts, &st)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, second) {
			t.Errorf("%s: the second lift of one FuncImage differs from the first", im.Name)
		}
		if st.Kept != 1 {
			t.Errorf("%s: %d of 2 lifts took the kept instructions, want 1", im.Name, st.Kept)
		}
		if &first.Graph.Blocks[0].Insts[0].Ops[0] == &second.Graph.Blocks[0].Insts[0].Ops[0] {
			t.Errorf("%s: two lifts share operand memory", im.Name)
		}
	}
}

// TestDiscoveryChainBounded: 64 frame-pointer-less functions, each
// reachable only through the previous one's call, take 64 rounds to find.
// A round decodes only the region its new start created, so the whole
// fixpoint decodes each instruction of .text once — the reference decodes
// all text found so far on every round — and finds the same functions.
func TestDiscoveryChainBounded(t *testing.T) {
	const n = 64
	var text []byte
	insts := 0
	for i := 0; i < n; i++ {
		at := len(text)
		if i+1 < n {
			text = append(text, call(at, at+8)...)
			insts++
		}
		text = append(text, 0xC3)
		insts++
		for len(text)%8 != 0 {
			text = append(text, 0) // padding stops the sweep
		}
	}
	img := craft(t, text, 0)
	st, refDecoded := checkAgainstReference(t, "chain", img)
	fns, stats, err := liftImageStats(img)
	if err != nil {
		t.Fatal(err)
	}
	if len(fns) != n || stats.Kept != n {
		t.Errorf("lifted %d functions, %d from kept instructions; want %d, %d", len(fns), stats.Kept, n, n)
	}
	if stats.Decoded > insts+n {
		t.Errorf("decoded %d instructions for %d in .text: the fixpoint decodes regions again", stats.Decoded, insts)
	}
	if st.Decoded != stats.Decoded {
		t.Errorf("function-by-function lift decoded %d instructions, liftImageStats %d", st.Decoded, stats.Decoded)
	}
	t.Logf("chain of %d: %d instructions in .text, %d decoded, reference %d", n, insts, stats.Decoded, refDecoded)
}
