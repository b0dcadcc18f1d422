package bin

import (
	"bytes"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/asm"
	"repro/internal/x86"
)

// testProgram builds a two-function program with an import and a string.
func testProgram(t *testing.T) *Program {
	t.Helper()
	mainInsts, mainLabels, err := asm.ParseListing(`
		push ebp
		mov ebp, esp
		push offset aHello
		call _puts
		call helper
		mov esp, ebp
		pop ebp
		retn
	`)
	if err != nil {
		t.Fatal(err)
	}
	helperInsts, helperLabels, err := asm.ParseListing(`
		push ebp
		mov ebp, esp
		mov eax, 2Ah
		cmp eax, 0
		jz done
		inc eax
	done:
		pop ebp
		retn
	`)
	if err != nil {
		t.Fatal(err)
	}
	return &Program{
		Funcs: []Func{
			{Name: "main", Insts: mainInsts, Labels: mainLabels},
			{Name: "helper", Insts: helperInsts, Labels: helperLabels},
		},
		Data:    []Datum{{Name: "aHello", Data: append([]byte("Hello"), 0)}},
		Imports: []string{"_puts"},
		Align16: true,
	}
}

func TestLinkAndRead(t *testing.T) {
	img, err := Link(testProgram(t))
	if err != nil {
		t.Fatal(err)
	}
	f, err := Read(img)
	if err != nil {
		t.Fatal(err)
	}
	if f.Stripped() {
		t.Error("freshly linked image should not be stripped")
	}
	for _, name := range []string{".text", ".plt", ".got", ".rodata", ".dynsym", ".dynstr", ".symtab", ".strtab"} {
		if f.Section(name) == nil {
			t.Errorf("missing section %s", name)
		}
	}
	funcs, err := f.Functions()
	if err != nil {
		t.Fatal(err)
	}
	if len(funcs) != 2 {
		t.Fatalf("got %d functions, want 2", len(funcs))
	}
	byName := map[string]FuncImage{}
	for _, fn := range funcs {
		byName[fn.Name] = fn
	}
	if _, ok := byName["main"]; !ok {
		t.Fatal("main not found")
	}
	if _, ok := byName["helper"]; !ok {
		t.Fatal("helper not found")
	}
	if len(byName["main"].Code) == 0 || len(byName["helper"].Code) == 0 {
		t.Error("empty function bodies")
	}
	// Import resolution: exactly one import, reachable via ImportAt.
	if len(f.Imports) != 1 || f.Imports[0].Name != "_puts" {
		t.Fatalf("imports = %v", f.Imports)
	}
	if name, ok := f.ImportAt(f.Imports[0].Value); !ok || name != "_puts" {
		t.Errorf("ImportAt failed: %v %v", name, ok)
	}
	if !f.InPLT(f.Imports[0].Value) {
		t.Error("import stub should be inside .plt")
	}
}

func TestDataAt(t *testing.T) {
	img, err := Link(testProgram(t))
	if err != nil {
		t.Fatal(err)
	}
	f, err := Read(img)
	if err != nil {
		t.Fatal(err)
	}
	// Find aHello's address via symtab.
	var addr uint32
	for _, s := range f.Symbols {
		if s.Name == "aHello" {
			addr = s.Value
		}
	}
	if addr == 0 {
		t.Fatal("aHello symbol not found")
	}
	data, ok := f.DataAt(addr)
	if !ok {
		t.Fatal("DataAt failed")
	}
	if !bytes.HasPrefix(data, []byte("Hello\x00")) {
		t.Errorf("data at aHello = %q", data[:6])
	}
	if _, ok := f.DataAt(0); ok {
		t.Error("DataAt(0) should fail")
	}
}

func TestStrip(t *testing.T) {
	img, err := Link(testProgram(t))
	if err != nil {
		t.Fatal(err)
	}
	stripped, err := Strip(img)
	if err != nil {
		t.Fatal(err)
	}
	f, err := Read(stripped)
	if err != nil {
		t.Fatal(err)
	}
	if !f.Stripped() {
		t.Fatal("image should be stripped")
	}
	if len(f.Symbols) != 0 {
		t.Error("stripped image should have no local symbols")
	}
	// Imports must survive stripping (the paper's preprocessing depends
	// on it).
	if len(f.Imports) != 1 || f.Imports[0].Name != "_puts" {
		t.Errorf("imports after strip = %v", f.Imports)
	}
}

func TestStrippedFunctionDiscovery(t *testing.T) {
	img, err := Link(testProgram(t))
	if err != nil {
		t.Fatal(err)
	}
	orig, err := Read(img)
	if err != nil {
		t.Fatal(err)
	}
	origFuncs, err := orig.Functions()
	if err != nil {
		t.Fatal(err)
	}
	stripped, err := Strip(img)
	if err != nil {
		t.Fatal(err)
	}
	f, err := Read(stripped)
	if err != nil {
		t.Fatal(err)
	}
	funcs, err := f.Functions()
	if err != nil {
		t.Fatal(err)
	}
	if len(funcs) != len(origFuncs) {
		t.Fatalf("discovered %d functions in stripped image, want %d", len(funcs), len(origFuncs))
	}
	for i := range funcs {
		if funcs[i].Addr != origFuncs[i].Addr {
			t.Errorf("function %d at %#x, want %#x", i, funcs[i].Addr, origFuncs[i].Addr)
		}
		if !bytes.Equal(funcs[i].Code, origFuncs[i].Code) {
			t.Errorf("function %d code differs after strip", i)
		}
		if funcs[i].Name == origFuncs[i].Name {
			t.Errorf("stripped function %d kept its name %q", i, funcs[i].Name)
		}
	}
}

func TestLinkErrors(t *testing.T) {
	// Undefined call target.
	insts, labels, _ := asm.ParseListing("call missing\nretn")
	_, err := Link(&Program{Funcs: []Func{{Name: "f", Insts: insts, Labels: labels}}})
	if err == nil {
		t.Error("expected undefined-function error")
	}
	// Undefined datum.
	insts2, labels2, _ := asm.ParseListing("push offset nothing\nretn")
	_, err = Link(&Program{Funcs: []Func{{Name: "f", Insts: insts2, Labels: labels2}}})
	if err == nil {
		t.Error("expected undefined-datum error")
	}
	// Duplicate function.
	insts3, labels3, _ := asm.ParseListing("retn")
	_, err = Link(&Program{Funcs: []Func{
		{Name: "f", Insts: insts3, Labels: labels3},
		{Name: "f", Insts: insts3, Labels: labels3},
	}})
	if err == nil {
		t.Error("expected duplicate-function error")
	}
}

func TestReadErrors(t *testing.T) {
	if _, err := Read(nil); err == nil {
		t.Error("Read(nil) should fail")
	}
	if _, err := Read([]byte("not an elf at all, just text")); err == nil {
		t.Error("Read(garbage) should fail")
	}
	img, err := Link(testProgram(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Read(img[:40]); err == nil {
		t.Error("Read(truncated) should fail")
	}
}

func TestCrossFunctionCallLinking(t *testing.T) {
	img, err := Link(testProgram(t))
	if err != nil {
		t.Fatal(err)
	}
	f, err := Read(img)
	if err != nil {
		t.Fatal(err)
	}
	funcs, _ := f.Functions()
	var mainFn, helperFn FuncImage
	for _, fn := range funcs {
		switch fn.Name {
		case "main":
			mainFn = fn
		case "helper":
			helperFn = fn
		}
	}
	// Decode main; its second call must target helper's address.
	decoded := decodeAllOrFatal(t, mainFn)
	var callTargets []uint32
	for _, d := range decoded {
		if d.Inst.IsCall() {
			callTargets = append(callTargets, uint32(d.Inst.Ops[0].Arg.Imm))
		}
	}
	if len(callTargets) != 2 {
		t.Fatalf("main has %d calls, want 2", len(callTargets))
	}
	if !f.InPLT(callTargets[0]) {
		t.Errorf("first call should target PLT, got %#x", callTargets[0])
	}
	if callTargets[1] != helperFn.Addr {
		t.Errorf("second call targets %#x, want helper at %#x", callTargets[1], helperFn.Addr)
	}
}

func decodeAllOrFatal(t *testing.T, fn FuncImage) []x86.Decoded {
	t.Helper()
	dec, err := x86.DecodeAll(fn.Code, fn.Addr)
	if err != nil {
		t.Fatalf("decode %s: %v", fn.Name, err)
	}
	return dec
}

// TestReadNeverPanicsOnCorruption mutates a valid image at random
// positions; Read must either parse or fail, never panic, and Functions
// must behave likewise on whatever parses.
func TestReadNeverPanicsOnCorruption(t *testing.T) {
	img, err := Link(testProgram(t))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 2000; trial++ {
		mut := append([]byte(nil), img...)
		for i := 0; i < 1+rng.Intn(8); i++ {
			mut[rng.Intn(len(mut))] = byte(rng.Intn(256))
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Read panicked (trial %d): %v", trial, r)
				}
			}()
			f, err := Read(mut)
			if err != nil {
				return
			}
			_, _ = f.Functions()
			_, _ = f.parseSyms(".symtab")
		}()
	}
	// Truncations at every length must not panic either.
	for cut := 0; cut < len(img); cut += 7 {
		if _, err := Read(img[:cut]); err == nil && cut < ehSize {
			t.Errorf("truncated header at %d parsed", cut)
		}
	}
}

func TestLinkMinimalProgram(t *testing.T) {
	// No imports, no data: still a valid, readable image.
	insts, labels, _ := asm.ParseListing("mov eax, 2Ah\nretn")
	img, err := Link(&Program{Funcs: []Func{{Name: "f", Insts: insts, Labels: labels}}})
	if err != nil {
		t.Fatal(err)
	}
	f, err := Read(img)
	if err != nil {
		t.Fatal(err)
	}
	fns, err := f.Functions()
	if err != nil || len(fns) != 1 {
		t.Fatalf("functions: %v %d", err, len(fns))
	}
	if len(f.Imports) != 0 {
		t.Errorf("imports = %v", f.Imports)
	}
	// Table reloc referencing missing pieces must error.
	_, err = Link(&Program{
		Funcs:       []Func{{Name: "f", Insts: insts, Labels: labels}},
		TableRelocs: []TableReloc{{Datum: "nope", Func: "f", Label: "x"}},
	})
	if err == nil {
		t.Error("bad table reloc should error")
	}
}

// TestTakeDecodedOnce: every function discovered in a stripped image
// carries the decode of exactly its code, a symbol-table image carries
// none, and of any number of concurrent takers one gets the run.
func TestTakeDecodedOnce(t *testing.T) {
	img, err := Link(testProgram(t))
	if err != nil {
		t.Fatal(err)
	}
	orig, err := Read(img)
	if err != nil {
		t.Fatal(err)
	}
	withSyms, err := orig.Functions()
	if err != nil {
		t.Fatal(err)
	}
	for _, fn := range withSyms {
		if _, ok := fn.TakeDecoded(); ok {
			t.Errorf("%s: a symbol-table image kept a decoded run", fn.Name)
		}
	}
	stripped, err := Strip(img)
	if err != nil {
		t.Fatal(err)
	}
	f, err := Read(stripped)
	if err != nil {
		t.Fatal(err)
	}
	d, err := f.Discover()
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, fn := range d.Funcs {
		const takers = 8
		runs := make([]x86.Run, takers)
		var got atomic.Int32
		var wg sync.WaitGroup
		for i := 0; i < takers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if run, ok := fn.TakeDecoded(); ok {
					runs[i] = run
					got.Add(1)
				}
			}(i)
		}
		wg.Wait()
		if got.Load() != 1 {
			t.Fatalf("%s: %d of %d concurrent takers got the run", fn.Name, got.Load(), takers)
		}
		want := decodeAllOrFatal(t, fn)
		for _, run := range runs {
			if len(run.Insts) == 0 {
				continue
			}
			total += len(run.Insts)
			if run.End != fn.Addr+uint32(len(fn.Code)) || len(run.Insts) != len(want) {
				t.Fatalf("%s: kept %d instructions to %#x, DecodeAll %d to %#x",
					fn.Name, len(run.Insts), run.End, len(want), fn.Addr+uint32(len(fn.Code)))
			}
			for i := range want {
				if run.Addrs[i] != want[i].Addr || !run.Insts[i].Equal(want[i].Inst) {
					t.Fatalf("%s: kept instruction %d differs from DecodeAll's", fn.Name, i)
				}
			}
		}
	}
	if d.Decoded != total {
		t.Errorf("discovery decoded %d instructions, the functions hold %d", d.Decoded, total)
	}
}
