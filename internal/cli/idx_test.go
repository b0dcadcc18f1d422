package cli

import (
	"bytes"
	"encoding/gob"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// buildTestIndex indexes two executables into an index file and returns
// its path.
func buildTestIndex(t *testing.T, dir string) string {
	t.Helper()
	exeA := buildExe(t, dir, "a.bin", srcA, 1)
	exeB := buildExe(t, dir, "b.bin", srcB, 2)
	dbPath := filepath.Join(dir, "test.db")
	if _, err := run(t, "index", "-db", dbPath, exeA, exeB); err != nil {
		t.Fatal(err)
	}
	return dbPath
}

// legacyIndex writes into dir a gob index as an older tracy wrote it —
// the TRACYIDX prelude at version 2 in front of a gob stream of entries —
// and returns its path.
func legacyIndex(t *testing.T, dir string) string {
	t.Helper()
	type entry struct{ Exe, Name string }
	var buf bytes.Buffer
	buf.WriteString("TRACYIDX\x02")
	if err := gob.NewEncoder(&buf).Encode(struct{ Entries []*entry }{[]*entry{{"a.bin", "alpha"}}}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "old.db")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// refusesLegacy fails the test unless err is the refusal of a gob index:
// one that names tracy convert and is no gob decode error.
func refusesLegacy(t *testing.T, what string, err error) {
	t.Helper()
	if err == nil || !strings.Contains(err.Error(), "tracy convert") || strings.Contains(err.Error(), "gob:") {
		t.Errorf("%s on a v3 or gob index: %v, want an error naming tracy convert", what, err)
	}
}

func TestIndexV4Format(t *testing.T) {
	dir := t.TempDir()
	dbPath := buildTestIndex(t, dir)
	prelude := make([]byte, 9)
	f, err := os.Open(dbPath)
	if err != nil {
		t.Fatal(err)
	}
	f.Read(prelude)
	f.Close()
	if string(prelude[:8]) != "TRACYIDX" || prelude[8] != 4 {
		t.Fatalf("index wrote prelude %q", prelude)
	}
	// And it must be searchable directly.
	out, err := run(t, "search", "-db", dbPath, "-exe", filepath.Join(dir, "a.bin"), "-top", "3")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "alpha") && !strings.Contains(out, "sub_") {
		t.Errorf("search over the index printed no hits:\n%s", out)
	}
}

// TestIndexBadFormat: extending a file that is not a v4 index fails
// before anything is written, and a gob index is told to convert first.
func TestIndexBadFormat(t *testing.T) {
	dir := t.TempDir()
	exeA := buildExe(t, dir, "a.bin", srcA, 1)
	old := legacyIndex(t, dir)
	_, err := run(t, "index", "-db", old, exeA)
	refusesLegacy(t, "index", err)
	junk := filepath.Join(dir, "junk.db")
	if err := os.WriteFile(junk, []byte("not an index"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := run(t, "index", "-db", junk, exeA); err == nil {
		t.Fatal("index extended a file that is no index")
	}
	if data, _ := os.ReadFile(junk); string(data) != "not an index" {
		t.Error("a refused index run rewrote the file")
	}
}

// TestConvertInPlace: tracy convert x x leaves a valid index — a v4 input
// whose entries decode from the very mapping being replaced, rewritten as
// it is and with -lsh. Each passes idxinfo -verify afterwards and answers
// tracy stats as the same index converted to another path does. An older
// index — a gob one, and a TRACYIDX v3 one — is refused by the serving
// verbs and by convert, to another path and in place, before anything is
// written: it is left as it was and no output appears.
func TestConvertInPlace(t *testing.T) {
	dir := t.TempDir()
	cur := buildTestIndex(t, dir)
	v3, err := os.ReadFile(cur)
	if err != nil {
		t.Fatal(err)
	}
	v3[len("TRACYIDX")] = 3
	oldV3 := filepath.Join(dir, "old.v3")
	if err := os.WriteFile(oldV3, v3, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{legacyIndex(t, dir), oldV3} {
		before, err := os.ReadFile(src)
		if err != nil {
			t.Fatal(err)
		}
		for verb, args := range map[string][]string{
			"stats":            {"stats", "-db", src},
			"search":           {"search", "-db", src, "-exe", filepath.Join(dir, "a.bin")},
			"serve":            {"serve", "-db", src, "-addr", "127.0.0.1:0"},
			"index":            {"index", "-db", src, filepath.Join(dir, "a.bin")},
			"convert":          {"convert", src, src + ".aside"},
			"convert in place": {"convert", src, src},
		} {
			_, err := run(t, args...)
			refusesLegacy(t, verb, err)
		}
		if data, _ := os.ReadFile(src); !bytes.Equal(data, before) {
			t.Errorf("a refused verb rewrote %s", src)
		}
		for _, out := range []string{src + ".aside", src + ".aside.tmp", src + ".tmp"} {
			if _, err := os.Stat(out); !os.IsNotExist(err) {
				t.Errorf("a refused convert of %s left %s", src, out)
			}
		}
	}
	for _, flags := range [][]string{nil, {"-lsh"}} {
		aside := cur + ".aside"
		if _, err := run(t, append(append([]string{"convert"}, flags...), cur, aside)...); err != nil {
			t.Fatal(err)
		}
		want, err := run(t, "stats", "-db", aside)
		if err != nil {
			t.Fatal(err)
		}
		out, err := run(t, append(append([]string{"convert"}, flags...), cur, cur)...)
		if err != nil {
			t.Fatalf("convert %v in place: %v", flags, err)
		}
		if !strings.Contains(out, "converted") || !strings.Contains(out, "TRACYIDX v4") {
			t.Errorf("convert output: %s", out)
		}
		info, err := run(t, "idxinfo", "-verify", cur)
		if err != nil {
			t.Fatalf("%v after in-place convert: %v", flags, err)
		}
		if lsh := len(flags) > 0; strings.Contains(info, "LSHB") != lsh {
			t.Errorf("convert %v in place: LSHB section present %v, want %v", flags, !lsh, lsh)
		}
		got, err := run(t, "stats", "-db", cur)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%v: stats after in-place convert\n%s\nwant\n%s", flags, got, want)
		}
		if _, err := os.Stat(cur + ".tmp"); !os.IsNotExist(err) {
			t.Errorf("%v: convert left its temporary file behind", flags)
		}
	}
}

func TestConvertErrors(t *testing.T) {
	if _, err := run(t, "convert", "only-one-arg"); err == nil {
		t.Error("convert accepted a single path")
	}
	junk := filepath.Join(t.TempDir(), "junk.db")
	if err := os.WriteFile(junk, []byte("not an index"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := run(t, "convert", junk, junk+".idx"); err == nil {
		t.Error("convert accepted a file that is no index")
	}
	if _, err := run(t, "convert", "/nonexistent/in.db", "/tmp/out.db"); err == nil {
		t.Error("convert accepted missing input")
	}
}

func TestIdxinfoV3(t *testing.T) {
	dir := t.TempDir()
	dbPath := buildTestIndex(t, dir)
	out, err := run(t, "idxinfo", "-verify", dbPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"TRACYIDX v4", "functions:", "sections:", "STRB", "FUNC", "FEAT", "checksums: all sections OK"} {
		if !strings.Contains(out, want) {
			t.Errorf("idxinfo output missing %q:\n%s", want, out)
		}
	}
}

// TestIdxinfoGob: idxinfo reads no gob index; it names the way to one it
// can read.
func TestIdxinfoGob(t *testing.T) {
	_, err := run(t, "idxinfo", legacyIndex(t, t.TempDir()))
	refusesLegacy(t, "idxinfo", err)
}

func TestIdxinfoErrors(t *testing.T) {
	if _, err := run(t, "idxinfo"); err == nil {
		t.Error("idxinfo accepted zero args")
	}
	if _, err := run(t, "idxinfo", "/nonexistent.db"); err == nil {
		t.Error("idxinfo accepted missing file")
	}
	// A corrupted file must fail verification.
	dir := t.TempDir()
	dbPath := buildTestIndex(t, dir)
	data, err := os.ReadFile(dbPath)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte deep in the payload (structure-preserving corruption).
	data[len(data)-5] ^= 0x01
	bad := filepath.Join(dir, "bad.idx")
	if err := os.WriteFile(bad, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := run(t, "idxinfo", "-verify", bad); err == nil {
		t.Error("idxinfo -verify passed a corrupted file")
	}
}

func TestIndexExtendV3InPlace(t *testing.T) {
	dir := t.TempDir()
	dbPath := buildTestIndex(t, dir)
	exeC := buildExe(t, dir, "c.bin", srcB, 7)
	out, err := run(t, "index", "-db", dbPath, exeC)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "indexed") {
		t.Errorf("extend output: %s", out)
	}
	info, err := run(t, "idxinfo", dbPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(info, "TRACYIDX v4") {
		t.Errorf("extended db lost v4 format:\n%s", info)
	}
}

// TestIndexDefaultFormatPreserved: extending an index and creating a
// fresh one both write v4 — the only format tracy writes.
func TestIndexDefaultFormatPreserved(t *testing.T) {
	dir := t.TempDir()
	dbPath := buildTestIndex(t, dir)
	exeC := buildExe(t, dir, "c.bin", srcB, 7)
	fresh := filepath.Join(dir, "fresh.db")
	for _, args := range [][]string{{"-db", dbPath, exeC}, {"-db", fresh, exeC}} {
		if _, err := run(t, append([]string{"index"}, args...)...); err != nil {
			t.Fatal(err)
		}
		info, err := run(t, "idxinfo", args[1])
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(info, "TRACYIDX v4") {
			t.Errorf("index %s did not write v4:\n%s", args[1], info)
		}
	}
}
