package idxfile

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/minhash"
)

// FuzzIdxfileLoad throws arbitrary bytes at the v4 parser: Parse must
// reject garbage with a corruptError, never panic, and never index out
// of range. Any file Parse accepts must then serve every accessor without
// faulting, and every function of it is read both ways — rebuilt as
// instructions and as packed blocks out of PACK — since a function's own
// records are validated at that first read, not at Parse: each read either
// succeeds or fails with a corruptError, both ways succeed or fail alike
// and with the same error text (they are one walk over the record), a
// decoded graph is well-formed, and packed blocks that were handed out are
// compared (decomposed as a view, one Compare against the file's first)
// without faulting. Those checks are the only wall between untrusted bytes
// and the unchecked decode and compare paths.
func FuzzIdxfileLoad(f *testing.F) {
	// A genuine file as the prime seed so the fuzzer mutates real section
	// structure instead of rediscovering the magic.
	var saved bytes.Buffer
	if _, err := handBuilder().WriteTo(&saved); err != nil {
		f.Fatal(err)
	}
	f.Add(saved.Bytes())
	f.Add(saved.Bytes()[:saved.Len()/2])
	f.Add(saved.Bytes()[:headerSize])
	var empty bytes.Buffer
	if _, err := NewBuilder().WriteTo(&empty); err != nil {
		f.Fatal(err)
	}
	f.Add(empty.Bytes())
	f.Add([]byte(Magic))
	f.Add([]byte("TRACYIDX\x04\x00\x00\x00garbage"))
	f.Add([]byte{})
	f.Add([]byte("not an index at all"))
	for _, seed := range lshFuzzSeeds(f) {
		f.Add(seed)
	}
	for _, seed := range packFuzzSeeds(f) {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			t.Skip("oversized input")
		}
		pf, err := Parse(data)
		if err != nil {
			if !IsCorrupt(err) {
				t.Fatalf("Parse returned a non-corruption error for bad bytes: %v", err)
			}
			return
		}
		var first *core.Decomposed
		matcher := core.NewMatcher(core.DefaultOptions())
		// Accepted files must be fully traversable, LSH included.
		if pf.HasLSH() {
			lp := pf.LSHParams()
			if !lp.Valid() {
				t.Fatalf("Parse accepted unusable LSH parameters %+v", lp)
			}
			if len(pf.LSHSigs()) != pf.NumFuncs()*lp.K() {
				t.Fatalf("LSH pool holds %d values for %d functions x k=%d",
					len(pf.LSHSigs()), pf.NumFuncs(), lp.K())
			}
		}
		for i := 0; i < pf.NumFuncs(); i++ {
			m := pf.Meta(i)
			_ = m.Exe
			_ = pf.Features(i)
			if pf.HasLSH() {
				if sig := pf.LSHSig(i); len(sig) != pf.LSHParams().K() {
					t.Fatalf("LSHSig(%d) has %d values, want k=%d", i, len(sig), pf.LSHParams().K())
				}
			}
			fn, derr := pf.DecodeFunc(i)
			switch {
			case derr != nil:
				if !IsCorrupt(derr) {
					t.Fatalf("DecodeFunc(%d) failed with something other than corruption: %v", i, derr)
				}
			case fn == nil || fn.Graph == nil || len(fn.Graph.Blocks) == 0:
				t.Fatal("a function decodes to a malformed graph")
			case fn.Graph.Entry < 0 || fn.Graph.Entry >= len(fn.Graph.Blocks):
				t.Fatalf("decoded entry %d of %d blocks", fn.Graph.Entry, len(fn.Graph.Blocks))
			default:
				for _, b := range fn.Graph.Blocks {
					for _, s := range b.Succs {
						if s < 0 || s >= len(fn.Graph.Blocks) {
							t.Fatalf("decoded successor %d of %d blocks", s, len(fn.Graph.Blocks))
						}
					}
				}
			}
			p, err := pf.PackedFunc(i)
			if (err == nil) != (derr == nil) || err != nil && err.Error() != derr.Error() {
				t.Fatalf("function %d: DecodeFunc returned %v, PackedFunc %v; the two walk the record alike", i, derr, err)
			}
			if err != nil {
				if !IsCorrupt(err) {
					t.Fatalf("PackedFunc(%d) failed with something other than corruption: %v", i, err)
				}
				continue
			}
			// A dense successor table has more 3-paths, and a long block more
			// alignment cells, than a fuzz run has time for; neither cost is
			// PACK's — the decoded function has the same graph and the same
			// blocks.
			edges, insts := 0, 0
			for b := range p.Blocks {
				edges += len(p.Blocks[b].Succs)
				insts += p.Blocks[b].Len()
			}
			if len(p.Blocks) > 64 || edges > 128 || insts > 512 {
				continue
			}
			view := core.DecomposeBlocks(p.Name, p.Blocks, p.NumInsts, 3, nil)
			if first == nil {
				first = view
			}
			matcher.Compare(first, view)
			matcher.Compare(view, first)
		}
		// A band table Parse accepted is probed without faulting, sorted or
		// not: every bucket is a stretch of ids of the corpus.
		if table := pf.LSHTable(); table != nil {
			lp, n := pf.LSHParams(), pf.NumFuncs()
			for b := 0; b < lp.Bands; b++ {
				for i := 0; i < n; i++ {
					for _, id := range minhash.Bucket(lp, pf.LSHSigs(), table, n, b, minhash.BandHash(pf.LSHSig(i), b, lp)) {
						if int(id) >= n {
							t.Fatalf("band %d: bucket holds function %d of %d", b, id, n)
						}
					}
				}
			}
		}
		_ = pf.Verify()
	})
}

// packFuzzSeeds builds the seed set around PACK, by seed-file name: a
// section cut short (refused at Parse) and the records of packMutants,
// each wrong in one place that a read of the function must catch — and one
// that is well-formed and disagrees with the records, which loads,
// compares and is Verify's to refuse.
func packFuzzSeeds(tb testing.TB) map[string][]byte {
	tb.Helper()
	var buf bytes.Buffer
	if _, err := handBuilder().WriteTo(&buf); err != nil {
		tb.Fatal(err)
	}
	valid := buf.Bytes()
	de := dirEntryOf(tb, valid, SecPACK)
	seeds := map[string][]byte{
		"seed-pack-truncated": flip(valid, func(b []byte) {
			binary.LittleEndian.PutUint64(b[de+16:], binary.LittleEndian.Uint64(b[de+16:])-8)
			fixDirCRC(b)
		}),
	}
	for name, mut := range packMutants(tb, valid) {
		seeds["seed-pack-"+strings.NewReplacer(" ", "-").Replace(name)] = mut
	}
	return seeds
}

// lshFuzzSeeds builds the LSH-bearing seed set, by seed-file name: a valid
// signed file; one with a truncated LSHB payload, one whose banding header
// demands a smaller payload than the section carries (oversized) and one
// with unusable parameters; and the LSHT mutants (truncated, an id out of
// range, a repeated id, a mis-sorted band). The mutants let the fuzzer
// start from each rejection path instead of having to rediscover the
// section grammar.
func lshFuzzSeeds(tb testing.TB) map[string][]byte {
	tb.Helper()
	exes, fns, truths, feats := handFuncs()
	b := NewBuilder()
	for i, fn := range fns {
		b.Add(exes[i], fn, truths[i], feats[i])
	}
	var buf bytes.Buffer
	if _, err := b.WriteLSH(&buf, &minhash.Default); err != nil {
		tb.Fatal(err)
	}
	valid := buf.Bytes()

	deOff := dirEntryOf(tb, valid, SecLSHB)
	secOff := binary.LittleEndian.Uint64(valid[deOff+8:])
	secLen := binary.LittleEndian.Uint64(valid[deOff+16:])

	seeds := map[string][]byte{
		"seed-lshb-valid": valid,
		"seed-lshb-truncated": flip(valid, func(b []byte) {
			binary.LittleEndian.PutUint64(b[deOff+16:], secLen-lshSigSize)
			fixDirCRC(b)
		}),
		"seed-lshb-oversized": flip(valid, func(b []byte) {
			binary.LittleEndian.PutUint32(b[secOff:], uint32(minhash.Default.Bands/2))
		}),
		"seed-lshb-badparams": flip(valid, func(b []byte) {
			binary.LittleEndian.PutUint32(b[secOff:], 0)
		}),
	}
	for name, mut := range lshtMutants(tb, valid) {
		seeds["seed-lsht-"+strings.NewReplacer(" ", "-").Replace(name)] = mut
	}
	return seeds
}

// TestRegenerateFuzzSeeds rewrites the checked-in seed corpus under
// testdata/fuzz/FuzzIdxfileLoad when IDXFILE_REGEN_SEEDS=1, so format
// changes keep the seeds honest. A plain test run only asserts the
// seeds exist.
func TestRegenerateFuzzSeeds(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzIdxfileLoad")
	var valid bytes.Buffer
	if _, err := handBuilder().WriteTo(&valid); err != nil {
		t.Fatal(err)
	}
	var empty bytes.Buffer
	if _, err := NewBuilder().WriteTo(&empty); err != nil {
		t.Fatal(err)
	}
	seeds := lshFuzzSeeds(t)
	for name, data := range packFuzzSeeds(t) {
		seeds[name] = data
	}
	seeds["seed-valid-v3"] = valid.Bytes()
	seeds["seed-empty-v3"] = empty.Bytes()
	seeds["seed-truncated"] = valid.Bytes()[:valid.Len()/2]
	seeds["seed-header-only"] = valid.Bytes()[:headerSize]
	seeds["seed-bad-version"] = []byte("TRACYIDX\x09\x00\x00\x00junk")
	if os.Getenv("IDXFILE_REGEN_SEEDS") == "" {
		for name := range seeds {
			if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
				t.Errorf("seed corpus missing %s (regenerate with IDXFILE_REGEN_SEEDS=1)", name)
			}
		}
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range seeds {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
