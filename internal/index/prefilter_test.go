package index

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/ngram"
)

// TestPrefilterSubsetOfExhaustive: every prefiltered hit must carry a
// Result identical to the exhaustive scan's for the same entry — the
// prefilter selects candidates, it never changes scores.
func TestPrefilterSubsetOfExhaustive(t *testing.T) {
	db, _ := buildTestDB(t)
	query := queryFor(t, db, corpus.LibFuncName)
	opts := core.DefaultOptions()
	full := SerialSearch(db.Entries, query, opts)
	byEntry := make(map[*Entry]core.Result, len(full))
	for _, h := range full {
		byEntry[h.Entry] = h.Result
	}
	for _, c := range []int{1, 5, 1 << 20} {
		pre := mustSearch(t, db.View(), Query{Func: query, Opts: opts, Prefilter: PrefilterOptions{Candidates: c}})
		if len(pre) == 0 {
			t.Fatalf("cap %d: no candidates shared a feature with the query", c)
		}
		if len(pre) > c {
			t.Fatalf("cap %d exceeded: %d hits", c, len(pre))
		}
		for _, h := range pre {
			want, ok := byEntry[h.Entry]
			if !ok {
				t.Fatalf("cap %d: prefiltered hit not in exhaustive results", c)
			}
			if h.Result != want {
				t.Errorf("cap %d: %s/%s result drifted: %+v vs %+v",
					c, h.Entry.Exe, h.Entry.Name, h.Result, want)
			}
		}
	}
}

// TestPrefilterFindsSelf: the query was built from an indexed context, so
// a near-identical corpus entry shares nearly all features — it must rank
// into even a tiny candidate set and the exact stage must match it.
func TestPrefilterFindsSelf(t *testing.T) {
	db, _ := buildTestDB(t)
	query := queryFor(t, db, corpus.LibFuncName)
	hits := mustSearch(t, db.View(), Query{Func: query, Opts: core.DefaultOptions(), Prefilter: PrefilterOptions{Candidates: 3}})
	found := false
	for _, h := range hits {
		if h.Result.IsMatch {
			found = true
		}
	}
	if !found {
		t.Error("prefiltered search lost the planted match at cap 3")
	}
}

// TestPrefilterDeterministic: identical queries must yield identical
// candidate sets and hit orders.
func TestPrefilterDeterministic(t *testing.T) {
	db, _ := buildTestDB(t)
	query := queryFor(t, db, corpus.LibFuncName)
	q := Query{Func: query, Opts: core.DefaultOptions(), Prefilter: PrefilterOptions{Candidates: 7}}
	a := mustSearch(t, db.View(), q)
	b := mustSearch(t, db.View(), q)
	if len(a) != len(b) {
		t.Fatalf("candidate count drifted: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Entry != b[i].Entry || a[i].Result != b[i].Result {
			t.Fatalf("hit %d drifted between identical queries", i)
		}
	}
}

// TestSnapshotPrefilterParity: a Func query and the Ref query of its
// decomposition get equal answers — the same hits, every Result field
// included, and the same candidate count — under the exhaustive, scan and
// lsh generators; a query naming both or neither is refused.
func TestSnapshotPrefilterParity(t *testing.T) {
	db, _ := buildTestDB(t)
	query := queryFor(t, db, corpus.LibFuncName)
	ref := core.Decompose(query, 3)
	snap := BuildSnapshot(db, []int{3}, 4)
	for _, gen := range []struct {
		name string
		pf   PrefilterOptions
	}{
		{"exhaustive", PrefilterOptions{}},
		{"scan", PrefilterOptions{Candidates: 9}},
		{"lsh", PrefilterOptions{Candidates: 9, Mode: ModeLSH}},
	} {
		byFunc, err := snap.Search(context.Background(), Query{Func: query, Opts: core.DefaultOptions(), Prefilter: gen.pf})
		if err != nil {
			t.Fatal(err)
		}
		byRef, err := snap.Search(context.Background(), Query{Ref: ref, Opts: core.DefaultOptions(), Prefilter: gen.pf})
		if err != nil {
			t.Fatal(err)
		}
		if byFunc.Candidates != byRef.Candidates {
			t.Errorf("%s: %d candidates by function, %d by reference", gen.name, byFunc.Candidates, byRef.Candidates)
		}
		sameHits(t, gen.name, byFunc.Hits, byRef.Hits)
	}
	for name, q := range map[string]Query{"both": {Func: query, Ref: ref}, "neither": {}} {
		if _, err := snap.Search(context.Background(), q); err == nil {
			t.Errorf("a query naming %s of Func and Ref was not refused", name)
		}
	}
}

// TestSearchPruneParity: a search with the default (pruned) options must
// return the hits of exhaustive mode with bit-identical Verdicts — the
// index-level view of the core pruner's losslessness.
func TestSearchPruneParity(t *testing.T) {
	db, _ := buildTestDB(t)
	query := queryFor(t, db, corpus.LibFuncName)
	exact := core.DefaultOptions()
	exact.Prune = false
	pruned := core.DefaultOptions()
	pruned.Prune = true
	a := mustSearch(t, db.View(), Query{Func: query, Opts: exact})
	b := mustSearch(t, db.View(), Query{Func: query, Opts: pruned})
	if len(a) != len(b) {
		t.Fatalf("hit counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Entry != b[i].Entry || a[i].Result.Verdict() != b[i].Result.Verdict() {
			t.Errorf("hit %d: pruned %+v != exhaustive %+v", i, b[i].Result, a[i].Result)
		}
		if b[i].Result.PairsRewritten > a[i].Result.PairsRewritten {
			t.Errorf("hit %d: pruning raised PairsRewritten from %d to %d", i, a[i].Result.PairsRewritten, b[i].Result.PairsRewritten)
		}
	}
}

// TestTopCandidatesOrdering: deterministic selection by (count desc, id
// asc), output in ascending id order, zero-overlap entries excluded.
func TestTopCandidatesOrdering(t *testing.T) {
	sets := [][]uint64{
		{1, 2, 3}, // id 0: 2 shared
		{1, 2},    // id 1: 2 shared (tie -> lower id wins on cut)
		{9},       // id 2: none shared
		{1},       // id 3: 1 shared
	}
	fi := buildFeatureIndex(len(sets), func(id int) []uint64 { return sets[id] })
	top := func(query []uint64, limit int) []int32 {
		return sortedIDs(fi.ranked(context.Background(), query, limit))
	}
	got := top([]uint64{1, 2}, 2)
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("top 2 = %v, want [0 1]", got)
	}
	// The cut ranks 3 (1 shared) after 0 and 1 (2 shared); ids come back ascending.
	if all := top([]uint64{1, 2}, 10); len(all) != 3 || all[2] != 3 {
		t.Errorf("zero-overlap entry leaked into candidates, or ids not ascending: %v", all)
	}
	if n := len(top([]uint64{42}, 10)); n != 0 {
		t.Errorf("no-overlap query returned %d candidates", n)
	}
}

// oracleBlockFeatures is the definition of a block's features: the
// prefilterGram-windows (or the one short window) of the block's
// instructions as ngram.NormalizeInsts renders them, each folded by FNV-1a
// over its tokens with a '|' after every token.
func oracleBlockFeatures(dst []uint64, body []asm.Inst) []uint64 {
	hashGram := func(norm []string) uint64 {
		const offset64, prime64 = 14695981039346656037, 1099511628211
		h := uint64(offset64)
		for _, s := range norm {
			for i := 0; i < len(s); i++ {
				h = (h ^ uint64(s[i])) * prime64
			}
			h = (h ^ '|') * prime64
		}
		return h
	}
	if len(body) == 0 {
		return dst
	}
	norm := ngram.NormalizeInsts(body)
	if len(norm) < prefilterGram {
		return append(dst, hashGram(norm))
	}
	for i := 0; i+prefilterGram <= len(norm); i++ {
		dst = append(dst, hashGram(norm[i:i+prefilterGram]))
	}
	return dst
}

// TestBlockFeaturesGolden: the string-free feature extraction yields, value
// for value and in order, what the string-rendering oracle yields — on
// every block of a campaign corpus through one reused gramHasher, and on
// crafted blocks at the corners of the rendering: more registers and
// symbols than one digit numbers, one name in two symbol classes, an
// argument of no kind, a memory operator outside ASCII, a jump in mid-block
// and blocks shorter than a window.
func TestBlockFeaturesGolden(t *testing.T) {
	var g gramHasher
	check := func(where string, body []asm.Inst) {
		t.Helper()
		got, want := g.features(nil, body), oracleBlockFeatures(nil, body)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: features\n %x\noracle\n %x", where, got, want)
		}
	}
	db := campaignDB(t, 192)
	blocks := 0
	for _, e := range db.Entries {
		for _, b := range e.fn.Graph.Blocks {
			check(e.Exe+"/"+e.Name, b.Body())
			check(e.Exe+"/"+e.Name+" (with its jump)", b.Insts)
			blocks++
		}
		var fs []uint64
		for _, b := range e.fn.Graph.Blocks {
			fs = oracleBlockFeatures(fs, b.Body())
		}
		if got, want := FuncFeatures(e.fn), dedupeSorted(fs); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s/%s: FuncFeatures differs from the oracle's set", e.Exe, e.Name)
		}
	}
	if blocks < 1000 {
		t.Fatalf("campaign corpus has only %d blocks", blocks)
	}

	var wide []asm.Inst
	for r := 1; r <= 24; r++ { // numbers r10.. and m10..
		wide = append(wide, asm.New("mov", asm.RegOp(asm.Reg(r)), asm.SymOp(asm.SymData, string(rune('a'+r)))))
	}
	check("wide", wide)
	check("two classes", []asm.Inst{
		asm.New("call", asm.SymOp(asm.SymFunc, "x")),
		asm.New("mov", asm.RegOp(asm.EAX), asm.OffsetOp(asm.SymData, "x")),
		asm.New("push", asm.SymOp(asm.SymFunc, "x")),
	})
	check("no kind, odd operator", []asm.Inst{
		{Mnemonic: "weird", Ops: []asm.Operand{{}, {Mem: []asm.MemTerm{
			{Op: asm.MemOp(0xe9), Arg: asm.RegArg(asm.Reg(200))}, {Op: asm.OpMul, Arg: asm.ImmArg(4)}, {Op: 0, Arg: asm.Arg{}}}}}},
		asm.New("nop"),
		asm.New("jmp", asm.SymOp(asm.SymLabel, "loc_1")),
		asm.New("lea", asm.RegOp(asm.ESI), asm.MemSym(asm.EBP, asm.SymLocal, "var_8")),
	})
	check("one instruction", []asm.Inst{asm.New("retn")})
	check("two instructions", []asm.Inst{asm.New("push", asm.RegOp(asm.EBP)), asm.New("retn")})
	check("empty", nil)
}
