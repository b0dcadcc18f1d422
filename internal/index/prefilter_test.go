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
		pre := db.SearchWith(query, opts, PrefilterOptions{Candidates: c})
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
	hits := db.SearchWith(query, core.DefaultOptions(), PrefilterOptions{Candidates: 3})
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
	pf := PrefilterOptions{Candidates: 7}
	a := db.SearchWith(query, core.DefaultOptions(), pf)
	b := db.SearchWith(query, core.DefaultOptions(), pf)
	if len(a) != len(b) {
		t.Fatalf("candidate count drifted: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Entry != b[i].Entry || a[i].Result != b[i].Result {
			t.Fatalf("hit %d drifted between identical queries", i)
		}
	}
}

// TestSnapshotPrefilterParity: DB.SearchWith and the snapshot path must
// return identical prefiltered hits.
func TestSnapshotPrefilterParity(t *testing.T) {
	db, _ := buildTestDB(t)
	query := queryFor(t, db, corpus.LibFuncName)
	snap := BuildSnapshot(db, []int{3}, 4)
	opts := core.DefaultOptions()
	pf := PrefilterOptions{Candidates: 9}
	want := db.SearchWith(query, opts, pf)
	got, err := snap.SearchDecomposedCtx(context.Background(), core.Decompose(query, 3), opts, pf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("snapshot prefilter returned %d hits, DB returned %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Entry.Exe != want[i].Entry.Exe || got[i].Entry.Name != want[i].Entry.Name ||
			got[i].Result != want[i].Result {
			t.Errorf("hit %d differs: %s/%s vs %s/%s", i,
				got[i].Entry.Exe, got[i].Entry.Name, want[i].Entry.Exe, want[i].Entry.Name)
		}
	}
}

// TestSearchPruneParity: DB.Search with the default (pruned) options must
// return the hits of exhaustive mode with bit-identical Verdicts — the
// index-level view of the core pruner's losslessness.
func TestSearchPruneParity(t *testing.T) {
	db, _ := buildTestDB(t)
	query := queryFor(t, db, corpus.LibFuncName)
	exact := core.DefaultOptions()
	exact.Prune = false
	pruned := core.DefaultOptions()
	pruned.Prune = true
	a := db.Search(query, exact)
	b := db.Search(query, pruned)
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
	fi := buildFeatureIndex([][]uint64{
		{1, 2, 3}, // id 0: 2 shared
		{1, 2},    // id 1: 2 shared (tie -> lower id wins on cut)
		{9},       // id 2: none shared
		{1},       // id 3: 1 shared
	})
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
		for _, b := range e.Func.Graph.Blocks {
			check(e.Exe+"/"+e.Name, b.Body())
			check(e.Exe+"/"+e.Name+" (with its jump)", b.Insts)
			blocks++
		}
		var fs []uint64
		for _, b := range e.Func.Graph.Blocks {
			fs = oracleBlockFeatures(fs, b.Body())
		}
		if got, want := FuncFeatures(e.Func), dedupeSorted(fs); !reflect.DeepEqual(got, want) {
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
