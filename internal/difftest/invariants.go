package difftest

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/align"
	"repro/internal/asm"
	"repro/internal/bin"
	"repro/internal/core"
	"repro/internal/idxfile"
	"repro/internal/index"
	"repro/internal/minhash"
	"repro/internal/prep"
	"repro/internal/rewrite"
	"repro/internal/server"
	"repro/internal/x86"
)

// checker accumulates invariant evaluations over one program. Every call
// to fail records a divergence; ran counts evaluations whether they pass
// or not, so Report.InvariantChecks reflects coverage, not luck.
type checker struct {
	prog   int
	seed   int64
	src    string
	checks int
	divs   []Divergence
}

func (c *checker) ran() { c.checks++ }

func (c *checker) fail(name, variant, format string, args ...any) {
	c.divs = append(c.divs, Divergence{
		Check: "invariant/" + name, Program: c.prog, Seed: c.seed,
		Variant: variant, Detail: fmt.Sprintf(format, args...), Source: c.src,
	})
}

// checkInvariants evaluates every metamorphic invariant over the built
// variants of one program.
func (cfg *Config) checkInvariants(prog int, seed int64, src string, built []variant, images [][]byte) (int, []Divergence) {
	c := &checker{prog: prog, seed: seed, src: src}

	for vi, img := range images {
		c.roundTrip(built[vi].String(), img)
	}

	// Alignment and rewrite invariants want structurally different builds
	// of the same semantics: the first (O0) and last (highest-seeded O2)
	// variants are the farthest apart in the matrix.
	if len(images) >= 2 {
		first := liftNamed(images[0], FuncName)
		last := liftNamed(images[len(images)-1], FuncName)
		if first != nil && last != nil {
			da := core.Decompose(first, 3)
			db := core.Decompose(last, 3)
			c.alignInvariants(built[0].String(), da, db)
			c.rewriteInvariants(built[len(built)-1].String(), da, db)
		}
	}

	c.searchParity(built, images)
	return c.checks, c.divs
}

// roundTrip checks encode→decode→re-encode byte identity over every
// function of one built image: whatever the decoder understood, the
// encoder must reproduce bit-for-bit. Control-flow instructions are
// exempt — the decoder resolves their relative displacements to absolute
// targets, which only AssembleFunc (with labels) can re-encode.
func (c *checker) roundTrip(variant string, img []byte) {
	f, err := bin.Read(img)
	if err != nil {
		c.ran()
		c.fail("roundtrip", variant, "reading built image: %v", err)
		return
	}
	fns, err := f.Functions()
	if err != nil {
		c.ran()
		c.fail("roundtrip", variant, "finding functions: %v", err)
		return
	}
	for _, fn := range fns {
		decoded, err := x86.DecodeAll(fn.Code, fn.Addr)
		if err != nil {
			c.ran()
			c.fail("roundtrip", variant, "%s: decoding: %v", fn.Name, err)
			continue
		}
		for _, d := range decoded {
			if d.Inst.IsControlFlow() {
				continue
			}
			c.ran()
			enc, fixups, err := x86.EncodeInst(d.Inst)
			if err != nil {
				c.fail("roundtrip", variant, "%s at %#x: %q decoded but will not re-encode: %v",
					fn.Name, d.Addr, d.Inst, err)
				continue
			}
			if len(fixups) != 0 {
				c.fail("roundtrip", variant, "%s at %#x: %q re-encoded with %d fixups from concrete bytes",
					fn.Name, d.Addr, d.Inst, len(fixups))
				continue
			}
			orig := fn.Code[d.Addr-fn.Addr : d.Addr-fn.Addr+uint32(d.Len)]
			if !bytes.Equal(enc, orig) {
				c.fail("roundtrip", variant, "%s at %#x: %q re-encodes to % x, was % x",
					fn.Name, d.Addr, d.Inst, enc, orig)
			}
		}
	}
}

// alignInvariants checks the algebra of the tracelet aligner on real
// tracelets from two builds: score symmetry, the self-similarity
// ceiling (nothing aligns better with a tracelet than itself, and the
// self-score normalizes to exactly 1), and traceback consistency (the
// alignment's claimed score equals both the DP score and the sum of
// Sim over its chosen pairs).
func (c *checker) alignInvariants(variant string, da, db *core.Decomposed) {
	pairs := traceletPairs(da, db, 4)
	for _, p := range pairs {
		ref, tgt := p[0], p[1]
		rIdent, tIdent := align.IdentityScore(ref), align.IdentityScore(tgt)

		c.ran()
		fwd, bwd := align.Score(ref, tgt), align.Score(tgt, ref)
		if fwd != bwd {
			c.fail("align/symmetry", variant, "Score(ref,tgt)=%d but Score(tgt,ref)=%d", fwd, bwd)
		}

		c.ran()
		if min := minInt(rIdent, tIdent); fwd > min {
			c.fail("align/ceiling", variant, "cross score %d exceeds min identity %d", fwd, min)
		}

		c.ran()
		if self := align.Score(ref, ref); self != rIdent {
			c.fail("align/self", variant, "self score %d != identity score %d", self, rIdent)
		} else if rIdent > 0 {
			for _, m := range []align.Method{align.Ratio, align.Containment} {
				if n := align.Norm(self, rIdent, rIdent, m); n != 1.0 {
					c.fail("align/self", variant, "%v-normalized self score = %v, want exactly 1", m, n)
				}
			}
		}

		c.ran()
		al := align.Align(ref, tgt)
		if al.Score != fwd {
			c.fail("align/traceback", variant, "Align score %d != Score %d", al.Score, fwd)
		}
		sum, prevR, prevT := 0, -1, -1
		for _, pr := range al.Pairs {
			if pr.Ref <= prevR || pr.Tgt <= prevT {
				c.fail("align/traceback", variant, "pairs not strictly increasing: %v", al.Pairs)
				break
			}
			prevR, prevT = pr.Ref, pr.Tgt
			sum += align.Sim(ref[pr.Ref], tgt[pr.Tgt])
		}
		if sum != al.Score {
			c.fail("align/traceback", variant, "sum of pair sims %d != score %d", sum, al.Score)
		}
		if len(al.Pairs)+len(al.Deleted) != len(ref) || len(al.Pairs)+len(al.Inserted) != len(tgt) {
			c.fail("align/traceback", variant, "pairs+deleted+inserted do not partition the sequences")
		}
	}
}

// rewriteInvariants checks the CSP rewrite engine on tracelet pairs from
// two builds: the rewrite must preserve the target's shape (same blocks,
// same instruction kinds), must not mutate its input, must never lower
// the alignment score of the pair it was asked to improve, and the full
// matcher with rewriting enabled must never score a function pair below
// the same matcher with rewriting disabled.
func (c *checker) rewriteInvariants(variant string, da, db *core.Decomposed) {
	n := minInt(minInt(len(da.Tracelets), len(db.Tracelets)), 3)
	for i := 0; i < n; i++ {
		rt, tt := da.Tracelets[i], db.Tracelets[i]
		refInsts, tgtInsts := rt.Insts(), tt.Insts()
		if len(refInsts) == 0 || len(tgtInsts) == 0 {
			continue
		}
		before := traceletString(tt.Blocks)
		pre := align.Score(refInsts, tgtInsts)
		al := align.Align(refInsts, tgtInsts)
		res := rewrite.Rewrite(rt.Blocks, tt.Blocks, al)

		c.ran()
		if after := traceletString(tt.Blocks); after != before {
			c.fail("rewrite/immutable", variant, "Rewrite mutated its input tracelet")
		}

		c.ran()
		if len(res.Blocks) != len(tt.Blocks) {
			c.fail("rewrite/shape", variant, "rewrite changed block count %d -> %d",
				len(tt.Blocks), len(res.Blocks))
		} else {
		shape:
			for bi, blk := range res.Blocks {
				if len(blk) != len(tt.Blocks[bi]) {
					c.fail("rewrite/shape", variant, "block %d changed length %d -> %d",
						bi, len(tt.Blocks[bi]), len(blk))
					break
				}
				for ii, in := range blk {
					if in.Mnemonic != tt.Blocks[bi][ii].Mnemonic {
						c.fail("rewrite/shape", variant, "block %d inst %d changed kind %q -> %q",
							bi, ii, tt.Blocks[bi][ii].Mnemonic, in.Mnemonic)
						break shape
					}
				}
			}
		}

		c.ran()
		post := align.Score(refInsts, flattenBlocks(res.Blocks))
		if post < pre {
			c.fail("rewrite/monotone", variant,
				"rewriting lowered the alignment score %d -> %d (vars=%d conflicts=%d)",
				pre, post, res.NumVars, res.Conflicts)
		}
	}

	// Engine-level monotonicity: rewriting can only add matched tracelets.
	c.ran()
	plain := core.DefaultOptions()
	plain.UseRewrite = false
	with := core.DefaultOptions()
	rp := core.NewMatcher(plain).Compare(da, db)
	rw := core.NewMatcher(with).Compare(da, db)
	if rw.SimilarityScore < rp.SimilarityScore || rw.Matched() < rp.Matched() {
		c.fail("rewrite/monotone", variant,
			"enabling rewrite lowered the verdict: score %v -> %v, matched %d -> %d",
			rp.SimilarityScore, rw.SimilarityScore, rp.Matched(), rw.Matched())
	}
	c.ran()
	if rw.MatchedDirect != rp.MatchedDirect {
		c.fail("rewrite/direct", variant,
			"enabling rewrite changed direct matches %d -> %d", rp.MatchedDirect, rw.MatchedDirect)
	}
}

// searchParity indexes every variant and checks that the search paths —
// the serial reference, the one search engine (Snapshot.Search, on the
// database's own view and on snapshots built for serving) and the HTTP
// service — rank the same query identically, hit for hit.
func (c *checker) searchParity(built []variant, images [][]byte) {
	const limit = 100
	opts := core.DefaultOptions()
	db := index.New()
	for vi, img := range images {
		if err := db.AddImage(fmt.Sprintf("v%d-%s", vi, built[vi]), img, nil); err != nil {
			c.ran()
			c.fail("parity", built[vi].String(), "indexing: %v", err)
			return
		}
	}
	query := liftNamed(images[0], FuncName)
	if query == nil {
		c.ran()
		c.fail("parity", built[0].String(), "query function %s not liftable from first variant", FuncName)
		return
	}

	offline := index.TopK(index.SerialSearch(db.Entries, query, opts), limit, 0)
	view := db.View()
	search := func(check, variant string, s *index.Snapshot, o core.Options, pf index.PrefilterOptions) []index.Hit {
		a, err := s.Search(context.Background(), index.Query{Func: query, Opts: o, Prefilter: pf})
		if err != nil {
			c.fail(check, variant, "search: %v", err)
		}
		return a.Hits
	}

	c.ran()
	if d := diffOfflineHits(offline, index.TopK(search("parity", "db", view, opts, index.PrefilterOptions{}), limit, 0)); d != "" {
		c.fail("parity", "db", "DB.View search vs serial reference: %s", d)
	}

	// The score-bound pruner must be lossless: the Verdict of every hit
	// identical between pruned and exhaustive search, and never more pairs
	// taken to the rewrite stage.
	c.ran()
	exhaustive := opts
	exhaustive.Prune = false
	exHits := index.TopK(search("parity", "prune", view, exhaustive, index.PrefilterOptions{}), limit, 0)
	if len(exHits) != len(offline) {
		c.fail("parity", "prune", "pruned search returned %d hits, exhaustive %d",
			len(offline), len(exHits))
	} else {
		for i := range offline {
			pr, ex := offline[i].Result, exHits[i].Result
			if offline[i].Entry != exHits[i].Entry || pr.Verdict() != ex.Verdict() || pr.PairsRewritten > ex.PairsRewritten {
				c.fail("parity", "prune", "hit %d: pruned %s %+v != exhaustive %s %+v",
					i, offline[i].Entry.Name, pr, exHits[i].Entry.Name, ex)
				break
			}
		}
	}

	// The feature prefilter is lossy in coverage but must be exact in
	// scoring: each prefiltered hit carries the exhaustive scan's Result
	// for the same entry.
	c.ran()
	byEntry := make(map[*index.Entry]core.Result, len(offline))
	for _, h := range offline {
		byEntry[h.Entry] = h.Result
	}
	pre := search("parity", "prefilter", view, opts, index.PrefilterOptions{Candidates: 5})
	if len(pre) == 0 || len(pre) > 5 {
		c.fail("parity", "prefilter", "cap 5 returned %d candidates", len(pre))
	}
	for _, h := range pre {
		if want, ok := byEntry[h.Entry]; !ok || h.Result != want {
			c.fail("parity", "prefilter", "candidate %s/%s result drifted: %+v vs %+v",
				h.Entry.Exe, h.Entry.Name, h.Result, want)
			break
		}
	}

	// The banded MinHash prefilter is lossy in coverage but bounded the
	// same way: every candidate it surfaces must carry the exhaustive
	// scan's Result for that entry, the query's own entry must survive
	// banding (it collides with itself in every band), and the whole path
	// must be deterministic — run to run in memory, and byte for byte
	// through the LSHB section.
	c.ran()
	satur := index.PrefilterOptions{Candidates: db.Len() + 1, Mode: index.ModeLSH}
	lshHits := search("lsh/parity", "mem", view, opts, satur)
	if len(lshHits) == 0 {
		c.fail("lsh/self", "mem", "saturating lsh search returned no candidates")
	}
	self := false
	for _, h := range lshHits {
		if want, ok := byEntry[h.Entry]; !ok || h.Result != want {
			c.fail("lsh/parity", "mem", "lsh candidate %s/%s result drifted from exhaustive: %+v vs %+v",
				h.Entry.Exe, h.Entry.Name, h.Result, want)
			break
		}
		if h.Entry.Name == query.Name && h.Result.IsMatch {
			self = true
		}
	}
	if len(lshHits) > 0 && !self {
		c.fail("lsh/self", "mem", "query's own entry %s missing from saturating lsh candidates", query.Name)
	}
	c.ran()
	if d := diffOfflineHits(lshHits, search("lsh/determinism", "mem", view, opts, satur)); d != "" {
		c.fail("lsh/determinism", "mem", "two identical lsh searches diverged: %s", d)
	}
	// A tight cap must stay a subset with unchanged scores.
	c.ran()
	for _, h := range search("lsh/subset", "mem", view, opts, index.PrefilterOptions{Candidates: 5, Mode: index.ModeLSH}) {
		if want, ok := byEntry[h.Entry]; !ok || h.Result != want {
			c.fail("lsh/subset", "mem", "capped lsh candidate %s/%s not in exhaustive results or rescored",
				h.Entry.Exe, h.Entry.Name)
			break
		}
	}
	c.ran()
	var lsh1, lsh2 bytes.Buffer
	withLSH := index.SaveOptions{LSH: &minhash.Default}
	if err := db.Save(&lsh1, withLSH); err != nil {
		c.fail("lsh/file", "file", "Save with lsh: %v", err)
	} else if err := db.Save(&lsh2, withLSH); err != nil {
		c.fail("lsh/file", "file", "Save with lsh (second run): %v", err)
	} else if !bytes.Equal(lsh1.Bytes(), lsh2.Bytes()) {
		c.fail("lsh/determinism", "file", "two Save runs with lsh of the same index differ byte-for-byte")
	} else if lshdb, err := index.Load(bytes.NewReader(lsh1.Bytes())); err != nil {
		c.fail("lsh/file", "file", "loading lsh-signed index: %v", err)
	} else {
		if !lshdb.Store().HasLSH() {
			c.fail("lsh/file", "file", "Save with lsh wrote no LSHB section")
		}
		c.ran()
		if d := diffOfflineHits(lshHits, search("lsh/determinism", "file", lshdb.View(), opts, satur)); d != "" {
			c.fail("lsh/determinism", "file", "persisted signatures rank differently than in-memory ones: %s", d)
		}
	}

	c.ran()
	snapTop := index.TopK(search("parity", "snapshot", index.BuildSnapshot(db, []int{opts.K}, 2), opts, index.PrefilterOptions{}), limit, 0)
	if d := diffOfflineHits(offline, snapTop); d != "" {
		c.fail("parity", "snapshot", "snapshot vs offline: %s", d)
	}

	// The columnar loader compares views over the file's packed records
	// instead of the lifted functions; searches over a saved index must be
	// bit-identical to the in-memory database's, on both the scan and the
	// lazy snapshot path.
	c.ran()
	var idxbuf bytes.Buffer
	if err := db.Save(&idxbuf, index.SaveOptions{}); err != nil {
		c.fail("parity", "file", "Save: %v", err)
	} else if filedb, err := index.Load(bytes.NewReader(idxbuf.Bytes())); err != nil {
		c.fail("parity", "file", "loading converted index: %v", err)
	} else {
		if filedb.Info().Version != idxfile.Version {
			c.fail("parity", "file", "converted index loaded as v%d", filedb.Info().Version)
		}
		if d := diffOfflineHits(offline, index.TopK(search("parity", "file", filedb.View(), opts, index.PrefilterOptions{}), limit, 0)); d != "" {
			c.fail("parity", "file", "file loader vs in-memory: %s", d)
		}
		c.ran()
		filesnap := index.BuildSnapshot(filedb, []int{opts.K}, 2)
		if d := diffOfflineHits(snapTop, index.TopK(search("parity", "file-snapshot", filesnap, opts, index.PrefilterOptions{}), limit, 0)); d != "" {
			c.fail("parity", "file-snapshot", "lazy file snapshot vs offline: %s", d)
		}
	}

	// The fleet merge contract: hash-sharding the corpus into disjoint
	// index slices, searching each shard independently, and re-ranking the
	// concatenated partials through the same top-K selection must
	// reproduce the union search bit for bit. This is the invariant the
	// serving coordinator's scatter-gather relies on.
	c.ran()
	const nShards = 2
	var merged []index.Hit
	shardTotal := 0
	for sh := 0; sh < nShards; sh++ {
		var buf bytes.Buffer
		if err := db.Save(&buf, index.SaveOptions{Shard: sh, Shards: nShards}); err != nil {
			c.fail("parity", "fleet", "Save shard %d/%d: %v", sh, nShards, err)
			return
		}
		sdb, err := index.Load(bytes.NewReader(buf.Bytes()))
		if err != nil {
			c.fail("parity", "fleet", "loading shard %d: %v", sh, err)
			return
		}
		shardTotal += sdb.Len()
		merged = append(merged, index.TopK(search("parity", "fleet", sdb.View(), opts, index.PrefilterOptions{}), limit, 0)...)
	}
	if shardTotal != db.Len() {
		c.fail("parity", "fleet", "shards hold %d functions, union index %d", shardTotal, db.Len())
	}
	if d := diffOfflineHits(offline, index.TopK(merged, limit, 0)); d != "" {
		c.fail("parity", "fleet", "sharded merge vs union search: %s", d)
	}

	queries := []*prep.Function{query}
	if last := liftNamed(images[len(images)-1], FuncName); last != nil && len(images) > 1 {
		queries = append(queries, last)
	}
	c.topKParity(db, queries, opts)

	c.ran()
	srv := server.NewFromDB(db, server.Config{Opts: opts})
	req := &server.SearchRequest{Function: FuncName, K: opts.K, Limit: limit}
	req.SetImage(images[0])
	resp, err := postSearch(srv, req)
	if err != nil {
		c.fail("parity", "server", "%v", err)
		return
	}
	if d := diffServerHits(offline, resp.Hits); d != "" {
		c.fail("parity", "server", "served vs offline: %s", d)
	}
	if resp.Candidates != len(offline) && resp.Candidates != db.Len() {
		c.fail("parity", "server", "served %d candidates, index holds %d", resp.Candidates, db.Len())
	}
}

// topKParity holds the top-k engine to its oracle: for every limit,
// minimum score, candidate generator and worker count, on the heap
// snapshot and on views of an index file of the same corpus,
// Snapshot.Search must return what TopK of the full search returns —
// the same hits in the same order, every Result field included — and count
// every candidate.
func (c *checker) topKParity(db *index.DB, queries []*prep.Function, opts core.Options) {
	var buf bytes.Buffer
	if err := db.Save(&buf, index.SaveOptions{LSH: &minhash.Default}); err != nil {
		c.ran()
		c.fail("topk", "pack", "Save with lsh: %v", err)
		return
	}
	packed, err := index.Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		c.ran()
		c.fail("topk", "pack", "loading: %v", err)
		return
	}
	n, ctx := db.Len(), context.Background()
	gens := []struct {
		name string
		pf   index.PrefilterOptions
	}{
		{"exhaustive", index.PrefilterOptions{}},
		{"scan", index.PrefilterOptions{Enabled: true, Candidates: n/2 + 1}},
		{"lsh", index.PrefilterOptions{Candidates: n/2 + 1, Mode: index.ModeLSH}},
	}
	for _, store := range []struct {
		name string
		db   *index.DB
	}{{"heap", db}, {"pack", packed}} {
		for _, workers := range []int{1, 2, 4} {
			snap := index.BuildSnapshot(store.db, []int{opts.K}, workers)
			for _, q := range queries {
				ref := core.Decompose(q, opts.K)
				for _, gen := range gens {
					variant := fmt.Sprintf("%s/workers=%d/%s", store.name, workers, gen.name)
					q := index.Query{Ref: ref, Opts: opts, Prefilter: gen.pf}
					full, err := snap.Search(ctx, q)
					if err != nil {
						c.ran()
						c.fail("topk", variant, "full search: %v", err)
						continue
					}
					for _, limit := range []int{1, 3, 10, 100, n + 1} {
						for _, minScore := range []float64{0, 0.3, 0.9} {
							c.ran()
							q.Limit, q.MinScore = limit, minScore
							got, err := snap.Search(ctx, q)
							if err != nil {
								c.fail("topk", variant, "limit %d min_score %v: %v", limit, minScore, err)
							} else if d := diffTopHits(index.TopK(full.Hits, limit, minScore), got.Hits); d != "" || got.Candidates != len(full.Hits) {
								c.fail("topk", variant, "limit %d min_score %v: %s (%d candidates, the full search %d)",
									limit, minScore, d, got.Candidates, len(full.Hits))
							}
						}
					}
				}
			}
		}
	}
}

// diffTopHits compares two rankings entry for entry with every Result
// field, work accounting included.
func diffTopHits(want, got []index.Hit) string {
	if len(want) != len(got) {
		return fmt.Sprintf("%d hits, want %d", len(got), len(want))
	}
	for i := range want {
		if w, g := want[i], got[i]; w.Entry != g.Entry || w.Result != g.Result {
			return fmt.Sprintf("hit %d: got %s/%s %+v, want %s/%s %+v", i,
				g.Entry.Exe, g.Entry.Name, g.Result, w.Entry.Exe, w.Entry.Name, w.Result)
		}
	}
	return ""
}

// postSearch drives the server's real HTTP handler in memory.
func postSearch(srv *server.Server, req *server.SearchRequest) (*server.SearchResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	hr, err := http.NewRequest(http.MethodPost, "/v1/search", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hr.Header.Set("Content-Type", "application/json")
	w := &memResponse{header: make(http.Header), status: http.StatusOK}
	srv.Handler().ServeHTTP(w, hr)
	if w.status != http.StatusOK {
		return nil, fmt.Errorf("search returned %d: %s", w.status, bytes.TrimSpace(w.body.Bytes()))
	}
	var resp server.SearchResponse
	if err := json.Unmarshal(w.body.Bytes(), &resp); err != nil {
		return nil, fmt.Errorf("decoding response: %w", err)
	}
	return &resp, nil
}

// memResponse is a minimal in-memory http.ResponseWriter.
type memResponse struct {
	header http.Header
	body   bytes.Buffer
	status int
}

func (m *memResponse) Header() http.Header         { return m.header }
func (m *memResponse) Write(p []byte) (int, error) { return m.body.Write(p) }
func (m *memResponse) WriteHeader(status int)      { m.status = status }

func diffOfflineHits(want, got []index.Hit) string {
	if len(want) != len(got) {
		return fmt.Sprintf("%d hits, want %d", len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.Entry.Exe != g.Entry.Exe || w.Entry.Name != g.Entry.Name ||
			w.Result.SimilarityScore != g.Result.SimilarityScore ||
			w.Result.IsMatch != g.Result.IsMatch || w.Result.Matched() != g.Result.Matched() {
			return fmt.Sprintf("hit %d: got %s/%s score %v match %v, want %s/%s score %v match %v",
				i, g.Entry.Exe, g.Entry.Name, g.Result.SimilarityScore, g.Result.IsMatch,
				w.Entry.Exe, w.Entry.Name, w.Result.SimilarityScore, w.Result.IsMatch)
		}
	}
	return ""
}

func diffServerHits(want []index.Hit, got []server.Hit) string {
	if len(want) != len(got) {
		return fmt.Sprintf("%d hits, want %d", len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.Entry.Exe != g.Exe || w.Entry.Name != g.Name ||
			w.Result.SimilarityScore != g.Score || w.Result.IsMatch != g.IsMatch ||
			w.Result.Matched() != g.Matched {
			return fmt.Sprintf("hit %d: got %s/%s score %v match %v, want %s/%s score %v match %v",
				i, g.Exe, g.Name, g.Score, g.IsMatch,
				w.Entry.Exe, w.Entry.Name, w.Result.SimilarityScore, w.Result.IsMatch)
		}
	}
	return ""
}

// liftNamed lifts an image and returns its function named name, or nil.
func liftNamed(img []byte, name string) *prep.Function {
	fns, err := prep.LiftImage(img)
	if err != nil {
		return nil
	}
	for _, fn := range fns {
		if fn.Name == name {
			return fn
		}
	}
	return nil
}

// traceletPairs yields up to n (ref, tgt) instruction-sequence pairs
// drawn positionally from two decompositions, padding with a self-pair
// so degenerate functions still exercise the self invariants.
func traceletPairs(da, db *core.Decomposed, n int) [][2][]asm.Inst {
	var out [][2][]asm.Inst
	for i := 0; i < len(da.Tracelets) && i < len(db.Tracelets) && len(out) < n; i++ {
		out = append(out, [2][]asm.Inst{da.Tracelets[i].Insts(), db.Tracelets[i].Insts()})
	}
	if len(da.Tracelets) > 0 {
		in := da.Tracelets[0].Insts()
		out = append(out, [2][]asm.Inst{in, in})
	}
	return out
}

func traceletString(blocks [][]asm.Inst) string {
	var b bytes.Buffer
	for _, blk := range blocks {
		for _, in := range blk {
			b.WriteString(in.String())
			b.WriteByte('\n')
		}
		b.WriteByte(';')
	}
	return b.String()
}

func flattenBlocks(blocks [][]asm.Inst) []asm.Inst {
	var out []asm.Inst
	for _, b := range blocks {
		out = append(out, b...)
	}
	return out
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
