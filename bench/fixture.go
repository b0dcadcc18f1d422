package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/index"
	"repro/internal/minhash"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/telemetry"
	"repro/internal/tinyc"
)

// Campaign shape shared by every workload: smaller corpora are prefixes
// of the same campaign, so functions keep their identity across sizes.
const (
	funcsPerExe = 32
	stmtsPerFn  = 10
	traceletK   = 3
)

// strata is how many size classes the query stream is balanced over; a
// block of the stream holds one query from each.
const strata = 16

// env is what one invocation hands every workload.
type env struct {
	seed  int64
	sz    sizes
	dir   string          // scratch directory for index files, removed by the caller
	files []string        // index files built, for the provenance header
	span  *telemetry.Span // root of the harness's own spans in a traced pass, else nil
}

// sha256File hashes one index file for the provenance header.
func sha256File(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// corpusFx is a compiled campaign and its in-memory index.
type corpusFx struct {
	exes     []corpus.Executable
	images   map[string][]byte // exe name -> stripped image
	db       *index.DB
	compileS float64
}

// compile runs the campaign for funcs functions (rounded up to whole
// groups of funcsPerExe x opt levels).
func compile(seed int64, funcs int) (*corpusFx, error) {
	fx := &corpusFx{images: make(map[string][]byte)}
	t0 := time.Now()
	_, err := corpus.RunCampaign(corpus.CampaignConfig{Seed: seed, Funcs: funcs, FuncsPerExe: funcsPerExe, Stmts: stmtsPerFn},
		func(e corpus.Executable, _ tinyc.OptLevel) error {
			fx.exes = append(fx.exes, e)
			fx.images[e.Name] = e.Image
			return nil
		})
	fx.compileS = time.Since(t0).Seconds()
	if err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	return fx, nil
}

// ingest lifts and indexes every image into a fresh in-memory DB.
func (fx *corpusFx) ingest(tel *telemetry.Collector) (*index.DB, error) {
	db := index.New()
	db.Tel = tel
	for _, e := range fx.exes {
		if err := db.AddImage(e.Name, e.Image, e.Truth); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// save writes db as one v3+LSHB file, or as shard `shard` of nShards when
// nShards > 0.
func save(db *index.DB, path string, shard, nShards int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if nShards > 0 {
		err = db.SaveV3ShardLSH(f, shard, nShards, minhash.Default)
	} else {
		err = db.SaveV3LSH(f, minhash.Default)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// query is one search the harness issues and can verify.
type query struct {
	e     *index.Entry
	ref   *core.Decomposed
	image []byte          // non-nil: issued by image (the entry's executable), else by reference
	sibs  map[string]bool // the function's cross-opt-level siblings, as hitKey
}

func hitKey(exe, name string) string { return exe + "\x00" + name }

// sortBySize orders queries by instruction count, smallest first.
func sortBySize(qs []query) {
	sort.SliceStable(qs, func(a, b int) bool {
		return qs[a].e.Function().NumInsts() < qs[b].e.Function().NumInsts()
	})
}

// request renders q as a server request. candidates == 0 asks for an
// exhaustive search.
func (q *query) request(candidates int) *server.SearchRequest {
	req := &server.SearchRequest{Limit: 10}
	if candidates > 0 {
		req.Candidates = candidates
		req.PrefilterMode = string(index.ModeLSH)
	}
	if q.image != nil {
		req.SetImage(q.image)
		req.Function = q.e.Name
	} else {
		req.Exe, req.Name = q.e.Exe, q.e.Name
	}
	return req
}

// newStream draws the query stream: the corpus is sorted by instruction
// count and cut into `strata` size classes, and block b holds the b-th
// function of a seeded shuffle of each class, in seeded order. Query cost
// grows with function size, so balanced blocks keep the latency mix the
// same from block to block and from seed to seed; a purely random draw
// would let a few large functions move p90 by tens of percent. Every
// query has distinct tracelet content (the result cache keys on it) and
// at least one tracelet. When imageEvery > 0, one query in imageEvery is
// issued by image, rotating through the size classes.
func newStream(fx *corpusFx, seed int64, nBlocks, imageEvery int) [][]query {
	entries := fx.db.Entries
	order := make([]int, len(entries))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return entries[order[a]].Function().NumInsts() < entries[order[b]].Function().NumInsts()
	})
	byTruth := make(map[string][]*index.Entry)
	for _, e := range entries {
		if e.Truth != "" {
			byTruth[e.Truth] = append(byTruth[e.Truth], e)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	classes := make([][]int, strata)
	for s := range classes {
		classes[s] = append([]int(nil), order[s*len(order)/strata:(s+1)*len(order)/strata]...)
		rng.Shuffle(len(classes[s]), func(i, j int) { classes[s][i], classes[s][j] = classes[s][j], classes[s][i] })
	}
	seen := make(map[uint64]bool)
	next := func(s int) *query {
		for len(classes[s]) > 0 {
			e := entries[classes[s][0]]
			classes[s] = classes[s][1:]
			ref := core.Decompose(e.Function(), traceletK)
			if len(ref.Tracelets) == 0 || seen[ref.Fingerprint()] {
				continue
			}
			seen[ref.Fingerprint()] = true
			q := &query{e: e, ref: ref, sibs: make(map[string]bool)}
			for _, o := range byTruth[e.Truth] {
				if o.Exe != e.Exe {
					q.sibs[hitKey(o.Exe, o.Name)] = true
				}
			}
			return q
		}
		return nil
	}
	var blocks [][]query
	for b := 0; b < nBlocks; b++ {
		block := make([]query, 0, strata)
		for s := 0; s < strata; s++ {
			q := next(s)
			if q == nil {
				return blocks // a size class ran dry: the corpus is too small for more blocks
			}
			if imageEvery > 0 && (s+b)%imageEvery == 0 {
				q.image = fx.images[q.e.Exe]
			}
			block = append(block, *q)
		}
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		blocks = append(blocks, block)
	}
	return blocks
}

// hit is the part of an answer the harness verifies, common to library
// hits and server hits.
type hit struct {
	exe, name string
	score     float64
}

func libHits(hs []index.Hit) []hit {
	out := make([]hit, len(hs))
	for i, h := range hs {
		out[i] = hit{h.Entry.Exe, h.Entry.Name, h.Result.SimilarityScore}
	}
	return out
}

func srvHits(hs []server.Hit) []hit {
	out := make([]hit, len(hs))
	for i, h := range hs {
		out[i] = hit{h.Exe, h.Name, h.Score}
	}
	return out
}

// checkAnswer verifies one ranked answer to q: hits are in (score desc,
// exe asc, name asc) order, the top score is 1.0, and the queried
// function itself is among the score-1.0 hits (it can only be pushed out
// of a truncated list by other functions that also score 1.0).
func checkAnswer(q *query, hits []hit, truncated bool) error {
	if len(hits) == 0 {
		return fmt.Errorf("%s/%s: no hits", q.e.Exe, q.e.Name)
	}
	for i := 1; i < len(hits); i++ {
		a, b := hits[i-1], hits[i]
		if a.score < b.score || (a.score == b.score && (a.exe > b.exe || (a.exe == b.exe && a.name > b.name))) {
			return fmt.Errorf("%s/%s: hits %d,%d out of canonical order", q.e.Exe, q.e.Name, i-1, i)
		}
	}
	if math.Abs(hits[0].score-1) > 1e-12 {
		return fmt.Errorf("%s/%s: top score %v, want 1.0", q.e.Exe, q.e.Name, hits[0].score)
	}
	for _, h := range hits {
		if h.score < 1 {
			break
		}
		if h.exe == q.e.Exe && h.name == q.e.Name {
			return nil
		}
	}
	if truncated && hits[len(hits)-1].score == 1 {
		return nil
	}
	return fmt.Errorf("%s/%s: query function not among the score-1.0 hits", q.e.Exe, q.e.Name)
}

// recallSum accumulates sibling recall at 10: over the queries added, the
// share of their cross-opt-level siblings (same source function, other
// opt level) that appear in the first 10 hits. It is an exact count for
// a seed.
type recallSum struct{ found, total int }

func (s *recallSum) add(q *query, hits []hit) {
	for _, h := range hits[:min(10, len(hits))] {
		if q.sibs[hitKey(h.exe, h.name)] {
			s.found++
		}
	}
	s.total += len(q.sibs)
}

func (s recallSum) value() float64 {
	if s.total == 0 {
		return 0
	}
	return float64(s.found) / float64(s.total)
}

// syncBuf is an access-log sink safe to read while a server still writes.
type syncBuf struct {
	mu  sync.Mutex
	buf []byte
}

func (b *syncBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	b.buf = append(b.buf, p...)
	b.mu.Unlock()
	return len(p), nil
}

func (b *syncBuf) bytes() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]byte(nil), b.buf...)
}

// node is one in-process server on loopback with its own client.
type node struct {
	srv *server.Server
	url string
	log *syncBuf // access log at sample 1 when traced, else nil
	hc  *http.Client
	cl  *client.Client
}

// startNode starts a server with cfg (otherwise default config) on
// 127.0.0.1:0. traced attaches an access log at sample 1.
func startNode(cfg server.Config, traced bool) (*node, error) {
	n := &node{}
	if traced {
		n.log = &syncBuf{}
		cfg.AccessLog = n.log
		cfg.AccessLogSample = 1
	}
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n.srv = srv
	n.url = "http://" + addr.String()
	n.hc = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
	n.cl = client.New(n.url)
	n.cl.HTTPClient = n.hc
	return n, nil
}

func (n *node) stop() {
	if n == nil {
		return
	}
	n.hc.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = n.srv.Shutdown(ctx) // idle by now; a drain timeout changes nothing the run reports
}
