// Package index implements the function database and search engine of the
// prototype (paper Section 5.2). DB is the database: executables are
// disassembled and lifted on ingest, and the corpus saves to and loads
// from gob or the mmap-able v3 columnar format (internal/idxfile).
// Snapshot is the one search engine: it memoizes per-k tracelet
// decompositions, optionally cuts the corpus to the top candidates of a
// lossy prefilter (shared-feature scan or MinHash LSH), compares the
// query against what remains in parallel and ranks the hits — for a search
// that asks for the best k, comparing in full only the candidates that can
// still be among them (Snapshot.SearchTopCtx). DB.Search and the serving
// layer both run on it.
package index

import (
	"bufio"
	"context"
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/idxfile"
	"repro/internal/minhash"
	"repro/internal/prep"
	"repro/internal/telemetry"
)

// Entry is one indexed binary function. For gob-backed databases Func
// holds the lifted function eagerly; for v3 store-backed databases Func
// is nil and the function is decoded from the columnar file on first
// use — always go through Function(), never read Func directly.
type Entry struct {
	Exe   string // executable name
	Name  string // recovered name (sub_XXX in stripped binaries)
	Addr  uint32
	Truth string // ground-truth source name, if known (evaluation only)
	Func  *prep.Function

	// v3 lazy backing (unexported: invisible to gob). src/srcIdx locate
	// the function in the columnar store; lazy memoizes the decode.
	src    *idxfile.File
	srcIdx int
	lazy   atomic.Pointer[prep.Function]
}

// Function returns the lifted function, decoding it from the columnar
// store on first use for v3-backed entries, or nil when there is none to
// return: an entry without a source, or one whose records in the store
// are corrupt (LoadFunction says which). Safe for concurrent callers;
// concurrent first calls may decode twice but agree on one result.
func (e *Entry) Function() *prep.Function {
	fn, _ := e.LoadFunction()
	return fn
}

// LoadFunction is Function with the reason for a nil: a store-backed
// entry's records are validated when they are first decoded, and one that
// fails yields the store's typed corruption error (idxfile.IsCorrupt).
func (e *Entry) LoadFunction() (*prep.Function, error) {
	if e.Func != nil {
		return e.Func, nil
	}
	if fn := e.lazy.Load(); fn != nil {
		return fn, nil
	}
	if e.src == nil {
		return nil, fmt.Errorf("index: entry %s/%s has no function", e.Exe, e.Name)
	}
	fn, err := e.src.DecodeFunc(e.srcIdx)
	if err != nil {
		return nil, fmt.Errorf("index: %s/%s: %w", e.Exe, e.Name, err)
	}
	if e.lazy.CompareAndSwap(nil, fn) {
		return fn, nil
	}
	return e.lazy.Load(), nil
}

// DB is the function database: it builds (AddImage), loads and saves
// the corpus. Searching is the Snapshot's job; the Search and Decomposed
// methods here are thin wrappers over a memoized internal snapshot.
// Concurrent Search/Decomposed calls are safe; AddImage must not race
// with readers (ingest the corpus first, or BuildSnapshot for serving).
type DB struct {
	Entries []*Entry

	// Tel, when non-nil, receives index telemetry — the write path's
	// lift_latency, functions_lifted and instructions_decoded from
	// AddImage, index_save_latency and index_bytes_written from the Save
	// methods, and the corpus decomposition latency — and is the default
	// collector for Search when the query's opts.Tel is nil. It is not
	// serialized by Save.
	Tel *telemetry.Collector

	mu    sync.Mutex // guards feats, snap
	feats [][]uint64 // per-entry prefilter features, aligned with Entries
	snap  *Snapshot  // the search view over Entries; nil until first use

	store  *idxfile.File // non-nil for v3 store-backed databases
	info   Info
	loaded bool // info.Version is authoritative (set by Load/OpenFile)
}

// Info describes where a database came from, for idxinfo, serve logs
// and the tracy_index_info metric.
type Info struct {
	Version int    // TRACYIDX format version (0-3)
	Bytes   int64  // on-disk size, 0 when unknown
	Path    string // source path, "" when loaded from a stream or built in memory
	Mapped  bool   // true when served from an mmap region
	Pack    bool   // true when the file holds its functions packed (v3 PACK section) and they are compared in place
	Funcs   int
}

// Info returns the database provenance. For in-memory databases built
// with AddImage the version is the current gob format version.
func (db *DB) Info() Info {
	info := db.info
	if !db.loaded {
		info.Version = indexVersion
	}
	info.Funcs = len(db.Entries)
	return info
}

// Store returns the columnar file backing a v3 database, or nil.
func (db *DB) Store() *idxfile.File { return db.store }

// Close releases the columnar store mapping of a v3-backed database; it
// is a no-op for gob-backed databases. After Close the database must not
// be used. Long-lived servers never Close — they drop the reference and
// let the finalizer unmap once in-flight queries finish.
func (db *DB) Close() error {
	if db.store != nil {
		return db.store.Close()
	}
	return nil
}

// New returns an empty database.
func New() *DB { return &DB{} }

// AddImage lifts all functions of a (possibly stripped) ELF image and
// indexes them. truth maps function addresses to ground-truth names and
// may be nil.
func (db *DB) AddImage(exe string, img []byte, truth map[uint32]string) error {
	fns, err := prep.LiftImageTel(db.Tel, img)
	if err != nil {
		return fmt.Errorf("index: %s: %w", exe, err)
	}
	for _, fn := range fns {
		e := &Entry{Exe: exe, Name: fn.Name, Addr: fn.Addr, Func: fn}
		if truth != nil {
			e.Truth = truth[fn.Addr]
		}
		db.Entries = append(db.Entries, e)
	}
	db.mu.Lock()
	db.feats, db.snap = nil, nil // both are aligned with Entries
	db.mu.Unlock()
	return nil
}

// Len returns the number of indexed functions.
func (db *DB) Len() int { return len(db.Entries) }

// view returns the snapshot every DB search runs on, built cold on first
// use and kept until AddImage (or a new Tel) invalidates it: it accepts
// any k, decomposes entries as searches touch them and builds the
// candidate indexes only when a prefiltered search asks for them.
func (db *DB) view() *Snapshot {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.snap == nil || db.snap.Tel != db.Tel {
		db.snap = newSnapshot(db, nil, 0, db.features)
	}
	return db.snap
}

// Decomposed returns the k-tracelet decomposition of every entry,
// aligned with Entries. Decompositions are memoized per (k, entry), so
// repeated calls and later searches share them. It fails only on a v3
// store-backed database with a corrupt function. Safe for concurrent use.
func (db *DB) Decomposed(k int) ([]*core.Decomposed, error) {
	return db.view().decomposeAll(k)
}

// features returns the per-entry prefilter feature sets, computing them
// once (or adopting the sets deserialized from a v2 index file).
func (db *DB) features() [][]uint64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.feats == nil {
		fs := make([][]uint64, len(db.Entries))
		var g gramHasher
		for i, e := range db.Entries {
			if e.src != nil {
				// Store-backed entry: its feature set already lives in the
				// file's shared pool; the slice is a view into the mapping,
				// so this allocates a slice header only. Entries appended by
				// AddImage after a v3 load fall through to recomputation.
				fs[i] = e.src.Features(e.srcIdx)
			} else {
				fs[i] = g.funcFeatures(e.Function())
			}
		}
		db.feats = fs
	}
	return db.feats
}

// Hit is one search result.
type Hit struct {
	Entry  *Entry
	Result core.Result
}

// Search compares the query function against every entry, in parallel,
// and returns all hits ordered by similarity score (descending), with
// ties broken by executable and name for determinism.
//
// Telemetry: the query is counted and timed end-to-end into opts.Tel
// (falling back to db.Tel when opts.Tel is nil), and when opts.Trace is
// set the span gains "decompose", "compare" (one compare:<name> child
// per candidate), "prune" and "rank" children tracing the whole decision.
func (db *DB) Search(query *prep.Function, opts core.Options) []Hit {
	hits, _ := db.SearchCtx(context.Background(), query, opts, PrefilterOptions{})
	return hits
}

// SearchWith is Search with an explicit prefilter stage: when pf enables
// it, only the top-C corpus functions by shared prefilter features are
// compared exactly (a lossy cut — a true match sharing no features with
// the query is missed). The zero PrefilterOptions makes it identical to
// Search.
func (db *DB) SearchWith(query *prep.Function, opts core.Options, pf PrefilterOptions) []Hit {
	hits, _ := db.SearchCtx(context.Background(), query, opts, pf)
	return hits
}

// SearchCtx is SearchWith bounded by ctx: the comparison workers check
// it cooperatively and the search returns ctx.Err() — with nil hits —
// shortly after cancellation or deadline expiry. A Background (or nil)
// context adds no overhead and leaves results identical to SearchWith.
func (db *DB) SearchCtx(ctx context.Context, query *prep.Function, opts core.Options, pf PrefilterOptions) ([]Hit, error) {
	return db.view().search(ctx, query, opts, pf, 0, 0)
}

// SearchTopCtx is SearchCtx for the best limit hits scoring at least
// minScore: what TopK(SearchCtx(...), limit, minScore) returns, computed
// by Snapshot.SearchTopCtx, which compares in full only the candidates
// that can still enter the answer.
func (db *DB) SearchTopCtx(ctx context.Context, query *prep.Function, opts core.Options, pf PrefilterOptions, limit int, minScore float64) ([]Hit, error) {
	return db.view().search(ctx, query, opts, pf, limit, minScore)
}

// gobDB is the serialized form. Feats (since format v2) carries the
// per-entry prefilter feature sets so serving nodes skip recomputing
// them at load; v1 payloads simply decode with Feats nil and the sets
// are rebuilt lazily on the first prefiltered search.
type gobDB struct {
	Entries []*Entry
	Feats   [][]uint64
}

// The on-disk format is an 8-byte magic plus a one-byte format version in
// front of the payload, so a stale or foreign file fails fast with a
// versioned error instead of an opaque decode failure. Four formats load:
// headerless v0 gob, headered v1 gob (no prefilter features), v2 gob
// (with features), and the v3 columnar format (internal/idxfile). Save
// writes v2 gob; SaveV3 writes the columnar format.
const (
	indexMagic     = "TRACYIDX"
	indexVersion   = 2 // gob format written by Save
	indexVersionV3 = idxfile.Version
)

// Save serializes the database as v2 gob (entries plus prefilter
// features; decompositions are recomputed on demand), prefixed with the
// format header. Store-backed entries are materialized first so the gob
// payload is self-contained.
func (db *DB) Save(w io.Writer) error {
	if db.store != nil {
		for _, e := range db.Entries {
			fn, err := e.LoadFunction()
			if err != nil {
				return err
			}
			e.Func = fn
		}
	}
	t := db.Tel.StartTimer(telemetry.IndexSaveLatency)
	cw := &countingWriter{w: w}
	_, err := cw.Write(append([]byte(indexMagic), indexVersion))
	if err == nil {
		err = gob.NewEncoder(cw).Encode(gobDB{Entries: db.Entries, Feats: db.features()})
	}
	t.Stop()
	db.Tel.Add(telemetry.IndexBytesWritten, uint64(cw.n))
	return err
}

// countingWriter counts the bytes written through it.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// SaveV3 serializes the database in the v3 columnar format: fixed-width
// column arrays behind a section directory, loadable via mmap with no
// whole-file deserialization (see internal/idxfile). Functions stream
// through an incremental builder, so converting a store-backed database
// never materializes the whole corpus at once.
func (db *DB) SaveV3(w io.Writer) error { return db.saveV3(w, nil) }

// SaveV3LSH is SaveV3 with the LSHB and LSHT sections: every function's
// MinHash signature under p is computed during the streaming build and
// persisted together with the band table sorted from them, so serving
// nodes probe both straight from the mapping instead of re-hashing a
// million feature sets and bucketing them at first query.
func (db *DB) SaveV3LSH(w io.Writer, p minhash.Params) error { return db.saveV3(w, &p) }

func (db *DB) saveV3(w io.Writer, lsh *minhash.Params) error {
	return db.writeV3(w, lsh, len(db.Entries), nil)
}

// writeV3 streams the entries keep admits — all of them when it is nil,
// about expect in number — through a columnar builder into w. They go in
// batches: the builder packs a batch's functions one stage ahead of
// walking them (idxfile.Builder.AddAll), and a store-backed database is
// decoded a batch at a time, never whole.
func (db *DB) writeV3(w io.Writer, lsh *minhash.Params, expect int, keep func(*Entry) bool) error {
	t := db.Tel.StartTimer(telemetry.IndexSaveLatency)
	defer t.Stop()
	feats := db.features()
	b := idxfile.NewBuilder()
	if lsh != nil {
		b.SetLSH(*lsh)
	}
	b.Expect(expect)
	const batch = 256
	items := make([]idxfile.Item, 0, batch)
	for i, e := range db.Entries {
		if keep != nil && !keep(e) {
			continue
		}
		fn, err := e.decodeForSave()
		if err != nil {
			return fmt.Errorf("index: entry %d has no function to serialize: %w", i, err)
		}
		if items = append(items, idxfile.Item{Exe: e.Exe, Fn: fn, Truth: e.Truth, Feats: feats[i]}); len(items) == batch {
			b.AddAll(items)
			items = items[:0]
		}
	}
	b.AddAll(items)
	n, err := b.WriteTo(w)
	db.Tel.Add(telemetry.IndexBytesWritten, uint64(n))
	return err
}

// decodeForSave returns the entry's function for a save pass: a
// store-backed entry is decoded without populating its lazy cache — a
// convert or shard pass must not pin the whole corpus on the heap.
func (e *Entry) decodeForSave() (*prep.Function, error) {
	if e.Func == nil && e.src != nil {
		return e.src.DecodeFunc(e.srcIdx)
	}
	return e.LoadFunction()
}

// Load restores a database written by Save or SaveV3. It accepts all
// four formats: headerless v0 gob, headered v1 gob (prefilter features
// recomputed on demand), v2 gob, and the v3 columnar format (read fully
// into memory — prefer OpenFile for v3 files, which maps them instead).
// Anything else — a future format version or a file that is not a tracy
// index at all — yields an error naming the expected formats.
func Load(r io.Reader) (*DB, error) {
	br := bufio.NewReader(r)
	version := 0
	if peek, err := br.Peek(len(indexMagic) + 1); err == nil && string(peek[:len(indexMagic)]) == indexMagic {
		v := int(peek[len(indexMagic)])
		switch v {
		case 1, indexVersion:
			version = v
			if _, err := br.Discard(len(indexMagic) + 1); err != nil {
				return nil, err
			}
		case indexVersionV3:
			// The columnar parser needs the whole prelude, magic included.
			data, err := io.ReadAll(br)
			if err != nil {
				return nil, err
			}
			f, err := idxfile.Parse(data)
			if err != nil {
				return nil, fmt.Errorf("index: %w", err)
			}
			return fromStore(f), nil
		default:
			return nil, fmt.Errorf("index: format v%d/v%d expected, file is v%d (rebuild with tracy index)", indexVersion, indexVersionV3, v)
		}
	}
	var g gobDB
	if err := gob.NewDecoder(br).Decode(&g); err != nil {
		return nil, fmt.Errorf("index: not a tracy index (format v%d/v%d expected): %w", indexVersion, indexVersionV3, err)
	}
	// Structural validation: gob will happily decode a payload whose
	// entries are nil, missing their lifted function, or carrying a
	// control-flow graph with out-of-range successor indices — any of
	// which would panic the first Search or Decomposed call. Reject such
	// files here, where the caller still has an error path.
	for i, e := range g.Entries {
		if e == nil {
			return nil, fmt.Errorf("index: corrupt entry %d (missing lifted function)", i)
		}
		if err := ValidateFunction(e.Func); err != nil {
			return nil, fmt.Errorf("index: corrupt entry %d (%v)", i, err)
		}
	}
	db := &DB{
		Entries: g.Entries,
		info:    Info{Version: version},
		loaded:  true,
	}
	// Adopt serialized prefilter features only when they line up with the
	// entries — a fuzzed or hand-edited payload must not smuggle in a
	// misaligned feature table (features() rebuilds from scratch instead).
	if g.Feats != nil && len(g.Feats) == len(g.Entries) {
		db.feats = g.Feats
	}
	return db, nil
}

// fromStore wraps a parsed columnar file as a database: entry metadata
// is materialized eagerly (it is tiny and every search ranks by it), the
// function bodies stay in the file and decode lazily per entry.
func fromStore(f *idxfile.File) *DB {
	n := f.NumFuncs()
	entries := make([]*Entry, n)
	for i := 0; i < n; i++ {
		m := f.Meta(i)
		entries[i] = &Entry{Exe: m.Exe, Name: m.Name, Addr: m.Addr, Truth: m.Truth, src: f, srcIdx: i}
	}
	return &DB{
		Entries: entries,
		store:   f,
		info: Info{
			Version: indexVersionV3,
			Bytes:   f.Size(),
			Path:    f.Path(),
			Mapped:  f.Mapped(),
			Pack:    f.HasPack(),
		},
		loaded: true,
	}
}

// OpenFile loads an index from disk by path, picking the cheapest route
// for its format: v3 columnar files are mmapped (page-granular lazy
// access, pages shared across processes, no heap deserialization), gob
// files fall back to the streaming Load. Callers that serve long-lived
// snapshots should not Close the returned database while queries run.
func OpenFile(path string) (*DB, error) {
	fd, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	prelude := make([]byte, len(indexMagic)+1)
	n, _ := io.ReadFull(fd, prelude)
	if n == len(prelude) && idxfile.SniffVersion(prelude) == indexVersionV3 {
		fd.Close()
		f, err := idxfile.Open(path)
		if err != nil {
			return nil, fmt.Errorf("index: %w", err)
		}
		return fromStore(f), nil
	}
	if _, err := fd.Seek(0, io.SeekStart); err != nil {
		fd.Close()
		return nil, err
	}
	defer fd.Close()
	st, _ := fd.Stat()
	db, err := Load(fd)
	if err != nil {
		return nil, err
	}
	db.info.Path = path
	if st != nil {
		db.info.Bytes = st.Size()
	}
	return db, nil
}
