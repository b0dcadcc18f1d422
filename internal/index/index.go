// Package index implements the function database and search engine of the
// prototype (paper Section 5.2). DB is the database: executables are
// disassembled and lifted on ingest, and the corpus saves to and loads
// from the mmap-able TRACYIDX v4 columnar format (internal/idxfile) with
// one call each way, DB.Save and Load/OpenFile. Every older format is
// refused with ErrLegacy.
// Snapshot is the one search engine: it views per-k tracelet
// decompositions over an index file holding every entry (a database that is
// not one is sealed into one), optionally cuts the corpus to the top
// candidates of a lossy prefilter (shared-feature scan or MinHash LSH),
// compares the query against what remains in parallel and ranks the hits —
// for a search that asks for the best k, comparing in full only the
// candidates that can still be among them. Snapshot.Search is the one
// search call: the serving layer runs it on a BuildSnapshot, tracy search
// and the library on DB.View.
package index

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"sync"

	"repro/internal/core"
	"repro/internal/idxfile"
	"repro/internal/minhash"
	"repro/internal/prep"
	"repro/internal/telemetry"
)

// Entry is one indexed binary function. For a database built in memory
// (AddImage) fn holds the lifted function; for a store-backed database fn
// is nil and the function lives in the columnar file. Decode returns it
// either way and is the one way in; searches view packed records instead.
type Entry struct {
	Exe   string // executable name
	Name  string // recovered name (sub_XXX in stripped binaries)
	Addr  uint32
	Truth string // ground-truth source name, if known (evaluation only)
	fn    *prep.Function

	// Store backing: src/srcIdx locate the function in the columnar store.
	src    *idxfile.File
	srcIdx int
}

// Decode returns the lifted function. A store-backed entry is decoded
// afresh on every call and nothing is kept, so a pass over many entries —
// a save or convert, a shard split, a listing, tracy stats — does not pin
// the corpus on the heap; its records are validated as they are decoded,
// and a corrupt one yields the store's typed error (idxfile.IsCorrupt). An
// entry built in memory returns its function.
func (e *Entry) Decode() (*prep.Function, error) {
	switch {
	case e.fn != nil:
		return e.fn, nil
	case e.src == nil:
		return nil, fmt.Errorf("index: entry %s/%s has no function", e.Exe, e.Name)
	}
	fn, err := e.src.DecodeFunc(e.srcIdx)
	if err != nil {
		return nil, fmt.Errorf("index: %s/%s: %w", e.Exe, e.Name, err)
	}
	return fn, nil
}

// Function is Decode without the reason for a nil.
//
// Deprecated: bench/ only; ROADMAP 1(b) ports it.
func (e *Entry) Function() *prep.Function {
	fn, _ := e.Decode()
	return fn
}

// DB is the function database: it builds (AddImage), loads and saves
// the corpus. Searching is the Snapshot's job: View returns the memoized
// snapshot of the database's entries, and Decomposed reads its
// decompositions. Concurrent View/Decomposed calls and searches are safe;
// AddImage must not race with readers (ingest the corpus first, or
// BuildSnapshot for serving). While a build runs, one background
// featuriser at most computes the prefilter features of the functions the
// last AddImage lifted and packs them for the index file (see AddImage);
// everything that reads the features joins it first.
type DB struct {
	Entries []*Entry

	// Tel, when non-nil, receives index telemetry — the write path's
	// lift_latency, functions_lifted and instructions_decoded from
	// AddImage, index_save_latency and index_bytes_written from Save, and
	// the corpus decomposition latency — and is the default
	// collector of View's searches when the query's Opts.Tel is nil. It is
	// not serialized.
	Tel *telemetry.Collector

	mu      sync.Mutex  // guards feats, pending, snap, build, fed, sealed, sealedFor
	feats   [][]uint64  // prefilter features of Entries[:len(feats)]
	pending *featuriser // the one featuriser in flight, or nil
	snap    *Snapshot   // the search view over Entries; nil until first use

	sealed    *idxfile.File // what seal wrote in memory, holding sealedFor
	sealedFor []Entry       // the entries sealed holds, as they were then

	// build is the index file of the entries AddImage added, fed as they
	// come: fed holds the entries it was fed, as they were then, and a
	// whole-corpus Save of Entries equal to them only writes it. It is nil
	// once AddImage finds Entries holding others (a database opened from
	// a file and grown, or edited by hand); Save then feeds a builder of
	// its own.
	build  *idxfile.Builder
	fed    []Entry
	packer idxfile.Packer // the featurisers', one at a time

	store *idxfile.File // non-nil for store-backed databases
	info  Info
}

// Info describes where a database came from, for idxinfo, serve logs
// and the tracy_index_info metric.
type Info struct {
	Version int    // TRACYIDX format version: 4, the only one a database saves to or serves from
	Bytes   int64  // on-disk size, 0 when unknown
	Path    string // source path, "" when loaded from a stream or built in memory
	Mapped  bool   // true when served from an mmap region
	Funcs   int
}

// Info returns the database provenance.
func (db *DB) Info() Info {
	info := db.info
	info.Version = idxfile.Version
	info.Funcs = len(db.Entries)
	return info
}

// Store returns the columnar file backing a store-backed database, or nil.
func (db *DB) Store() *idxfile.File { return db.store }

// Close releases the columnar store mapping of a store-backed database; it
// is a no-op for one built in memory. After Close the database must not
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
//
// Lifting runs on the caller's goroutine; the prefilter features of the
// functions just lifted are computed by a background featuriser, which
// also packs them for the index file, and AddImage returns without
// waiting for it. The next AddImage lifts while it runs, joins it before
// appending to Entries, starts the featuriser of its own image, and only
// then appends the functions the one before packed to the database's
// index file — so lifting and appending on the caller's goroutine overlap
// featurising and packing on another, and a build spreads over two cores
// without a setting. Every reader of the features (prefiltered searches,
// Save) joins the featuriser too, so at most one is ever in flight. What
// it computes is the memo those readers see and the file a whole-corpus
// Save writes; nothing is written into the entries.
func (db *DB) AddImage(exe string, img []byte, truth map[uint32]string) error {
	fns, err := prep.LiftImageTel(db.Tel, img)
	if err != nil {
		return fmt.Errorf("index: %s: %w", exe, err)
	}
	db.add(exe, fns, truth)
	return nil
}

// add indexes fns, the functions lifted from the image exe, for AddImage.
func (db *DB) add(exe string, fns []*prep.Function, truth map[uint32]string) {
	db.mu.Lock()
	defer db.mu.Unlock()
	prev := db.joinFeaturiser()
	lo := len(db.Entries)
	for _, fn := range fns {
		e := &Entry{Exe: exe, Name: fn.Name, Addr: fn.Addr, fn: fn}
		if truth != nil {
			e.Truth = truth[fn.Addr]
		}
		db.Entries = append(db.Entries, e)
	}
	db.snap, db.sealed = nil, nil // both hold Entries as they were
	next := len(db.fed)           // the position of the entry the file takes next
	if prev != nil && prev.packed != nil && prev.lo == next {
		next += len(prev.packed)
	}
	if next != lo {
		db.build, db.fed = nil, nil // Entries holds others
	}
	if db.build == nil && lo == 0 {
		db.build = idxfile.NewBuilder()
	}
	var pk *idxfile.Packer
	if db.build != nil {
		pk = &db.packer
	}
	db.pending = startFeaturiser(lo, db.Entries[lo:], pk)
	db.feed(prev)
}

// featuriser computes the prefilter features of a run of freshly lifted
// entries on its own goroutine, and packs them when given a packer:
// feats[i] is the set of the entry at position lo+i and packed[i] its
// function packed, ready once done is closed. entries holds the entries
// as they were when it started, which is what it packed.
type featuriser struct {
	lo      int
	entries []Entry
	feats   [][]uint64
	packed  []idxfile.Packed
	done    chan struct{}
}

// startFeaturiser starts a featuriser over entries, which sit at
// position lo and all hold their lifted function. It reads only those
// functions — heap values nothing else writes — never the DB or a mapping.
func startFeaturiser(lo int, entries []*Entry, pk *idxfile.Packer) *featuriser {
	f := &featuriser{lo: lo, entries: make([]Entry, len(entries)), feats: make([][]uint64, len(entries)), done: make(chan struct{})}
	for i, e := range entries {
		f.entries[i] = *e
	}
	var wg sync.WaitGroup
	if pk != nil {
		// Packing takes twice what featurising does, and needs none of
		// it: on a goroutine of its own, what the caller and the
		// featurising leave of two cores goes to it.
		f.packed = make([]idxfile.Packed, len(entries))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range f.entries {
				e := &f.entries[i]
				f.packed[i] = pk.Pack(idxfile.Item{Exe: e.Exe, Fn: e.fn, Truth: e.Truth})
			}
		}()
	}
	go func() {
		var g gramHasher
		for i := range f.entries {
			f.feats[i] = g.funcFeatures(f.entries[i].fn)
		}
		wg.Wait()
		for i := range f.packed {
			f.packed[i].Feats = f.feats[i]
		}
		close(f.done)
	}()
	return f
}

// joinFeaturiser waits for the featuriser in flight, if any, appends its
// sets to the memo, first memoizing the entries before them that it does
// not cover (those of an index file a grown database was opened from),
// and returns it for feed. The caller holds db.mu.
func (db *DB) joinFeaturiser() *featuriser {
	f := db.pending
	if f == nil {
		return nil
	}
	<-f.done
	db.pending = nil
	db.memoFeatures(f.lo)
	db.feats = append(db.feats, f.feats...)
	return f
}

// feed appends what a joined featuriser packed to the database's index
// file, in entry order, when they are the entries the file takes next.
// The caller holds db.mu.
func (db *DB) feed(f *featuriser) {
	if f == nil || f.packed == nil || db.build == nil || f.lo != len(db.fed) {
		return
	}
	for i := range f.packed {
		db.build.Append(&f.packed[i])
	}
	db.fed = append(db.fed, f.entries...)
}

// built returns the database's index file when it holds exactly the
// entries, or nil. The caller holds db.mu and has joined the featuriser.
func (db *DB) built() *idxfile.Builder {
	if db.build == nil || len(db.fed) != len(db.Entries) {
		return nil
	}
	for i, e := range db.Entries {
		if *e != db.fed[i] {
			return nil
		}
	}
	return db.build
}

// memoFeatures extends the feature memo over Entries[:n]. A store-backed
// entry's set already lives in the file's shared pool and is viewed where
// it lies (a slice header, no copy); any other entry's is computed from its
// function. The caller holds db.mu.
func (db *DB) memoFeatures(n int) {
	var g gramHasher
	for i := len(db.feats); i < n; i++ {
		e := db.Entries[i]
		if e.src != nil {
			db.feats = append(db.feats, e.src.Features(e.srcIdx))
		} else {
			fn, _ := e.Decode()
			db.feats = append(db.feats, g.funcFeatures(fn))
		}
	}
}

// seal returns the index file holding exactly the entries, in order, that
// every snapshot views: a store whose file holds them is its own. Any other
// database writes one into memory with the lsh sections under
// minhash.Default — the file AddImage fed, else writeIndex's — and keeps it
// until the entries change. It fails when an entry cannot be read or
// stored (*asm.LossyOperandError). The caller holds db.mu.
func (db *DB) seal() (*idxfile.File, error) {
	if db.storeHoldsEntries() {
		return db.store, nil
	}
	db.feed(db.joinFeaturiser())
	if db.sealed != nil && slices.EqualFunc(db.Entries, db.sealedFor, func(e *Entry, was Entry) bool { return *e == was }) {
		return db.sealed, nil
	}
	var buf bytes.Buffer
	var err error
	if b := db.built(); b != nil {
		buf.Grow(b.Bytes() + 4*len(db.Entries)*(minhash.Default.K()+minhash.Default.Bands) + 4096)
		_, err = b.WriteLSH(&buf, &minhash.Default)
	} else {
		db.memoFeatures(len(db.Entries))
		_, err = db.writeIndex(&buf, &minhash.Default, db.feats, nil)
	}
	if err != nil {
		return nil, err
	}
	if db.sealed, err = idxfile.Parse(buf.Bytes()); err != nil {
		return nil, fmt.Errorf("index: %w", err)
	}
	db.sealedFor = db.sealedFor[:0]
	for _, e := range db.Entries {
		db.sealedFor = append(db.sealedFor, *e)
	}
	return db.sealed, nil
}

// storeHoldsEntries reports whether the database's index file holds
// exactly its entries, each where it stands.
func (db *DB) storeHoldsEntries() bool {
	for i, e := range db.Entries {
		if e.src != db.store || e.srcIdx != i {
			return false
		}
	}
	return db.store != nil && db.store.NumFuncs() == len(db.Entries)
}

// Len returns the number of indexed functions.
func (db *DB) Len() int { return len(db.Entries) }

// View returns the snapshot a search of the database runs on, kept until
// AddImage (or a new Tel) invalidates it: it accepts any k, views entries
// as searches touch them and builds the candidate indexes only when a
// prefiltered search asks for them. Its first call after the entries
// change seals them (see BuildSnapshot).
func (db *DB) View() *Snapshot {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.snap == nil || db.snap.Tel != db.Tel {
		db.snap = db.newSnapshot(nil, 0)
	}
	return db.snap
}

// Decomposed returns the k-tracelet decomposition of every entry,
// aligned with Entries: the View's, which later searches share. The first
// entry that cannot be read (a corrupt record) or stored fails it. Safe
// for concurrent use.
func (db *DB) Decomposed(k int) ([]*core.Decomposed, error) {
	s := db.View()
	slots := s.slotsFor(k)
	out := make([]*core.Decomposed, len(slots))
	for i := range out {
		d, err := s.dec(slots, k, i)
		if err != nil {
			return nil, err
		}
		out[i] = d
	}
	return out, nil
}

// features returns the per-entry prefilter feature sets, aligned with
// Entries: it joins the featuriser in flight and memoizes whatever it
// left uncovered, so every entry's set is computed (or viewed) once.
// A slice it returned stays valid as the database grows: the memo only
// ever appends.
func (db *DB) features() [][]uint64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.feed(db.joinFeaturiser())
	db.memoFeatures(len(db.Entries))
	return db.feats
}

// Hit is one search result.
type Hit struct {
	Entry  *Entry
	Result core.Result
}

// ErrLegacy is wrapped by the error Load and OpenFile return for a file
// that is not TRACYIDX v4: a TRACYIDX v3 file or a gob index (formats
// v0–v2) written by an older tracy, or no index at all. No older format is
// read here: each converts with the tracy convert of a tracy that still
// reads it.
var ErrLegacy = errors.New("not a TRACYIDX v4 index (an older tracy's index converts with a tracy that still reads it: tracy convert OLD NEW.idx)")

// legacyError says why a file of format v, neither v4 nor newer, is
// refused: a TRACYIDX v3 file or a gob index (v1, v2) no longer converts
// with this tracy, and a file without the TRACYIDX prelude (v == 0) — a
// headerless v0 gob index among them — cannot be told from a foreign file.
func legacyError(v int) error {
	switch v {
	case 0:
		return ErrLegacy
	case 1, 2:
		return fmt.Errorf("format v%d is a gob index; only a tracy built before gob support left tracy convert converts it: %w", v, ErrLegacy)
	}
	return fmt.Errorf("format v%d is a TRACYIDX v%d index; only a tracy built before v%d support left tracy convert converts it: %w", v, v, v, ErrLegacy)
}

// checkPrelude says why a file whose first bytes are prelude is not one
// this binary serves, or returns nil for a TRACYIDX v4 file.
func checkPrelude(prelude []byte) error {
	switch v := idxfile.SniffVersion(prelude); {
	case v == idxfile.Version:
		return nil
	case v > idxfile.Version:
		return fmt.Errorf("format v%d expected, file is v%d (written by a newer tracy)", idxfile.Version, v)
	default:
		return legacyError(v)
	}
}

// SaveOptions selects what DB.Save writes. The zero value writes the
// whole corpus without the lsh sections.
type SaveOptions struct {
	// Shard and Shards select shard Shard (0-based) of a Shards-way split:
	// exactly the entries with ShardOf(exe, name, Shards) == Shard, in
	// corpus order. The union of the Shards outputs is a disjoint
	// partition of the corpus, so a scatter-gather merge of per-shard
	// search results over all of them ranks identically to searching the
	// unsharded index. Shards <= 1 writes the whole corpus.
	Shard, Shards int
	// LSH, when non-nil, adds the LSHB and LSHT sections: every function's
	// MinHash signature under *LSH is computed during the streaming build
	// and persisted together with the band table sorted from them, so
	// serving nodes probe both straight from the mapping instead of
	// re-hashing a million feature sets and bucketing them at first query.
	LSH *minhash.Params
}

// Save serializes the database, or one shard of it, in the TRACYIDX v4
// columnar format: fixed-width column arrays behind a section directory,
// loadable via mmap with no whole-file deserialization (see
// internal/idxfile). A whole-corpus save of a database built by AddImage
// only writes the file AddImage fed as it went; any other streams the
// entries through a builder of its own, so converting a store-backed
// database never materializes the corpus. Both write the same bytes. A
// shard out of range is refused before anything is written.
func (db *DB) Save(w io.Writer, o SaveOptions) error {
	if o.Shards < 0 {
		return fmt.Errorf("index: shard count %d, want >= 1", o.Shards)
	}
	if o.Shard < 0 || o.Shard >= max(o.Shards, 1) {
		return fmt.Errorf("index: shard %d of %d out of range", o.Shard, o.Shards)
	}
	t := db.Tel.StartTimer(telemetry.IndexSaveLatency)
	defer t.Stop()
	var n int64
	var err error
	if o.Shards <= 1 {
		db.mu.Lock()
		db.feed(db.joinFeaturiser())
		b := db.built()
		db.mu.Unlock()
		if b != nil {
			n, err = b.WriteLSH(w, o.LSH)
		} else {
			n, err = db.writeIndex(w, o.LSH, db.features(), nil)
		}
	} else {
		n, err = db.writeIndex(w, o.LSH, db.features(), func(e *Entry) bool { return ShardOf(e.Exe, e.Name, o.Shards) == o.Shard })
	}
	db.Tel.Add(telemetry.IndexBytesWritten, uint64(n))
	return err
}

// SaveV3LSH is Save of the whole corpus with the lsh sections under p.
//
// Deprecated: bench/ only; ROADMAP 1(b) ports it.
func (db *DB) SaveV3LSH(w io.Writer, p minhash.Params) error {
	return db.Save(w, SaveOptions{LSH: &p})
}

// writeIndex streams the entries keep admits — all of them when it is nil
// — through a builder of its own into w, with feats, the entries' feature
// sets, packing them on another goroutine a bounded number of functions
// ahead of appending them, as AddImage's featuriser does; a store-backed
// database is decoded that many functions at a time, never whole.
func (db *DB) writeIndex(w io.Writer, lsh *minhash.Params, feats [][]uint64, keep func(*Entry) bool) (int64, error) {
	type packed struct {
		p   idxfile.Packed
		err error
	}
	ch := make(chan packed, 256)
	go func() {
		defer close(ch)
		var pk idxfile.Packer
		for i, e := range db.Entries {
			if keep != nil && !keep(e) {
				continue
			}
			fn, err := e.Decode()
			if err != nil {
				ch <- packed{err: fmt.Errorf("index: entry %d has no function to serialize: %w", i, err)}
				return
			}
			ch <- packed{p: pk.Pack(idxfile.Item{Exe: e.Exe, Fn: fn, Truth: e.Truth, Feats: feats[i]})}
		}
	}()
	b := idxfile.NewBuilder()
	for it := range ch {
		if it.err != nil {
			return 0, it.err
		}
		b.Append(&it.p)
	}
	return b.WriteLSH(w, lsh)
}

// Load restores a database written by Save, read fully into memory —
// prefer OpenFile for files, which maps them instead. Anything but a
// TRACYIDX v4 stream yields an error, before anything is decoded: one
// wrapping ErrLegacy for a v3 or gob index or a foreign file, one naming
// the version for a newer format.
func Load(r io.Reader) (*DB, error) {
	br := bufio.NewReader(r)
	prelude, err := br.Peek(len(idxfile.Magic) + 1)
	if err != nil && err != io.EOF {
		return nil, err
	}
	if err := checkPrelude(prelude); err != nil {
		return nil, fmt.Errorf("index: %w", err)
	}
	data, err := io.ReadAll(br)
	if err != nil {
		return nil, err
	}
	f, err := idxfile.Parse(data)
	if err != nil {
		return nil, fmt.Errorf("index: %w", err)
	}
	return fromStore(f), nil
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
		info:    Info{Bytes: f.Size(), Path: f.Path(), Mapped: f.Mapped()},
	}
}

// OpenFile maps a TRACYIDX v4 file from disk: page-granular lazy access,
// pages shared across processes, no heap deserialization. Any other file
// fails as Load does, before anything is mapped. Callers that serve
// long-lived snapshots should not Close the returned database while
// queries run.
func OpenFile(path string) (*DB, error) {
	fd, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	prelude := make([]byte, len(idxfile.Magic)+1)
	n, err := io.ReadFull(fd, prelude)
	fd.Close()
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return nil, err
	}
	if err := checkPrelude(prelude[:n]); err != nil {
		return nil, fmt.Errorf("index: %s: %w", path, err)
	}
	f, err := idxfile.Open(path)
	if err != nil {
		return nil, fmt.Errorf("index: %w", err)
	}
	return fromStore(f), nil
}
