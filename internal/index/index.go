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
// BuildSnapshot for serving).
type DB struct {
	Entries []*Entry

	// Tel, when non-nil, receives index telemetry — the write path's
	// lift_latency, functions_lifted and instructions_decoded from
	// AddImage, index_save_latency and index_bytes_written from Save, and
	// the corpus decomposition latency — and is the default
	// collector of View's searches when the query's Opts.Tel is nil. It is
	// not serialized.
	Tel *telemetry.Collector

	mu   sync.Mutex // guards snap, stream, fed, sealed, sealedFor
	snap *Snapshot  // the search view over Entries; nil until first use

	sealed    *idxfile.File // what seal wrote in memory, holding sealedFor
	sealedFor []Entry       // the entries sealed holds, as they were then

	// stream is the index file of the entries AddImage added, fed as they
	// come: fed holds the entries it was fed, as they were then, and a
	// whole-corpus Save of Entries equal to them only writes it. It is nil
	// once AddImage finds Entries holding others (a database opened from
	// a file and grown, or edited by hand); Save then feeds a stream of
	// its own.
	stream *Stream
	fed    []Entry

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
// Lifting runs on the caller's goroutine. A database built by AddImage
// alone hands the functions to its Stream, which featurises and packs
// them on two goroutines of its own, and AddImage returns without waiting:
// the next AddImage lifts while they run, and the stream appends them to
// the database's index file once that next one hands it its own — so a
// build spreads over the cores without a setting. A database grown from a
// file or edited by hand only lifts; its Save computes the features.
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
	lo := len(db.Entries)
	if len(db.fed) != lo {
		db.stream, db.fed = nil, nil // Entries holds others
	}
	if db.stream == nil && lo == 0 {
		db.stream = NewStream()
	}
	es := imageEntries(exe, fns, truth)
	for _, e := range es {
		db.Entries = append(db.Entries, &e)
	}
	db.snap, db.sealed = nil, nil // both hold Entries as they were
	if db.stream != nil {
		db.fed = append(db.fed, es...)
		db.stream.add(db.fed[lo:])
	}
}

// holds reports whether the entries are was, field for field.
func (db *DB) holds(was []Entry) bool {
	return slices.EqualFunc(db.Entries, was, func(e *Entry, w Entry) bool { return *e == w })
}

// built returns the stream AddImage fed, flushed, when it holds exactly
// the entries, or nil. The caller holds db.mu.
func (db *DB) built() *Stream {
	if db.stream == nil || !db.holds(db.fed) {
		return nil
	}
	db.stream.flush()
	return db.stream
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
	if db.sealed != nil && db.holds(db.sealedFor) {
		return db.sealed, nil
	}
	var buf bytes.Buffer
	var err error
	if s := db.built(); s != nil {
		buf.Grow(s.Bytes() + 4*len(db.Entries)*(minhash.Default.K()+minhash.Default.Bands) + 4096)
		_, err = s.WriteLSH(&buf, &minhash.Default)
	} else {
		_, err = db.writeIndex(&buf, &minhash.Default, nil)
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
// only writes the file its Stream was fed as it went; any other streams
// the entries through a Stream of its own (writeIndex), so converting a
// store-backed database never materializes the corpus. Both write the
// same bytes. A shard out of range is refused before anything is written.
func (db *DB) Save(w io.Writer, o SaveOptions) error {
	if o.Shards < 0 {
		return fmt.Errorf("index: shard count %d, want >= 1", o.Shards)
	}
	if o.Shard < 0 || o.Shard >= max(o.Shards, 1) {
		return fmt.Errorf("index: shard %d of %d out of range", o.Shard, o.Shards)
	}
	t := db.Tel.StartTimer(telemetry.IndexSaveLatency)
	defer t.Stop()
	db.mu.Lock()
	s := db.built()
	db.mu.Unlock()
	var n int64
	var err error
	switch {
	case o.Shards > 1:
		n, err = db.writeIndex(w, o.LSH, func(e *Entry) bool { return ShardOf(e.Exe, e.Name, o.Shards) == o.Shard })
	case s != nil:
		n, err = s.WriteLSH(w, o.LSH)
	default:
		n, err = db.writeIndex(w, o.LSH, nil)
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
// — through a Stream of its own into w, streamBatch entries at a time.
func (db *DB) writeIndex(w io.Writer, lsh *minhash.Params, keep func(*Entry) bool) (int64, error) {
	s := NewStream()
	batch := make([]Entry, 0, streamBatch)
	for _, e := range db.Entries {
		if keep != nil && !keep(e) {
			continue
		}
		if batch = append(batch, *e); len(batch) == streamBatch {
			s.add(batch)
			batch = make([]Entry, 0, streamBatch)
		}
	}
	s.add(batch)
	return s.WriteLSH(w, lsh)
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
