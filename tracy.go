// Package tracy is the public API of the TRACY reproduction: tracelet-
// based code search in executables (David & Yahav, PLDI 2014).
//
// Given a function in (stripped) binary form and a code base of binary
// functions, tracy finds similar functions by decomposing CFGs into
// k-tracelets, aligning tracelet pairs with an instruction-level edit
// distance, and bridging compiler-induced differences (register
// allocation, stack layout) with a constraint-solving rewrite engine.
//
// Typical use:
//
//	db := tracy.NewDatabase()
//	db.IndexExecutable("wget-1.12", image)       // a stripped ELF image
//	fns, _ := tracy.LoadExecutable(queryImage)
//	hits := db.Search(fns[0], tracy.DefaultOptions())
//
// The package also exposes the TinyC compiler used to build evaluation
// corpora (CompileTinyC), so examples and experiments are reproducible
// end to end without external toolchains.
package tracy

import (
	"context"
	"fmt"
	"io"

	"repro/internal/align"
	"repro/internal/bin"
	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/prep"
	"repro/internal/tinyc"
)

// Options configures matching; see DefaultOptions for the paper's
// recommended configuration.
type Options = core.Options

// Result is the outcome of one function-to-function comparison.
type Result = core.Result

// TraceletMatch explains one matched tracelet (see Explain).
type TraceletMatch = core.TraceletMatch

// Function is a lifted, preprocessed binary function.
type Function = prep.Function

// Normalization methods for tracelet similarity scores.
const (
	Ratio       = align.Ratio
	Containment = align.Containment
)

// DefaultOptions returns the configuration the paper found best: k=3
// tracelets, β=0.8 match threshold, ratio normalization, rewrite engine
// enabled.
func DefaultOptions() Options { return core.DefaultOptions() }

// LoadExecutable parses an ELF image (stripped or not) and lifts all of
// its functions to preprocessed form.
func LoadExecutable(img []byte) ([]*Function, error) {
	return prep.LiftImage(img)
}

// Compare computes the similarity of target against reference (paper
// Algorithm 1).
func Compare(ref, tgt *Function, opts Options) Result {
	m := core.NewMatcher(opts)
	return m.Compare(core.Decompose(ref, m.Opts.K), core.Decompose(tgt, m.Opts.K))
}

// Explain returns the per-tracelet evidence behind Compare's verdict:
// which reference tracelets matched which target tracelets, at what
// score, whether the rewrite engine was required, and the unaligned
// (inserted/deleted) instructions — the paper's accountability story.
func Explain(ref, tgt *Function, opts Options) []TraceletMatch {
	m := core.NewMatcher(opts)
	return m.Explain(core.Decompose(ref, m.Opts.K), core.Decompose(tgt, m.Opts.K))
}

// Match is one search hit.
type Match struct {
	Exe    string
	Name   string // recovered function name (sub_XXX when stripped)
	Addr   uint32
	Truth  string // ground-truth name when indexed with truth data
	Result Result
	Func   *Function
}

// Database is a searchable code base of binary functions.
type Database struct {
	db *index.DB
}

// NewDatabase returns an empty database.
func NewDatabase() *Database {
	return &Database{db: index.New()}
}

// IndexExecutable lifts and indexes every function of an ELF image.
func (d *Database) IndexExecutable(name string, img []byte) error {
	return d.db.AddImage(name, img, nil)
}

// IndexExecutableWithTruth also records ground-truth function names
// (address -> source name) for evaluation.
func (d *Database) IndexExecutableWithTruth(name string, img []byte, truth map[uint32]string) error {
	return d.db.AddImage(name, img, truth)
}

// NumFunctions returns the number of indexed functions.
func (d *Database) NumFunctions() int { return d.db.Len() }

// Functions returns the lifted form of every indexed function, in index
// order: nil for a function of a loaded database whose stored records are
// corrupt.
func (d *Database) Functions() []*Function {
	out := make([]*Function, d.db.Len())
	for i, e := range d.db.Entries {
		out[i], _ = e.Decode()
	}
	return out
}

// Search compares the query against every indexed function in parallel
// and returns all results ordered by similarity (best first), or none
// when a stored function of a loaded database turns out to be corrupt, or
// an indexed one cannot be stored in the index file searches view.
func (d *Database) Search(query *Function, opts Options) []Match {
	ans, _ := d.db.View().Search(context.Background(), index.Query{Func: query, Opts: opts})
	out := make([]Match, len(ans.Hits))
	for i, h := range ans.Hits {
		fn, _ := h.Entry.Decode()
		out[i] = Match{
			Exe: h.Entry.Exe, Name: h.Entry.Name, Addr: h.Entry.Addr,
			Truth: h.Entry.Truth, Result: h.Result, Func: fn,
		}
	}
	return out
}

// Save serializes the database in the TRACYIDX v4 columnar format.
func (d *Database) Save(w io.Writer) error { return d.db.Save(w, index.SaveOptions{}) }

// LoadDatabase restores a database written by Save, reading it fully into
// memory.
func LoadDatabase(r io.Reader) (*Database, error) {
	db, err := index.Load(r)
	if err != nil {
		return nil, err
	}
	return &Database{db: db}, nil
}

// OptLevel is a TinyC optimization level.
type OptLevel = tinyc.OptLevel

// TinyC optimization levels.
const (
	OptO0 = tinyc.O0
	OptO1 = tinyc.O1
	OptO2 = tinyc.O2
	OptOs = tinyc.Os
)

// CompileTinyC compiles TinyC source to a linked ELF image. seed selects
// the compilation context (register-allocation order, stack layout,
// branch layout); the same source with different seeds models the same
// code built into different executables.
func CompileTinyC(src string, opt OptLevel, seed int64) ([]byte, error) {
	return tinyc.Build(src, tinyc.Config{Opt: opt, Seed: seed})
}

// CompileTinyCStripped compiles and strips local symbols, leaving the
// dynamic import table intact — the paper's input shape.
func CompileTinyCStripped(src string, opt OptLevel, seed int64) ([]byte, error) {
	return tinyc.BuildStripped(src, tinyc.Config{Opt: opt, Seed: seed})
}

// StripExecutable removes local symbols from an ELF image.
func StripExecutable(img []byte) ([]byte, error) { return bin.Strip(img) }

// TruthOf extracts the ground-truth function map (address -> name) from
// an *unstripped* image, for use with IndexExecutableWithTruth after
// stripping.
func TruthOf(img []byte) (map[uint32]string, error) {
	f, err := bin.Read(img)
	if err != nil {
		return nil, err
	}
	if f.Stripped() {
		return nil, fmt.Errorf("tracy: image is stripped; no ground truth available")
	}
	truth := make(map[uint32]string)
	for _, s := range f.Symbols {
		if s.IsFunc() {
			truth[s.Value] = s.Name
		}
	}
	return truth, nil
}

// Disassemble renders a lifted function's CFG as text (numbered basic
// blocks with successor edges), for inspection and debugging.
func Disassemble(fn *Function) string { return fn.Graph.String() }
