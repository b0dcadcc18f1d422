package index

import (
	"fmt"
	"io"
	"sync"

	"repro/internal/idxfile"
	"repro/internal/minhash"
	"repro/internal/prep"
)

// streamBatch is how many entries writeIndex hands a Stream at a time: a
// store-backed database is decoded at most two batches at a time.
const streamBatch = 256

// Stream is the one pipeline that fills an index file: AddImage feeds the
// database's own, Save and the seal feed one of their own (writeIndex), and
// tracy mkcorpus -index streams a campaign through one that keeps no
// entries. Each batch handed to it is featurised on one goroutine and
// packed on another — packing costs about twice what featurising does —
// while the caller goes on; the stream joins the batch at the next Add or
// at the write and appends it to the file, in order. An entry that lives in an
// index file keeps the feature set stored there (a view); any other's is
// computed from its function. NewStream makes one; a Stream is not safe
// for concurrent use.
type Stream struct {
	b       *idxfile.Builder
	pk      idxfile.Packer // the batches', one at a time
	pending *batch         // the batch in flight, or nil
	err     error          // the first entry found without a function
}

// batch is a run of entries in flight through a Stream: once wg is done,
// packed[i] is the i-th entry packed and feats[i] its feature set.
type batch struct {
	feats  [][]uint64
	packed []idxfile.Packed
	err    error
	wg     sync.WaitGroup
}

// NewStream returns a stream with an empty index file.
func NewStream() *Stream { return &Stream{b: idxfile.NewBuilder()} }

// Add hands the stream fns, the functions lifted from the image exe, as
// AddImage indexes them; truth maps their addresses to ground-truth names
// and may be nil. The stream keeps no entry once it has appended it.
func (s *Stream) Add(exe string, fns []*prep.Function, truth map[uint32]string) {
	s.add(imageEntries(exe, fns, truth))
}

// imageEntries returns the entries of fns, the functions lifted from the
// image exe, in order.
func imageEntries(exe string, fns []*prep.Function, truth map[uint32]string) []Entry {
	es := make([]Entry, len(fns))
	for i, fn := range fns {
		es[i] = Entry{Exe: exe, Name: fn.Name, Addr: fn.Addr, Truth: truth[fn.Addr], fn: fn}
	}
	return es
}

// add starts featurising and packing entries, which must not change until
// the stream has appended them, and then appends the batch before them, so the
// appending overlaps the new batch's work. Once an entry was found without
// a function it starts nothing.
func (s *Stream) add(entries []Entry) {
	prev := s.join()
	if s.err == nil && len(entries) > 0 {
		s.pending = s.start(entries)
	}
	s.append(prev)
}

func (s *Stream) start(entries []Entry) *batch {
	bt := &batch{feats: make([][]uint64, len(entries)), packed: make([]idxfile.Packed, len(entries))}
	bt.wg.Add(2)
	go func() {
		defer bt.wg.Done()
		var g gramHasher
		for i := range entries {
			switch e := &entries[i]; {
			case e.src != nil:
				bt.feats[i] = e.src.Features(e.srcIdx)
			case e.fn != nil:
				bt.feats[i] = g.funcFeatures(e.fn)
			}
		}
	}()
	go func() {
		defer bt.wg.Done()
		for i := range entries {
			e := &entries[i]
			fn, err := e.Decode()
			if err != nil {
				bt.err = fmt.Errorf("index: no function to serialize: %w", err)
				return
			}
			bt.packed[i] = s.pk.Pack(idxfile.Item{Exe: e.Exe, Fn: fn, Truth: e.Truth})
		}
	}()
	return bt
}

// join waits for the batch in flight, if any, and returns it.
func (s *Stream) join() *batch {
	bt := s.pending
	if bt == nil {
		return nil
	}
	bt.wg.Wait()
	s.pending = nil
	if s.err == nil {
		s.err = bt.err
	}
	return bt
}

// append appends a joined batch to the file.
func (s *Stream) append(bt *batch) {
	if bt == nil || s.err != nil {
		return
	}
	for i := range bt.packed {
		bt.packed[i].Feats = bt.feats[i]
		s.b.Append(&bt.packed[i])
	}
}

// flush joins the batch in flight and appends it. On a stream nothing was
// added to since, it only reads, so the readers of a flushed stream may
// share it.
func (s *Stream) flush() { s.append(s.join()) }

// Bytes returns the approximate encoded size of what the stream appended
// so far, without lsh sections.
func (s *Stream) Bytes() int { return s.b.Bytes() }

// WriteLSH flushes the stream and writes its index file into w, with the
// lsh sections under *lsh when lsh is non-nil. The file can be written any
// number of times, and grown in between.
func (s *Stream) WriteLSH(w io.Writer, lsh *minhash.Params) (int64, error) {
	s.flush()
	if s.err != nil {
		return 0, s.err
	}
	return s.b.WriteLSH(w, lsh)
}
