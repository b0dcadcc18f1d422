package index

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"io"

	"repro/internal/idxfile"
	"repro/internal/prep"
)

// legacyDB is the gob payload of index formats v0–v2: headerless (v0),
// or behind the 9-byte TRACYIDX prelude with version 1 or 2. A v2 payload
// also carries a Feats table, which gob skips here: SaveV3 recomputes the
// features from the functions, as it does for a database built in memory.
type legacyDB struct {
	Entries []*legacyEntry
}

// legacyEntry is an Entry as the gob formats stored it.
type legacyEntry struct {
	Exe, Name string
	Addr      uint32
	Truth     string
	Func      *prep.Function
}

// LoadLegacy reads an index written by a tracy that saved gob (formats
// v0, v1 and v2) into an in-memory database, for tracy convert to save as
// v3. Every function is validated as a query off the wire is, so a
// corrupt file fails here and not at its first search. Nothing else reads
// the gob formats: Load and OpenFile refuse them with ErrLegacy.
func LoadLegacy(r io.Reader) (*DB, error) {
	br := bufio.NewReader(r)
	if prelude, err := br.Peek(len(idxfile.Magic) + 1); err == nil && string(prelude[:len(idxfile.Magic)]) == idxfile.Magic {
		if v := int(prelude[len(idxfile.Magic)]); v != 1 && v != 2 {
			return nil, fmt.Errorf("index: gob format v0-v2 expected, file is v%d", v)
		}
		br.Discard(len(prelude))
	}
	var g legacyDB
	if err := gob.NewDecoder(br).Decode(&g); err != nil {
		return nil, fmt.Errorf("index: not a gob index (format v0-v2 expected): %w", err)
	}
	db := New()
	db.Entries = make([]*Entry, len(g.Entries))
	for i, e := range g.Entries {
		if e == nil {
			return nil, fmt.Errorf("index: corrupt entry %d (missing lifted function)", i)
		}
		if err := ValidateFunction(e.Func); err != nil {
			return nil, fmt.Errorf("index: corrupt entry %d (%v)", i, err)
		}
		db.Entries[i] = &Entry{Exe: e.Exe, Name: e.Name, Addr: e.Addr, Truth: e.Truth, Func: e.Func}
	}
	return db, nil
}
