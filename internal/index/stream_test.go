package index

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/asm"
	"repro/internal/cfg"
	"repro/internal/minhash"
	"repro/internal/prep"
)

// streamed reports whether a whole-corpus Save of db only writes the index
// file AddImage fed.
func streamed(db *DB) bool {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.built() != nil
}

// fedBytes returns what Save's own feed (writeIndex) writes for o.
func fedBytes(db *DB, o SaveOptions) ([]byte, error) {
	var keep func(*Entry) bool
	if o.Shards > 1 {
		keep = func(e *Entry) bool { return ShardOf(e.Exe, e.Name, o.Shards) == o.Shard }
	}
	var buf bytes.Buffer
	_, err := db.writeIndex(&buf, o.LSH, keep)
	return buf.Bytes(), err
}

// streamKinds are the saves the battery holds to writeIndex.
var streamKinds = []struct {
	name string
	o    SaveOptions
}{
	{"whole", SaveOptions{}},
	{"whole, lsh", SaveOptions{LSH: &minhash.Default}},
	{"whole, lsh 32x2", SaveOptions{LSH: &minhash.Params{Bands: 32, Rows: 2, Seed: minhash.DefaultSeed}}},
	{"shard 0/2, lsh", SaveOptions{Shard: 0, Shards: 2, LSH: &minhash.Default}},
	{"shard 1/2, lsh", SaveOptions{Shard: 1, Shards: 2, LSH: &minhash.Default}},
}

// sameAsFed saves db every way of streamKinds and fails when a file is
// not the one writeIndex writes of the same entries.
func sameAsFed(t *testing.T, label string, db *DB) {
	t.Helper()
	for _, k := range streamKinds {
		var got bytes.Buffer
		if err := db.Save(&got, k.o); err != nil {
			t.Fatalf("%s, %s: %v", label, k.name, err)
		}
		want, err := fedBytes(db, k.o)
		if err != nil {
			t.Fatalf("%s, %s: writeIndex: %v", label, k.name, err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s, %s: Save wrote %d bytes unlike writeIndex's %d", label, k.name, got.Len(), len(want))
		}
	}
}

// TestStreamedSaveBytes is the byte-identity battery of the file AddImage
// feeds as it goes: whatever was done to a database, every file Save
// writes of it is the one writeIndex writes of the same entries — the
// whole corpus with and without lsh sections under two bandings, both
// shards of a split, a database grown from a file, entries appended or
// edited by hand after AddImage (which must leave the streamed file
// unused), saves repeated and interleaved with AddImage, and a function
// whose operand the packed form cannot carry, which both refuse alike.
func TestStreamedSaveBytes(t *testing.T) {
	exes := campaignExes(t, 160)
	half := len(exes) / 2

	db := New()
	addImages(t, db, exes)
	if !streamed(db) {
		t.Fatal("a database built by AddImage alone does not save the file it fed")
	}
	sameAsFed(t, "built", db)
	sameAsFed(t, "built, saved again", db)

	grown := New()
	addImages(t, grown, exes[:half])
	sameAsFed(t, "half built", grown)
	addImages(t, grown, exes[half:])
	if !streamed(grown) {
		t.Error("AddImage after a Save stopped feeding the file")
	}
	sameAsFed(t, "AddImage after a Save", grown)

	var part bytes.Buffer
	if err := grown.Save(&part, SaveOptions{LSH: &minhash.Default}); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&part)
	if err != nil {
		t.Fatal(err)
	}
	addImages(t, loaded, exes[:1])
	if streamed(loaded) {
		t.Error("a database grown from a file saves a file AddImage fed")
	}
	sameAsFed(t, "grown from a file", loaded)

	appended := New()
	addImages(t, appended, exes[:half])
	appended.Entries = append(appended.Entries, db.Entries[len(db.Entries)-1])
	if streamed(appended) {
		t.Error("entries appended by hand are missing from a file Save wrote as fed")
	}
	sameAsFed(t, "appended by hand", appended)
	addImages(t, appended, exes[half:])
	if streamed(appended) {
		t.Error("AddImage after entries appended by hand resumed the fed file")
	}
	sameAsFed(t, "AddImage after entries appended by hand", appended)

	edited := New()
	addImages(t, edited, exes)
	edited.Entries[3].Truth = "edited"
	if streamed(edited) {
		t.Error("an entry edited by hand is unlike the file Save wrote as fed")
	}
	sameAsFed(t, "edited by hand", edited)
}

// TestStreamedSaveLossyRefusal: a function whose operand the packed form
// cannot carry makes every whole-corpus Save of a database AddImage fed
// fail as writeIndex does, with the same *asm.LossyOperandError, save
// after save; the shard without it still saves.
func TestStreamedSaveLossyRefusal(t *testing.T) {
	exes := campaignExes(t, 64)
	ebx := []asm.MemTerm{{Arg: asm.RegArg(asm.EBX)}, {Op: asm.OpAdd, Arg: asm.ImmArg(8)}}
	g := &cfg.Graph{Name: "lossy", Blocks: []*cfg.Block{{Insts: []asm.Inst{
		asm.New("mov", asm.RegOp(asm.EAX), asm.Operand{Offset: true, Mem: ebx}), asm.New("ret"),
	}}}}
	db := New()
	addImages(t, db, exes[:1])
	db.add("lossy.bin", []*prep.Function{{Name: "lossy", Graph: g}}, nil)
	addImages(t, db, exes[1:])
	if !streamed(db) {
		t.Fatal("the database does not save the file it fed")
	}
	for _, lsh := range []*minhash.Params{nil, &minhash.Default} {
		_, want := fedBytes(db, SaveOptions{LSH: lsh})
		for range 2 {
			err := db.Save(&bytes.Buffer{}, SaveOptions{LSH: lsh})
			var lossy *asm.LossyOperandError
			if !errors.As(err, &lossy) || want == nil || err.Error() != want.Error() {
				t.Errorf("Save returned %v, writeIndex %v", err, want)
			}
		}
	}
	lossyShard := ShardOf("lossy.bin", "lossy", 2)
	o := SaveOptions{Shard: 1 - lossyShard, Shards: 2, LSH: &minhash.Default}
	var got bytes.Buffer
	if err := db.Save(&got, o); err != nil {
		t.Fatalf("the shard without the lossy function: %v", err)
	}
	if want, _ := fedBytes(db, o); !bytes.Equal(got.Bytes(), want) {
		t.Error("the shard without the lossy function saves other bytes than writeIndex")
	}
}
