package index

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/minhash"
)

var updateSaved = flag.Bool("update", false, "rewrite testdata/saved_files.sha256 from the current writer")

const savedGoldenPath = "testdata/saved_files.sha256"

// TestSavedFilesGolden pins the bytes Save writes, not only that its two
// feeds agree: a fixed-seed campaign is built with AddImage and saved
// whole, with and without the lsh sections under two bandings, and as
// both shards of a split, and the sha256 of each file must equal its line
// in testdata/saved_files.sha256. A change to the format, the string
// table's order or the signing shows here. Run with -update to rewrite
// the file; a change that does says why the bytes moved.
func TestSavedFilesGolden(t *testing.T) {
	db := New()
	addImages(t, db, campaignExes(t, 160))
	var got strings.Builder
	for _, k := range []struct {
		name string
		o    SaveOptions
	}{
		{"whole", SaveOptions{}},
		{"whole-lsh", SaveOptions{LSH: &minhash.Default}},
		{"whole-lsh-32x2", SaveOptions{LSH: &minhash.Params{Bands: 32, Rows: 2, Seed: minhash.DefaultSeed}}},
		{"shard-0/2-lsh", SaveOptions{Shard: 0, Shards: 2, LSH: &minhash.Default}},
		{"shard-1/2-lsh", SaveOptions{Shard: 1, Shards: 2, LSH: &minhash.Default}},
	} {
		var buf bytes.Buffer
		if err := db.Save(&buf, k.o); err != nil {
			t.Fatalf("%s: %v", k.name, err)
		}
		fmt.Fprintf(&got, "%s %x\n", k.name, sha256.Sum256(buf.Bytes()))
	}
	if *updateSaved {
		if err := os.WriteFile(savedGoldenPath, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(savedGoldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to record it)", err)
	}
	if got.String() != string(want) {
		t.Errorf("saved files moved:\n got:\n%s\nwant:\n%s", got.String(), want)
	}
}
