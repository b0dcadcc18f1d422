package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/index"
	"repro/internal/minhash"
	"repro/internal/tinyc"
)

var updateServed = flag.Bool("update", false, "rewrite testdata/served_answers.sha256 from the current server")

const servedGoldenPath = "testdata/served_answers.sha256"

// servedFixture compiles the fixed-seed campaign the served-answers golden
// was recorded on, indexes it with AddImage and saves it with the lsh
// sections, whole and as a 2-way split, into dir. It returns the paths of
// the whole file and of the two shards, the corpus's images in campaign
// order, and the database the files were saved from.
func servedFixture(t *testing.T, dir string) (string, []string, [][]byte, *index.DB) {
	t.Helper()
	db := index.New()
	var images [][]byte
	_, err := corpus.RunCampaign(corpus.CampaignConfig{Seed: 41, Funcs: 1024, FuncsPerExe: 32, Stmts: 10, Workers: 2},
		func(e corpus.Executable, _ tinyc.OptLevel) error {
			images = append(images, e.Image)
			return db.AddImage(e.Name, e.Image, e.Truth)
		})
	if err != nil {
		t.Fatal(err)
	}
	save := func(name string, o index.SaveOptions) string {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		o.LSH = &minhash.Default
		err = db.Save(f, o)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatalf("saving %s: %v", name, err)
		}
		return path
	}
	whole := save("whole.idx", index.SaveOptions{})
	shards := []string{save("shard0.idx", index.SaveOptions{Shard: 0, Shards: 2}), save("shard1.idx", index.SaveOptions{Shard: 1, Shards: 2})}
	return whole, shards, images, db
}

// servedScript is the fixed request script: an exhaustive and an lsh
// search at limit 100, every 16th function by reference at 100 lsh
// candidates and limit 10, three queries by image and one with a
// min_score.
func servedScript(db *index.DB, images [][]byte) []SearchRequest {
	q := db.Entries[len(db.Entries)/2]
	reqs := []SearchRequest{
		{Exe: q.Exe, Name: q.Name, Limit: 100},
		{Exe: q.Exe, Name: q.Name, Limit: 100, Candidates: 500, PrefilterMode: "lsh"},
	}
	for i := 0; i < len(db.Entries); i += 16 {
		e := db.Entries[i]
		reqs = append(reqs, SearchRequest{Exe: e.Exe, Name: e.Name, Limit: 10, Candidates: 100, PrefilterMode: "lsh"})
	}
	for _, i := range []int{0, len(images) / 2, len(images) - 1} {
		r := SearchRequest{Limit: 10, Candidates: 100, PrefilterMode: "lsh"}
		r.SetImage(images[i])
		reqs = append(reqs, r)
	}
	return append(reqs, SearchRequest{Exe: q.Exe, Name: q.Name, Limit: 100, MinScore: 0.5})
}

// hashHits posts every request of script to h and returns the sha256 of
// the hits arrays of the answers, each as it came over the wire, in
// script order. Nothing timed goes into the hash.
func hashHits(t *testing.T, h http.Handler, script []SearchRequest) string {
	t.Helper()
	sum := sha256.New()
	for i, req := range script {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/search", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d: %d %s", i, rec.Code, rec.Body.String())
		}
		var resp struct {
			Hits     json.RawMessage `json:"hits"`
			Degraded bool            `json:"degraded"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if resp.Degraded {
			t.Fatalf("request %d answered degraded", i)
		}
		fmt.Fprintf(sum, "%d %s\n", i, resp.Hits)
	}
	return fmt.Sprintf("%x", sum.Sum(nil))
}

// TestServedAnswersGolden pins what the servers answer, not only what the
// compare core scores: a fixed request script is served from a stored lsh
// index by a single server and by a coordinator over the index's 2-way
// split, and the hits each path returns hash to the line of that path in
// testdata/served_answers.sha256. So a change that moves every path alike
// — lsh signing, band order, rank tie-breaks, the floor, number formatting
// on the wire — shows here. Each path has its own line: a coordinator
// caps lsh candidates per shard, so its capped answers differ from a
// single server's by design. Run with -update to rewrite the file; a
// change that does says which answers moved and why.
func TestServedAnswersGolden(t *testing.T) {
	whole, shards, images, db := servedFixture(t, t.TempDir())
	script := servedScript(db, images)

	single, err := New(Config{DBPath: whole})
	if err != nil {
		t.Fatal(err)
	}
	var urls []string
	for _, path := range shards {
		w, err := New(Config{DBPath: path})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(w.Handler())
		t.Cleanup(srv.Close)
		urls = append(urls, srv.URL)
	}
	coord, err := New(Config{Fleet: urls})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = coord.Shutdown(ctx) // stops the membership prober
	})

	got := fmt.Sprintf("single %s\nfleet %s\n", hashHits(t, single.Handler(), script), hashHits(t, coord.Handler(), script))
	if *updateServed {
		if err := os.WriteFile(servedGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(servedGoldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to record it)", err)
	}
	if got != string(want) {
		t.Errorf("served answers moved (%d requests per path):\n got: %s\nwant: %s",
			len(script), strings.ReplaceAll(got, "\n", "; "), strings.ReplaceAll(string(want), "\n", "; "))
	}
}
