package index_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"repro/internal/corpus"
	"repro/internal/index"
	"repro/internal/minhash"
	"repro/internal/server"
	"repro/internal/tinyc"
)

// TestServingPinsNoFunction: a server over an index file answers
// by-reference prefiltered searches (whose query features are taken from
// the query's decoded blocks), /v1/functions and /v1/fleet/function
// without leaving any stored entry memoizing its decoded function, so a
// long-running server does not converge on the corpus decoded on its heap.
func TestServingPinsNoFunction(t *testing.T) {
	c, err := corpus.Build(corpus.BuildConfig{
		Seed: 3, ContextCopies: 3, Versions: 2, NoiseExes: 2,
		FuncsPerExe: 3, TargetStmts: 40, FillerStmts: 15, Opt: tinyc.O2,
	})
	if err != nil {
		t.Fatal(err)
	}
	mem := index.New()
	for _, e := range c.Exes {
		if err := mem.AddImage(e.Name, e.Image, e.Truth); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := mem.Save(&buf, index.SaveOptions{LSH: &minhash.Default}); err != nil {
		t.Fatal(err)
	}
	db, err := index.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	h := server.NewFromDB(db, server.Config{}).Handler()
	do := func(method, target string, body []byte) {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, target, bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s %s: status %d: %s", method, target, rec.Code, rec.Body.String())
		}
	}
	for _, e := range db.Entries {
		for _, mode := range []string{"lsh", "scan"} {
			body, err := json.Marshal(server.SearchRequest{Exe: e.Exe, Name: e.Name, Limit: 3, Candidates: 5, PrefilterMode: mode})
			if err != nil {
				t.Fatal(err)
			}
			do(http.MethodPost, "/v1/search", body)
		}
		do(http.MethodGet, fmt.Sprintf("/v1/fleet/function?exe=%s&name=%s", url.QueryEscape(e.Exe), url.QueryEscape(e.Name)), nil)
	}
	do(http.MethodGet, "/v1/functions", nil)
	for _, e := range db.Entries {
		if index.Memoized(e) {
			t.Errorf("%s/%s is left decoded on the heap", e.Exe, e.Name)
		}
	}
}
