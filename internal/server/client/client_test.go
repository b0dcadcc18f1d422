package client

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/index"
	"repro/internal/server"
	"repro/internal/tinyc"
)

func TestErrorMapping(t *testing.T) {
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/search":
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"error":"server saturated: 8 searches in flight"}`))
		case "/v1/healthz":
			w.WriteHeader(http.StatusNotFound)
			w.Write([]byte("plain text, not JSON"))
		}
	}))
	defer stub.Close()
	c := New(stub.URL + "/") // trailing slash must not double up

	_, err := c.Search(context.Background(), &server.SearchRequest{Exe: "a", Name: "b"})
	if !errors.Is(err, ErrSaturated) {
		t.Errorf("429 should map to ErrSaturated, got %v", err)
	}
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusTooManyRequests {
		t.Errorf("expected APIError with 429, got %v", err)
	}

	_, err = c.Healthz(context.Background())
	if errors.Is(err, ErrSaturated) {
		t.Error("404 must not map to ErrSaturated")
	}
	if !errors.As(err, &apiErr) || apiErr.Msg != "plain text, not JSON" {
		t.Errorf("non-JSON error body not preserved: %v", err)
	}
}

func TestFunctionsQueryEncoding(t *testing.T) {
	var gotURL string
	var gotQuery url.Values
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotURL = r.URL.String()
		gotQuery = r.URL.Query()
		w.Write([]byte(`{"total":0,"functions":null}`))
	}))
	defer stub.Close()
	c := New(stub.URL)
	if _, err := c.Functions(context.Background(), "ctx0", 7); err != nil {
		t.Fatal(err)
	}
	if gotURL != "/v1/functions?exe=ctx0&limit=7" {
		t.Errorf("request URL = %q", gotURL)
	}
	if _, err := c.Functions(context.Background(), "", 3); err != nil {
		t.Fatal(err)
	}
	if gotURL != "/v1/functions?limit=3" {
		t.Errorf("request URL = %q", gotURL)
	}
	// Names the query syntax would otherwise mangle reach the server
	// unchanged: '+' is not a space, '&' does not start a parameter.
	for _, exe := range []string{"libstdc++.so", "a&limit=1", "dir/x y.bin", "50%=#"} {
		if _, err := c.Functions(context.Background(), exe, 2); err != nil {
			t.Fatal(err)
		}
		if got := gotQuery["exe"]; len(got) != 1 || got[0] != exe {
			t.Errorf("exe %q reached the server as %q", exe, got)
		}
		if got := gotQuery["limit"]; len(got) != 1 || got[0] != "2" {
			t.Errorf("exe %q: limit reached the server as %q", exe, got)
		}
	}
}

func TestContextCancellation(t *testing.T) {
	block := make(chan struct{})
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-block
	}))
	defer stub.Close()
	defer close(block)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := New(stub.URL).Healthz(ctx); err == nil {
		t.Error("cancelled context should surface an error")
	}
}

// corpus for the integration test, built once.
var (
	intOnce sync.Once
	intDB   *index.DB
	intCorp *corpus.Corpus
	intErr  error
)

func intCorpus(t *testing.T) (*index.DB, *corpus.Corpus) {
	t.Helper()
	intOnce.Do(func() {
		intCorp, intErr = corpus.Build(corpus.BuildConfig{
			Seed: 5, ContextCopies: 2, Versions: 2, NoiseExes: 1,
			FuncsPerExe: 3, TargetStmts: 40, FillerStmts: 15, Opt: tinyc.O2,
		})
		if intErr != nil {
			return
		}
		intDB = index.New()
		for _, e := range intCorp.Exes {
			if intErr = intDB.AddImage(e.Name, e.Image, e.Truth); intErr != nil {
				return
			}
		}
	})
	if intErr != nil {
		t.Fatal(intErr)
	}
	return intDB, intCorp
}

// TestClientServerIntegration drives every client method against a real
// server over a real socket: health, listing, image search, reference
// search, batch, and hot reload.
func TestClientServerIntegration(t *testing.T) {
	db, corp := intCorpus(t)
	path := filepath.Join(t.TempDir(), "idx.v3")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Save(f, index.SaveOptions{}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	srv, err := server.New(server.Config{DBPath: path})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()
	ctx := context.Background()
	c := New("http://" + addr.String())

	health, err := c.Healthz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || health.Functions != db.Len() {
		t.Fatalf("health: %+v", health)
	}

	fns, err := c.Functions(ctx, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if fns.Total != db.Len() || len(fns.Functions) != db.Len() {
		t.Fatalf("functions: total=%d len=%d, want %d", fns.Total, len(fns.Functions), db.Len())
	}

	// Image upload: the largest function of ctx0 is the planted library
	// function, present in both context executables.
	var img []byte
	for _, e := range corp.Exes {
		if e.Name == "ctx0" {
			img = e.Image
		}
	}
	sr, err := c.SearchImage(ctx, img, "", &server.SearchRequest{Limit: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(sr.Hits) == 0 || !sr.Hits[0].IsMatch {
		t.Fatalf("image search found no match: %+v", sr)
	}

	// Reference search for the same function must hit the cacheable path.
	ref := server.SearchRequest{Exe: sr.Hits[0].Exe, Name: sr.Hits[0].Name, Limit: 4}
	first, err := c.Search(ctx, &ref)
	if err != nil {
		t.Fatal(err)
	}
	second, err := c.Search(ctx, &ref)
	if err != nil {
		t.Fatal(err)
	}
	if second.Cached == false || second.Hits[0] != first.Hits[0] {
		t.Errorf("repeat search not served from cache: %+v", second)
	}

	batch, err := c.SearchBatch(ctx, []server.SearchRequest{ref, {Exe: "nope", Name: "nope"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Results) != 2 || batch.Results[0].Result == nil || batch.Results[1].Error == "" {
		t.Fatalf("batch: %+v", batch.Results)
	}

	rl, err := c.Reload(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rl.Functions != db.Len() || rl.Generation != 2 {
		t.Errorf("reload: %+v", rl)
	}
}
