package rpc

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
)

// countingBody counts the reply bytes the client reads.
type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

type countingTransport struct{ n atomic.Int64 }

func (t *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(r)
	if err == nil {
		resp.Body = countingBody{resp.Body, &t.n}
	}
	return resp, err
}

// TestReplyBodyCapped streams an endless 200 body: Do gives up with a
// *TransportError naming the cap, having read at most MaxReplyBody+1
// bytes of it.
func TestReplyBodyCapped(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		chunk := []byte(strings.Repeat("x", 64<<10))
		for {
			if _, err := w.Write(chunk); err != nil {
				return
			}
		}
	}))
	defer srv.Close()
	tr := &countingTransport{}
	c := &Conn{BaseURL: srv.URL, HTTPClient: &http.Client{Transport: tr}}
	var out struct{}
	err := c.Do(context.Background(), http.MethodGet, "/v1/functions", nil, &out)
	var te *TransportError
	if !errors.As(err, &te) || !strings.Contains(err.Error(), "reply body exceeds") {
		t.Fatalf("Do = %v, want a *TransportError naming the reply cap", err)
	}
	if n := tr.n.Load(); n > MaxReplyBody+1 {
		t.Errorf("read %d bytes of the reply, cap is %d", n, MaxReplyBody)
	}
}
