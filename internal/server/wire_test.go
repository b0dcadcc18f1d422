package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"unicode/utf8"

	"repro/internal/corpus"
)

// The codec's oracle is encoding/json on method-less shadows of the wire
// types: a shadow has the same fields and tags, so reflection encodes and
// decodes it the way it did the types before they had a codec.
type (
	refSearchRequest  SearchRequest
	refSearchResponse SearchResponse
	refBatchRequest   struct {
		Queries []refSearchRequest `json:"queries"`
	}
)

// maxWireDepth is encoding/json's nesting limit, which the probes reach
// and pass.
const maxWireDepth = 10000

// refDecodeRequest is the parent server's request decode: a json.Decoder
// with unknown fields disallowed, over a body capped at limit bytes
// (0: no cap).
func refDecodeRequest(body []byte, limit int64) (SearchRequest, error) {
	var r io.Reader = bytes.NewReader(body)
	if limit > 0 {
		r = http.MaxBytesReader(nil, io.NopCloser(r), limit)
	}
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var ref refSearchRequest
	err := dec.Decode(&ref)
	return SearchRequest(ref), err
}

func codecDecodeRequest(body []byte, limit int64) (SearchRequest, error) {
	var r io.Reader = bytes.NewReader(body)
	if limit > 0 {
		r = http.MaxBytesReader(nil, io.NopCloser(r), limit)
	}
	var req SearchRequest
	err := readSearchRequest(r, int64(len(body)), &req)
	return req, err
}

// outcome classifies a decode as the handler answers it.
func outcome(err error) string {
	var mbe *http.MaxBytesError
	switch {
	case err == nil:
		return "ok"
	case errors.As(err, &mbe):
		return "413"
	}
	return "400"
}

// wireProbes are the request bodies the parity contract names, against
// which the parent's decoder was probed.
func wireProbes() []string {
	deep := func(n int, key string) string {
		return `{"` + key + `":` + strings.Repeat("[", n-1) + strings.Repeat("]", n-1) + `}`
	}
	return []string{
		`{"limit":10} trailing`,
		`{"limit":10}}`,
		`{"LIMIT":10}`,
		`{"Exe":"a","NAME":"b","Prefilter_Mode":"lsh"}`,
		"{\"\u212a\":3,\"min_\u017fcore\":0.5}", // KELVIN SIGN folds to k, LONG S to s
		`{"limit":null,"exe":null,"min_score":null,"prefilter":null}`,
		`{"limit":1,"limit":2,"exe":"x","exe":"y"}`,
		`{"exe":"x","exe":null,"limit":3,"limit":null,"prefilter":true,"prefilter":null,"min_score":0.5,"min_score":null}`,
		`{"name":"\ud800"}`,
		`{"name":"\udc00\ud800x"}`,
		`{"name":"😀"}`,
		`{"name":"\ud83dA"}`,
		"{\"name\":\"\xff\xfe\"}",
		"{\"exe\":\"\xed\xa0\x80\"}", // a surrogate in raw UTF-8 is invalid too
		`{"name":"é\n\t\"\\\/"}`,
		`{"limit":1.0}`,
		`{"limit":1e2}`,
		`{"limit":01}`,
		`{"limit":-0}`,
		`{"limit":-5,"k":-1,"timeout_ms":-2}`,
		`{"limit":9223372036854775808}`,
		`{"min_score":1e400}`,
		`{"min_score":1e-400}`,
		`{"min_score":-0.0}`,
		`{"bogus":1}`,
		`{"limit":"10"}`,
		`{"prefilter":1}`,
		`{"prefilter":"true"}`,
		`{"exe":{"a":[1,2,{"b":null}]}}`,
		`{"limit":[1,2,3]}`,
		`null`,
		`null trailing`,
		`nul`,
		`[]`,
		`"x"`,
		`5`,
		`123456`, // capped at half, a top-level number ends at the cap: 413
		`nullxx`,
		``,
		` `,
		`{`,
		`{"limit"`,
		`{"limit":`,
		`{"limit":1,}`,
		`{,}`,
		`{"a\u0000":1}`,
		`{"name":"a` + "\x01" + `"}`,
		`{"name":"\x"}`,
		`{"name":"\u12g4"}`,
		`{"limit":tru}`,
		`{"prefilter":truex}`,
		"\t\r\n {\"limit\" : 7 }\n",
		deep(maxWireDepth, "bogus"),
		deep(maxWireDepth+1, "bogus"),
		deep(maxWireDepth, "limit"),
		deep(maxWireDepth+1, "limit"),
		`{"exe":"a<b>&c` + "\u2028\u2029\xff" + `","name":"f"}`,
		`{"min_score":0.000001,"timeout_ms":1}`,
		`{"min_score":1e21}`,
		`{"exe":"<script>alert(1)</script>","name":"&&&&&&&&&&&&&&&&"}`,
	}
}

// errText is err's text, with the shadow types' names the reference
// reports replaced by the wire types' own.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return strings.NewReplacer("refSearchRequest", "SearchRequest", "refSearchResponse", "SearchResponse").Replace(err.Error())
}

// requestParity checks one body against the parent's decoder: the same
// outcome and error text and, when accepted, the same request.
func requestParity(t *testing.T, body []byte, limit int64) {
	t.Helper()
	want, werr := refDecodeRequest(body, limit)
	got, gerr := codecDecodeRequest(body, limit)
	if outcome(werr) != outcome(gerr) || errText(werr) != errText(gerr) {
		t.Fatalf("body %q (cap %d): reference %s (%v), codec %s (%v)", trunc(body), limit, outcome(werr), werr, outcome(gerr), gerr)
	}
	if werr == nil && !reflect.DeepEqual(want, got) {
		t.Fatalf("body %q (cap %d): reference %+v, codec %+v", trunc(body), limit, want, got)
	}
}

func trunc(b []byte) string {
	if len(b) > 200 {
		return string(b[:200]) + "..."
	}
	return string(b)
}

// batchParity checks the batch endpoint's decode, where encoding/json
// reaches each query through SearchRequest.UnmarshalJSON.
func batchParity(t *testing.T, queries []byte) {
	t.Helper()
	body := append(append([]byte(`{"queries":[`), queries...), "]}"...)
	var ref refBatchRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	werr := dec.Decode(&ref)
	var got BatchRequest
	dec = json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	gerr := dec.Decode(&got)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("batch %q: reference err %v, codec err %v", trunc(body), werr, gerr)
	}
	if werr != nil {
		return
	}
	want := BatchRequest{Queries: make([]SearchRequest, len(ref.Queries))}
	for i, q := range ref.Queries {
		want.Queries[i] = SearchRequest(q)
	}
	if ref.Queries == nil {
		want.Queries = nil
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("batch %q: reference %+v, codec %+v", trunc(body), want, got)
	}
}

// byImageBody is a real by-image request.
func byImageBody(t testing.TB) []byte {
	_, c := smallDB(t)
	req := SearchRequest{Limit: 10, Candidates: 100, PrefilterMode: "lsh"}
	req.SetImage(exeImage(t, c, "ctx0"))
	b, err := json.Marshal(refSearchRequest(req))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func FuzzSearchRequestWire(f *testing.F) {
	for _, p := range wireProbes() {
		f.Add([]byte(p))
	}
	f.Add(byImageBody(f))
	f.Fuzz(func(t *testing.T, body []byte) {
		requestParity(t, body, 0)
		requestParity(t, body, int64(len(body)/2)+1)
		batchParity(t, body)
		batchParity(t, append(append([]byte{}, body...), ',', '{', '}'))
	})
}

// responseProbes are reply bodies for the response decoder: the shapes a
// server writes and the edges of the accept set.
func responseProbes() []string {
	return []string{
		`{"query":"f","query_blocks":3,"query_insts":12,"k":3,"candidates":100,"prefiltered":true,"prefilter_mode":"lsh","hits":[{"exe":"a","name":"b","addr":134512736,"score":0.8571428571428571,"is_match":true,"matched":6,"ref_tracelets":7,"matched_rewrite":2}],"cached":false,"took_ms":0.123,"trace_id":"abc"}`,
		`{"hits":null}`,
		`{"hits":[]}`,
		`{"hits":[null,{"exe":"x"}]}`,
		`{"hits":[{"exe":"a","score":1}],"hits":[{"name":"b"}]}`,
		`{"hits":[{"exe":"a"},{"exe":"b"},{"exe":"c"}],"hits":[{"name":"x"}],"hits":[{},{},{},{}]}`,
		`{"hits":[{"exe":"a"},{"exe":"b"}],"hits":[],"hits":[{}]}`,
		`{"hits":[{"addr":4294967295}]}`,
		`{"hits":[{"addr":4294967296}]}`,
		`{"hits":[{"addr":-1}]}`,
		`{"hits":[{"addr":1.5}]}`,
		`{"hits":[{"score":1e-7,"matched":-3}]}`,
		`{"hits":[{"score":1e21}]}`,
		`{"hits":{}}`,
		`{"hits":"x"}`,
		`{"hits":[1]}`,
		`{"hits":[[]]}`,
		`{"unknown":{"deep":[1,2,{"x":null}]},"query":"q"}`,
		`{"QUERY":"q","Hits":[{"EXE":"e","Is_Match":true}]}`,
		`{"query":"\ud800","trace_id":"` + "\xff" + `"}`,
		`{"query":"q"} `,
		`{"query":"q"} x`,
		`{"query":"q"}{}`,
		`null`,
		` null `,
		`nul`,
		`[]`,
		`"q"`,
		`0`,
		``,
		`{"took_ms":"1"}`,
		`{"cached":null,"took_ms":null,"hits":[{"score":null}]}`,
		`{"query":"q","query":null,"k":3,"k":null,"cached":true,"cached":null,"hits":[{"exe":"e","addr":7,"score":0.5,"exe":null,"addr":null,"score":null}]}`,
		`{"unknown":` + strings.Repeat("[", maxWireDepth-1) + strings.Repeat("]", maxWireDepth-1) + `}`,
		`{"unknown":` + strings.Repeat("[", maxWireDepth) + strings.Repeat("]", maxWireDepth) + `}`,
		`{"hits":[{"x":` + strings.Repeat("{\"a\":", maxWireDepth-3) + "1" + strings.Repeat("}", maxWireDepth-3) + `}]}`,
		`{"hits":[{"x":` + strings.Repeat("{\"a\":", maxWireDepth-2) + "1" + strings.Repeat("}", maxWireDepth-2) + `}]}`,
	}
}

func FuzzSearchResponseWire(f *testing.F) {
	for _, p := range responseProbes() {
		f.Add([]byte(p))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var ref refSearchResponse
		werr := json.Unmarshal(body, &ref)
		var got SearchResponse
		gerr := got.UnmarshalJSON(body)
		if errText(werr) != errText(gerr) {
			t.Fatalf("body %q: reference err %v, codec err %v", trunc(body), werr, gerr)
		}
		// Through encoding/json, as a batch's results are decoded.
		var viaJSON SearchResponse
		if jerr := json.Unmarshal(body, &viaJSON); errText(jerr) != errText(werr) {
			t.Fatalf("body %q: reference err %v, json.Unmarshal err %v", trunc(body), werr, jerr)
		}
		if werr != nil {
			return
		}
		if !reflect.DeepEqual(SearchResponse(ref), got) || !reflect.DeepEqual(SearchResponse(ref), viaJSON) {
			t.Fatalf("body %q: reference %+v, codec %+v", trunc(body), ref, got)
		}
	})
}

// wireValue builds a response and a request from fuzzed fields.
func wireValue(s1, s2 string, f1, f2 uint64, i1, i2 int64, nhits uint8, flags uint8) (SearchResponse, SearchRequest) {
	fl := func(bits uint64) float64 {
		if flags&0x80 != 0 {
			return math.Float64frombits(bits)
		}
		// Mostly finite, with an exponent that reaches both switch points.
		return float64(int64(bits)) * math.Pow(10, float64(int(bits>>56)%60-30))
	}
	resp := SearchResponse{
		Query: s1, QueryBlocks: int(i1), QueryInsts: int(i2), K: int(i1 >> 3), Candidates: int(i2 >> 5),
		Prefiltered: flags&1 != 0, PrefilterMode: s2, Cached: flags&2 != 0, TookMS: fl(f2),
		TraceID: s2 + s1, Degraded: flags&4 != 0,
	}
	if flags&8 != 0 {
		resp.DegradedReason = s1
	}
	if flags&16 != 0 {
		resp.Hits = []Hit{}
	}
	for i := 0; i < int(nhits%12); i++ {
		resp.Hits = append(resp.Hits, Hit{
			Exe: s1, Name: s2 + fmt.Sprint(i), Addr: uint32(i1) + uint32(i), Score: fl(f1 + uint64(i)),
			IsMatch: i%2 == 0, Matched: int(i1) - i, RefTracelets: int(i2), MatchedRewrite: i,
		})
	}
	req := SearchRequest{
		Image: s1, Function: s2, Exe: s2, Name: s1, K: int(i1), Limit: int(i2), MinScore: fl(f1),
		Prefilter: flags&1 != 0, Candidates: int(i1 >> 7), PrefilterMode: s2, TimeoutMS: int(i2 >> 9), QueryGob: s1,
	}
	if flags&32 != 0 {
		req = SearchRequest{Limit: int(i1)}
	}
	return resp, req
}

// encodeSeed is one input of FuzzSearchResponseEncode, in wireValue's
// arguments.
type encodeSeed struct {
	s1, s2       string
	f1, f2       uint64
	i1, i2       int64
	nhits, flags uint8
}

var encodeSeeds = []encodeSeed{
	{"f", "lsh", math.Float64bits(0.857), 3, 12, 100, 10, 3},
	{"a<b>&c\u2028d\u2029", "\xff\xfe", 1, 1e6, -1, 1 << 40, 2, 0},
	{"\x00\x1f\"\\\b\f\n\r\t\x7f", "", math.Float64bits(1e-6), math.Float64bits(1e21), 0, 0, 0, 0x80 | 16},
	{"é", "\xed\xa0\x80", math.Float64bits(math.Nextafter(1e-6, 0)), math.Float64bits(math.Nextafter(1e21, 0)), 4294967296, -5, 1, 0x80},
	{"<script>alert(1)</script>&&&&&&&&", "plain ascii name >>>>>>>>", math.Float64bits(-1e-6), math.Float64bits(-1e21), 7, 8, 3, 0x80},
	{"x", "y", math.Float64bits(math.NaN()), math.Float64bits(math.Inf(1)), 1, 1, 1, 0x80},
	{"x", "y", math.Float64bits(-0.0), math.Float64bits(5e-324), 1, 1, 1, 0x80 | 32},
}

func FuzzSearchResponseEncode(f *testing.F) {
	for _, s := range encodeSeeds {
		f.Add(s.s1, s.s2, s.f1, s.f2, s.i1, s.i2, s.nhits, s.flags)
	}
	f.Fuzz(func(t *testing.T, s1, s2 string, f1, f2 uint64, i1, i2 int64, nhits, flags uint8) {
		resp, req := wireValue(s1, s2, f1, f2, i1, i2, nhits, flags)

		var want bytes.Buffer
		werr := json.NewEncoder(&want).Encode(refSearchResponse(resp))
		got, gerr := resp.appendJSON(nil)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("response %+v: reference err %v, codec err %v", resp, werr, gerr)
		}
		if werr == nil && !bytes.Equal(want.Bytes(), append(got, '\n')) {
			t.Fatalf("response encodes as\n%s\nwant\n%s", got, want.Bytes())
		}
		// MarshalJSON through encoding/json, as the batch endpoint writes it.
		viaJSON, jerr := json.Marshal(&resp)
		if werr == nil && (jerr != nil || !bytes.Equal(viaJSON, got)) {
			t.Fatalf("json.Marshal of the response: %s (%v), want %s", viaJSON, jerr, got)
		}

		wantReq, werr := json.Marshal(refSearchRequest(req))
		gotReq, gerr := req.MarshalJSON()
		if (werr == nil) != (gerr == nil) || !bytes.Equal(wantReq, gotReq) {
			t.Fatalf("request %+v encodes as %s (%v), want %s (%v)", req, gotReq, gerr, wantReq, werr)
		}
		if gerr == nil {
			// What the client sends, the server reads back unchanged.
			back, err := codecDecodeRequest(gotReq, 0)
			if err != nil || !reflect.DeepEqual(back, req) && !hasInvalidUTF8(req) {
				t.Fatalf("request %+v round-trips to %+v (%v)", req, back, err)
			}
		}
	})
}

func hasInvalidUTF8(r SearchRequest) bool {
	for _, s := range []string{r.Image, r.Function, r.Exe, r.Name, r.PrefilterMode, r.QueryGob} {
		if !utf8.ValidString(s) {
			return true
		}
	}
	return false
}

// TestWireProbesAtHandler posts each probe body to /v1/search and holds
// the handler to what the parent's decoder predicts: a body it refuses
// answers 400 (413 past the body cap), one it accepts answers what the
// same request, encoded by encoding/json, answers, with the same hits.
func TestWireProbesAtHandler(t *testing.T) {
	db, _ := smallDB(t)
	e := entryWithTruth(t, db, corpus.LibFuncName)
	exe, name := e.Exe, e.Name
	q := func(s string) string { b, _ := json.Marshal(s); return string(b) }
	escaped := func(s string) string {
		var b strings.Builder
		for _, r := range s {
			fmt.Fprintf(&b, `\u%04x`, r)
		}
		return `"` + b.String() + `"`
	}
	bodies := []string{
		`{"exe":` + q(exe) + `,"name":` + q(name) + `,"limit":10} trailing`,
		`{"EXE":` + q(exe) + `,"Name":` + q(name) + `,"LIMIT":5}`,
		`{"exe":` + q(exe) + `,"name":` + q(name) + `,"limit":null,"k":null}`,
		`{"exe":"nope","exe":` + q(exe) + `,"name":` + q(name) + `}`,
		`{"exe":` + escaped(exe) + `,"name":` + escaped(name) + `}`,
		"{\"exe\":" + q(exe) + ",\"name\":" + q(name) + ",\"\u212a\":3}",
		`{"exe":` + q(exe) + `,"name":` + q(name) + `,"limit":1.0}`,
		`{"exe":` + q(exe) + `,"name":` + q(name) + `,"limit":1e2}`,
		`{"exe":` + q(exe) + `,"name":` + q(name) + `,"limit":01}`,
		`{"exe":` + q(exe) + `,"name":` + q(name) + `,"bogus":1}`,
		`{"exe":` + q(exe) + `,"name":` + q(name) + `,"limit":-3}`,
		`{"exe":` + q(exe) + `,"name":"\ud800"}`,
		`{"exe":` + q(exe) + `,"name":` + q(name) + `,"min_score":0.000001}`,
		`{"exe":` + q(exe) + `,"name":` + q(name) + `,"bogus":` + strings.Repeat("[", maxWireDepth) + strings.Repeat("]", maxWireDepth) + `}`,
		`{"exe":` + q(exe) + `,"name":` + q(name) + `,"candidates":100,"prefilter_mode":"lsh"}`,
		string(byImageBody(t)),
	}
	bodies = append(bodies, wireProbes()...)

	s := NewFromDB(db, Config{})
	h := s.Handler()
	post := func(body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/search", bytes.NewReader(body)))
		return rec
	}
	for i, body := range bodies {
		ref, err := refDecodeRequest([]byte(body), 0)
		rec := post([]byte(body))
		if err != nil {
			if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "bad request body:") {
				t.Errorf("body %d %q: reference refuses (%v), handler answers %d %s", i, trunc([]byte(body)), err, rec.Code, rec.Body.String())
			}
			continue
		}
		canon, err := json.Marshal(refSearchRequest(ref))
		if err != nil {
			t.Fatal(err)
		}
		want := post(canon)
		if rec.Code != want.Code {
			t.Errorf("body %d %q: status %d, the same request encoded by encoding/json %d", i, trunc([]byte(body)), rec.Code, want.Code)
			continue
		}
		if rec.Code != http.StatusOK {
			continue
		}
		var got, exp refSearchResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(want.Body.Bytes(), &exp); err != nil {
			t.Fatal(err)
		}
		if len(got.Hits) == 0 || !reflect.DeepEqual(got.Hits, exp.Hits) {
			t.Errorf("body %d %q: hits %+v, want %+v", i, trunc([]byte(body)), got.Hits, exp.Hits)
		}
	}

	// Past the body cap: a first value complete inside it is served, one
	// cut by it answers 413, a syntax error inside it 400.
	small := NewFromDB(db, Config{MaxBodyBytes: 256}).Handler()
	pad := strings.Repeat(" ", 512)
	for _, c := range []struct {
		body string
		code int
	}{
		{`{"exe":` + q(exe) + `,"name":` + q(name) + `}` + pad, http.StatusOK},
		{`{"exe":` + q(exe) + `,"name":` + q(name) + pad + `}`, http.StatusRequestEntityTooLarge},
		{`{"exe":` + q(exe) + `,"name":` + q(name) + `,}` + pad, http.StatusBadRequest},
	} {
		if _, err := refDecodeRequest([]byte(c.body), 256); outcome(err) != map[int]string{200: "ok", 413: "413", 400: "400"}[c.code] {
			t.Fatalf("reference decoder disagrees with the table on %q: %v", trunc([]byte(c.body)), err)
		}
		rec := httptest.NewRecorder()
		small.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/search", strings.NewReader(c.body)))
		if rec.Code != c.code {
			t.Errorf("capped body %q: status %d, want %d (%s)", trunc([]byte(c.body)), rec.Code, c.code, rec.Body.String())
		}
	}
}

// wireFixture is a by-reference request, a by-image request, one whose
// name the encoder escapes, and a real reply to a search.
func wireFixture(tb testing.TB) (byRef, byImage, escaped SearchRequest, reply []byte) {
	db, _ := smallDB(tb)
	e := entryWithTruth(tb, db, corpus.LibFuncName)
	byRef = SearchRequest{Exe: e.Exe, Name: e.Name, Limit: 10, Candidates: 100, PrefilterMode: "lsh"}
	if err := json.Unmarshal(byImageBody(tb), (*refSearchRequest)(&byImage)); err != nil {
		tb.Fatal(err)
	}
	escaped = byRef
	escaped.Name = "<" + e.Name + ">"
	rec := httptest.NewRecorder()
	body, _ := json.Marshal(refSearchRequest(SearchRequest{Exe: e.Exe, Name: e.Name, Limit: 10}))
	NewFromDB(db, Config{}).Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/search", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		tb.Fatalf("fixture search: %d %s", rec.Code, rec.Body.String())
	}
	return byRef, byImage, escaped, rec.Body.Bytes()
}

// TestPlainDecoderAccepts holds the plain decoder to what the encoder and
// the server write: each body below is read by it, not handed to
// encoding/json, and reads back as the value it encodes. A field the
// encoder writes and the plain decoder does not know would pass every
// parity test while every request paid for reflection.
func TestPlainDecoderAccepts(t *testing.T) {
	byRef, byImage, _, reply := wireFixture(t)
	reqs := []SearchRequest{byRef, byImage}
	var resps []SearchResponse
	var fixed SearchResponse
	if err := json.Unmarshal(reply, (*refSearchResponse)(&fixed)); err != nil || len(fixed.Hits) == 0 {
		t.Fatalf("fixture reply %s: %v", reply, err)
	}
	resps = append(resps, fixed)
	plain := func(s ...string) bool {
		for _, s := range s {
			if len(appendWireString(nil, s)) != len(s)+2 {
				return false
			}
		}
		return true
	}
	for _, s := range encodeSeeds {
		resp, req := wireValue(s.s1, s.s2, s.f1, s.f2, s.i1, s.i2, s.nhits, s.flags)
		if plain(req.Image, req.Function, req.Exe, req.Name, req.PrefilterMode, req.QueryGob) {
			reqs = append(reqs, req)
		}
		strs := []string{resp.Query, resp.PrefilterMode, resp.TraceID, resp.DegradedReason}
		for _, h := range resp.Hits {
			strs = append(strs, h.Exe, h.Name)
		}
		if plain(strs...) {
			resps = append(resps, resp)
		}
	}
	if len(reqs) < 4 || len(resps) < 3 {
		t.Fatalf("%d requests and %d responses to check; the seeds lost their plain cases", len(reqs), len(resps))
	}
	for _, want := range reqs {
		b, err := want.MarshalJSON()
		if err != nil {
			continue // a float encoding/json refuses too
		}
		var got SearchRequest
		if !plainRequest(b, &got) || !reflect.DeepEqual(got, want) {
			t.Errorf("request %s: plain decoder declined or read %+v", trunc(b), got)
		}
	}
	for _, want := range resps {
		b, err := want.MarshalJSON()
		if err != nil {
			continue
		}
		var got SearchResponse
		if !plainResponse(b, &got) || !reflect.DeepEqual(got, want) {
			t.Errorf("response %s: plain decoder declined or read %+v", trunc(b), got)
		}
	}
}

// BenchmarkSearchWire times the four legs of a /v1/search round trip's
// JSON, by reference and by image, through encoding/json on the shadow
// types (what the server and client ran before the codec) and through
// the codec. An escaped name puts the codec's reference path on record.
func BenchmarkSearchWire(b *testing.B) {
	byRef, byImage, escaped, respBody := wireFixture(b)
	var resp SearchResponse
	if err := resp.UnmarshalJSON(respBody); err != nil {
		b.Fatal(err)
	}
	b.Logf("response %d B, %d hits; by-image request %d B", len(respBody), len(resp.Hits), len(byImageBody(b)))

	for _, form := range []struct {
		name string
		req  SearchRequest
	}{{"ref", byRef}, {"image", byImage}, {"escaped", escaped}} {
		wire, _ := form.req.MarshalJSON()
		b.Run("request-decode/"+form.name+"/json", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := refDecodeRequest(wire, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("request-decode/"+form.name+"/codec", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				var r SearchRequest
				if err := readSearchRequest(bytes.NewReader(wire), int64(len(wire)), &r); err != nil {
					b.Fatal(err)
				}
			}
		})
		ref := refSearchRequest(form.req)
		b.Run("request-marshal/"+form.name+"/json", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := json.Marshal(ref); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("request-marshal/"+form.name+"/codec", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := form.req.MarshalJSON(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	refResp := refSearchResponse(resp)
	b.Run("response-decode/json", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			var r refSearchResponse
			if err := json.Unmarshal(respBody, &r); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("response-decode/codec", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			var r SearchResponse
			if err := r.UnmarshalJSON(respBody); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("response-encode/json", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if err := json.NewEncoder(io.Discard).Encode(&refResp); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("response-encode/codec", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if _, err := resp.appendJSON(make([]byte, 0, 256+160*len(resp.Hits))); err != nil {
				b.Fatal(err)
			}
		}
	})
}
