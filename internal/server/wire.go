package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"reflect"
	"strconv"
	"unicode/utf8"
)

// The /v1/search wire has one codec: SearchRequest and SearchResponse,
// with the Hits inside it, encode and decode themselves here, and every
// path that moves them — the handler, rpc.Conn (the Go client, `tracy
// query`, the fleet's scatter legs) and, through MarshalJSON and
// UnmarshalJSON, the batch endpoint — goes through it. encoding/json is
// the reference:
//
//   - encoding writes, with no reflection, the bytes
//     json.NewEncoder(w).Encode writes (less the newline, which the
//     handler appends): HTML-safe escaping of <, > and &, U+2028 and
//     U+2029 escaped, invalid UTF-8 as \ufffd, the 'f'/'e' float switch
//     at 1e-6 and 1e21, omitempty, a nil Hits as null;
//   - decoding reads the plain grammar — what this encoder and any plain
//     client write — in one pass with no reflection, and hands every
//     other input to encoding/json itself, on method-less shadows of the
//     types. The plain decoder only accepts or declines; what it accepts,
//     encoding/json decodes to the same value, so the accept set, the
//     values and the error texts are encoding/json's own.

// ---- encoding -------------------------------------------------------

// MarshalJSON encodes r as json.Marshal encodes its fields.
func (r SearchRequest) MarshalJSON() ([]byte, error) {
	return r.appendJSON(make([]byte, 0, 128+len(r.Image)+len(r.QueryGob)))
}

// MarshalJSON encodes r as json.Marshal encodes its fields.
func (r SearchResponse) MarshalJSON() ([]byte, error) {
	return r.appendJSON(make([]byte, 0, 256+160*len(r.Hits)))
}

func (r *SearchRequest) appendJSON(b []byte) ([]byte, error) {
	b = append(b, '{')
	open := len(b)
	key := func(k string) {
		if len(b) > open {
			b = append(b, ',')
		}
		b = append(b, k...)
	}
	str := func(k, v string) {
		if v != "" {
			key(k)
			b = appendWireString(b, v)
		}
	}
	num := func(k string, v int) {
		if v != 0 {
			key(k)
			b = strconv.AppendInt(b, int64(v), 10)
		}
	}
	str(`"image":`, r.Image)
	str(`"function":`, r.Function)
	str(`"exe":`, r.Exe)
	str(`"name":`, r.Name)
	num(`"k":`, r.K)
	num(`"limit":`, r.Limit)
	if r.MinScore != 0 {
		key(`"min_score":`)
		var err error
		if b, err = appendWireFloat(b, r.MinScore); err != nil {
			return nil, err
		}
	}
	if r.Prefilter {
		key(`"prefilter":true`)
	}
	num(`"candidates":`, r.Candidates)
	str(`"prefilter_mode":`, r.PrefilterMode)
	num(`"timeout_ms":`, r.TimeoutMS)
	str(`"query_gob":`, r.QueryGob)
	return append(b, '}'), nil
}

func (r *SearchResponse) appendJSON(b []byte) ([]byte, error) {
	var err error
	b = append(b, `{"query":`...)
	b = appendWireString(b, r.Query)
	b = append(b, `,"query_blocks":`...)
	b = strconv.AppendInt(b, int64(r.QueryBlocks), 10)
	b = append(b, `,"query_insts":`...)
	b = strconv.AppendInt(b, int64(r.QueryInsts), 10)
	b = append(b, `,"k":`...)
	b = strconv.AppendInt(b, int64(r.K), 10)
	b = append(b, `,"candidates":`...)
	b = strconv.AppendInt(b, int64(r.Candidates), 10)
	if r.Prefiltered {
		b = append(b, `,"prefiltered":true`...)
	}
	if r.PrefilterMode != "" {
		b = append(b, `,"prefilter_mode":`...)
		b = appendWireString(b, r.PrefilterMode)
	}
	b = append(b, `,"hits":`...)
	if r.Hits == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range r.Hits {
			if i > 0 {
				b = append(b, ',')
			}
			if b, err = r.Hits[i].appendJSON(b); err != nil {
				return nil, err
			}
		}
		b = append(b, ']')
	}
	b = append(b, `,"cached":`...)
	b = strconv.AppendBool(b, r.Cached)
	b = append(b, `,"took_ms":`...)
	if b, err = appendWireFloat(b, r.TookMS); err != nil {
		return nil, err
	}
	if r.TraceID != "" {
		b = append(b, `,"trace_id":`...)
		b = appendWireString(b, r.TraceID)
	}
	if r.Degraded {
		b = append(b, `,"degraded":true`...)
	}
	if r.DegradedReason != "" {
		b = append(b, `,"degraded_reason":`...)
		b = appendWireString(b, r.DegradedReason)
	}
	return append(b, '}'), nil
}

func (h *Hit) appendJSON(b []byte) ([]byte, error) {
	var err error
	b = append(b, `{"exe":`...)
	b = appendWireString(b, h.Exe)
	b = append(b, `,"name":`...)
	b = appendWireString(b, h.Name)
	b = append(b, `,"addr":`...)
	b = strconv.AppendUint(b, uint64(h.Addr), 10)
	b = append(b, `,"score":`...)
	if b, err = appendWireFloat(b, h.Score); err != nil {
		return nil, err
	}
	b = append(b, `,"is_match":`...)
	b = strconv.AppendBool(b, h.IsMatch)
	b = append(b, `,"matched":`...)
	b = strconv.AppendInt(b, int64(h.Matched), 10)
	b = append(b, `,"ref_tracelets":`...)
	b = strconv.AppendInt(b, int64(h.RefTracelets), 10)
	b = append(b, `,"matched_rewrite":`...)
	b = strconv.AppendInt(b, int64(h.MatchedRewrite), 10)
	return append(b, '}'), nil
}

// appendWireFloat writes f as encoding/json writes a float64: like
// strconv's shortest form, in exponent form below 1e-6 and from 1e21
// with no zero padding of the exponent. NaN and infinities are refused.
func appendWireFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return nil, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-09 is written e-9.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

const wireHex = "0123456789abcdef"

// appendWireString writes s as a JSON string the way encoding/json does
// with HTML escaping on.
func appendWireString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		i = htmlSafeRun(s, i)
		if i == len(s) {
			break
		}
		if c := s[i]; c < utf8.RuneSelf {
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default: // other controls, <, > and &
				b = append(b, '\\', 'u', '0', '0', wireHex[c>>4], wireHex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', wireHex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// The string scanners step over runs of bytes that need no attention
// eight at a time: a word holds such a byte when one of its bytes is below
// 0x20, has the high bit set, or equals one of the quoting characters.
const (
	lsb = 0x0101010101010101
	msb = 0x8080808080808080
)

// zeroByte is nonzero when some byte of w is zero.
func zeroByte(w uint64) uint64 { return (w - lsb) & ^w & msb }

// stringWord loads s[i:i+8] as one little-endian word.
func stringWord(s string, i int) uint64 {
	s = s[i : i+8]
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
}

// htmlSafeRun returns the index of the first byte at or after i that
// encoding/json would not copy into a string as is.
func htmlSafeRun(s string, i int) int {
	for ; i+8 <= len(s); i += 8 {
		w := stringWord(s, i)
		if (w-lsb*0x20)&^w&msb|w&msb|zeroByte(w^(lsb*'"'))|zeroByte(w^(lsb*'\\'))|
			zeroByte(w^(lsb*'<'))|zeroByte(w^(lsb*'>'))|zeroByte(w^(lsb*'&')) != 0 {
			break
		}
	}
	for ; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20, c >= utf8.RuneSelf, c == '"', c == '\\', c == '<', c == '>', c == '&':
			return i
		}
	}
	return i
}

// plainRun returns the index of the first byte at or after i that a
// string decoder must look at: a quote, a backslash, a control or a byte
// of a multi-byte sequence.
func plainRun(s []byte, i int) int {
	for ; i+8 <= len(s); i += 8 {
		w := binary.LittleEndian.Uint64(s[i:])
		if (w-lsb*0x20)&^w&msb|w&msb|zeroByte(w^(lsb*'"'))|zeroByte(w^(lsb*'\\')) != 0 {
			break
		}
	}
	for ; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20, c >= utf8.RuneSelf, c == '"', c == '\\':
			return i
		}
	}
	return i
}

// ---- decoding -------------------------------------------------------

// UnmarshalJSON decodes data, one JSON value as encoding/json hands it
// to a batch's queries, as a json.Decoder with DisallowUnknownFields
// decodes a SearchRequest: the server's rule for a request.
func (r *SearchRequest) UnmarshalJSON(data []byte) error {
	return decodeRequest(data, nil, r)
}

// UnmarshalJSON decodes data as json.Unmarshal decodes a SearchResponse,
// unknown fields ignored. rpc.Conn calls it on a reply body directly.
func (r *SearchResponse) UnmarshalJSON(data []byte) error {
	saved := *r
	// encoding/json decodes a hits array over the slice already there,
	// which the plain decoder does not.
	if r.Hits == nil && plainResponse(data, r) {
		return nil
	}
	*r = saved
	return referenceResponse(data, r)
}

// readSearchRequest decodes a request body as a json.Decoder with
// DisallowUnknownFields decodes one value from it: bytes after the first
// value are not looked at, and a body that ends early answers the read's
// error (an *http.MaxBytesError from a capped body) when there was one.
// sizeHint is the body's declared length, -1 when unknown.
func readSearchRequest(body io.Reader, sizeHint int64, r *SearchRequest) error {
	const maxHint = 64 << 10 // a declared length sizes the buffer up to here
	buf := bytes.NewBuffer(make([]byte, 0, min(max(sizeHint, 0), maxHint)+bytes.MinRead))
	_, rerr := buf.ReadFrom(body)
	return decodeRequest(buf.Bytes(), rerr, r)
}

// decodeRequest decodes data, the bytes a read returned before failing
// with rerr (nil: the read reached the end), into r.
func decodeRequest(data []byte, rerr error, r *SearchRequest) error {
	saved := *r
	if plainRequest(data, r) {
		return nil
	}
	*r = saved
	return referenceRequest(data, rerr, r)
}

// wireRequest and wireResponse are the wire types without their methods,
// so that encoding/json decodes them by reflection.
type (
	wireRequest  SearchRequest
	wireResponse SearchResponse
)

// referenceRequest is the reference's decode of a request: a json.Decoder
// reads data and then rerr, as it would have read the body. The value is
// copied in and out, so r does not escape and the plain path costs no
// allocation for it.
func referenceRequest(data []byte, rerr error, r *SearchRequest) error {
	var src io.Reader = bytes.NewReader(data)
	if rerr != nil {
		src = io.MultiReader(src, errReader{rerr})
	}
	dec := json.NewDecoder(src)
	dec.DisallowUnknownFields()
	w := wireRequest(*r)
	err := dec.Decode(&w)
	*r = SearchRequest(w)
	return unshadow[wireRequest, SearchRequest](err)
}

// referenceResponse is the reference's decode of a response.
func referenceResponse(data []byte, r *SearchResponse) error {
	w := wireResponse(*r)
	err := json.Unmarshal(data, &w)
	*r = SearchResponse(w)
	return unshadow[wireResponse, SearchResponse](err)
}

// unshadow names the wire type T where a type error names its shadow S.
func unshadow[S, T any](err error) error {
	if te, ok := err.(*json.UnmarshalTypeError); ok {
		s, t := reflect.TypeFor[S](), reflect.TypeFor[T]()
		if te.Type == s {
			te.Type = t
		}
		if te.Struct == s.Name() {
			te.Struct = t.Name()
		}
	}
	return err
}

// errReader fails every read with err: the error that ended a body,
// after its buffered bytes.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// plainDecoder reads the plain grammar: one object whose keys are the
// fields' own names, strings with no escape in valid UTF-8, number
// literals that parse into their field, true and false, and in a response
// one hits array of such objects. Each method reports whether the input
// went on in the grammar; after a false the decode is over, and the
// caller restores the value it had begun to fill.
type plainDecoder struct {
	data []byte
	off  int
}

func plainRequest(data []byte, r *SearchRequest) bool {
	d := plainDecoder{data: data}
	return d.object(func(key []byte) bool {
		switch string(key) {
		case "image":
			return d.str(&r.Image)
		case "function":
			return d.str(&r.Function)
		case "exe":
			return d.str(&r.Exe)
		case "name":
			return d.str(&r.Name)
		case "k":
			return d.int(&r.K)
		case "limit":
			return d.int(&r.Limit)
		case "min_score":
			return d.float(&r.MinScore)
		case "prefilter":
			return d.bool(&r.Prefilter)
		case "candidates":
			return d.int(&r.Candidates)
		case "prefilter_mode":
			return d.str(&r.PrefilterMode)
		case "timeout_ms":
			return d.int(&r.TimeoutMS)
		case "query_gob":
			return d.str(&r.QueryGob)
		}
		return false
	}) && d.end()
}

// plainResponse reads a response into r, whose Hits is nil.
func plainResponse(data []byte, r *SearchResponse) bool {
	d := plainDecoder{data: data}
	hits := false
	return d.object(func(key []byte) bool {
		switch string(key) {
		case "query":
			return d.str(&r.Query)
		case "query_blocks":
			return d.int(&r.QueryBlocks)
		case "query_insts":
			return d.int(&r.QueryInsts)
		case "k":
			return d.int(&r.K)
		case "candidates":
			return d.int(&r.Candidates)
		case "prefiltered":
			return d.bool(&r.Prefiltered)
		case "prefilter_mode":
			return d.str(&r.PrefilterMode)
		case "hits":
			// A second hits key decodes over the first one's slice.
			if hits {
				return false
			}
			hits = true
			return d.hits(&r.Hits)
		case "cached":
			return d.bool(&r.Cached)
		case "took_ms":
			return d.float(&r.TookMS)
		case "trace_id":
			return d.str(&r.TraceID)
		case "degraded":
			return d.bool(&r.Degraded)
		case "degraded_reason":
			return d.str(&r.DegradedReason)
		}
		return false
	}) && d.end()
}

// hits reads a hits array into the nil *dst; an empty array is an empty,
// non-nil slice.
func (d *plainDecoder) hits(dst *[]Hit) bool {
	if !d.next('[') {
		return false
	}
	if d.next(']') {
		*dst = []Hit{}
		return true
	}
	s := make([]Hit, 0, 16) // a page of hits in one allocation
	for {
		s = append(s, Hit{})
		if !d.hit(&s[len(s)-1]) {
			return false
		}
		if d.next(']') {
			*dst = s
			return true
		}
		if !d.next(',') {
			return false
		}
	}
}

func (d *plainDecoder) hit(h *Hit) bool {
	return d.object(func(key []byte) bool {
		switch string(key) {
		case "exe":
			return d.str(&h.Exe)
		case "name":
			return d.str(&h.Name)
		case "addr":
			return d.uint32(&h.Addr)
		case "score":
			return d.float(&h.Score)
		case "is_match":
			return d.bool(&h.IsMatch)
		case "matched":
			return d.int(&h.Matched)
		case "ref_tracelets":
			return d.int(&h.RefTracelets)
		case "matched_rewrite":
			return d.int(&h.MatchedRewrite)
		}
		return false
	})
}

// object reads an object, calling member with off at each member's
// value.
func (d *plainDecoder) object(member func(key []byte) bool) bool {
	if !d.next('{') {
		return false
	}
	if d.next('}') {
		return true
	}
	for {
		key, ok := d.rawString()
		if !ok || !d.next(':') || !member(key) {
			return false
		}
		if d.next('}') {
			return true
		}
		if !d.next(',') {
			return false
		}
	}
}

func (d *plainDecoder) ws() {
	for d.off < len(d.data) {
		switch d.data[d.off] {
		case ' ', '\t', '\n', '\r':
			d.off++
		default:
			return
		}
	}
}

// next steps over space and then c, if c comes next.
func (d *plainDecoder) next(c byte) bool {
	d.ws()
	if d.off < len(d.data) && d.data[d.off] == c {
		d.off++
		return true
	}
	return false
}

// literal steps over space and then lit, if lit comes next.
func (d *plainDecoder) literal(lit string) bool {
	d.ws()
	if end := d.off + len(lit); end <= len(d.data) && string(d.data[d.off:end]) == lit {
		d.off = end
		return true
	}
	return false
}

// end reports whether nothing but space is left.
func (d *plainDecoder) end() bool {
	d.ws()
	return d.off == len(d.data)
}

// rawString reads a string with no escape and in valid UTF-8, returning
// its content, which is then its value.
func (d *plainDecoder) rawString() ([]byte, bool) {
	if !d.next('"') {
		return nil, false
	}
	s, start := d.data, d.off
	for i := start; ; {
		i = plainRun(s, i)
		switch {
		case i == len(s):
			return nil, false
		case s[i] == '"':
			d.off = i + 1
			return s[start:i], true
		case s[i] < utf8.RuneSelf: // a backslash or a control
			return nil, false
		}
		r, size := utf8.DecodeRune(s[i:])
		if r == utf8.RuneError && size == 1 {
			return nil, false
		}
		i += size
	}
}

func (d *plainDecoder) str(dst *string) bool {
	raw, ok := d.rawString()
	if ok {
		*dst = string(raw)
	}
	return ok
}

func (d *plainDecoder) bool(dst *bool) bool {
	switch {
	case d.literal("true"):
		*dst = true
	case d.literal("false"):
		*dst = false
	default:
		return false
	}
	return true
}

// The number fields parse a literal as encoding/json does; a literal
// that does not fit is declined, and the reference refuses it.

func (d *plainDecoder) int(dst *int) bool {
	n, err := strconv.ParseInt(string(d.number()), 10, 0)
	*dst = int(n)
	return err == nil
}

func (d *plainDecoder) uint32(dst *uint32) bool {
	n, err := strconv.ParseUint(string(d.number()), 10, 32)
	*dst = uint32(n)
	return err == nil
}

func (d *plainDecoder) float(dst *float64) bool {
	f, err := strconv.ParseFloat(string(d.number()), 64)
	*dst = f
	return err == nil
}

// number steps over space and then a JSON number literal, returning it,
// or nil when no literal comes next:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (d *plainDecoder) number() []byte {
	d.ws()
	s, i := d.data, d.off
	digits := func() bool {
		start := i
		for i < len(s) && '0' <= s[i] && s[i] <= '9' {
			i++
		}
		return i > start
	}
	if i < len(s) && s[i] == '-' {
		i++
	}
	if i < len(s) && s[i] == '0' {
		i++
	} else if !digits() {
		return nil
	}
	if i < len(s) && s[i] == '.' {
		if i++; !digits() {
			return nil
		}
	}
	if i < len(s) && (s[i] == 'e' || s[i] == 'E') {
		if i++; i < len(s) && (s[i] == '+' || s[i] == '-') {
			i++
		}
		if !digits() {
			return nil
		}
	}
	lit := s[d.off:i]
	d.off = i
	return lit
}
