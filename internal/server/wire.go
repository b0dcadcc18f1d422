package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// The /v1/search wire has one codec: SearchRequest and SearchResponse,
// with the Hits inside it, encode and decode themselves here, with no
// reflection, and every path that moves them — the handler, rpc.Conn (the
// Go client, `tracy query`, the fleet's scatter legs) and, through
// MarshalJSON and UnmarshalJSON, the batch endpoint — goes through it.
// encoding/json remains the reference the tests hold it to:
//
//   - encoding writes the bytes json.NewEncoder(w).Encode writes (less
//     the newline, which the handler appends): HTML-safe escaping of
//     <, > and &, U+2028 and U+2029 escaped, invalid UTF-8 as \ufffd, the
//     'f'/'e' float switch at 1e-6 and 1e21, omitempty, a nil Hits as null;
//   - decoding accepts exactly what json.Unmarshal accepts and yields the
//     same value: keys matched exactly, else case-insensitively under
//     Unicode folding, the last of duplicate keys winning, null leaving a
//     field alone, lone surrogates and invalid UTF-8 decoded to U+FFFD,
//     no fraction or exponent in an integer field, at most 10 000 levels
//     of nesting. A request refuses unknown fields, a response ignores
//     them; a request body is read as json.Decoder reads it, so bytes
//     after its first value are ignored.
//
// A decode is one pass over the input: a value is checked as it is
// stored, and a type error is kept until the whole value has proved
// well-formed, which is the order encoding/json reports them in. Unknown
// values are skipped by a loop, not by recursion; work and memory are
// linear in the input.

// maxWireDepth is encoding/json's nesting limit.
const maxWireDepth = 10000

// errWireEOF is a value cut short by the end of the input.
var errWireEOF = errors.New("unexpected end of JSON input")

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

// UnmarshalJSON decodes data as json.Unmarshal decodes a SearchRequest
// with unknown fields disallowed, the server's rule for a request: a
// batch's queries are decoded by it.
func (r *SearchRequest) UnmarshalJSON(data []byte) error {
	d := wireDecoder{data: data}
	return d.whole(func() error { return d.request(r) }, "SearchRequest")
}

// UnmarshalJSON decodes data as json.Unmarshal decodes a SearchResponse,
// unknown fields ignored. rpc.Conn calls it on a reply body directly.
func (r *SearchResponse) UnmarshalJSON(data []byte) error {
	d := wireDecoder{data: data}
	return d.whole(func() error { return d.response(r) }, "SearchResponse")
}

// readSearchRequest decodes a request body as a json.Decoder with
// DisallowUnknownFields decodes one value from it: the first value must
// be complete and well-formed, and what follows it is not looked at. A
// body that ends early answers the read's error (an
// *http.MaxBytesError from a capped body) when there was one. sizeHint
// is the body's declared length, -1 when unknown.
func readSearchRequest(body io.Reader, sizeHint int64, r *SearchRequest) error {
	const maxHint = 64 << 10 // a declared length sizes the buffer up to here
	buf := bytes.NewBuffer(make([]byte, 0, min(max(sizeHint, 0), maxHint)+bytes.MinRead))
	_, rerr := buf.ReadFrom(body)
	d := wireDecoder{data: buf.Bytes()}
	d.ws()
	empty := d.off == len(d.data)
	err := d.top(func() error { return d.request(r) }, "SearchRequest")
	if err == nil && d.scalar && d.off == len(d.data) && rerr != nil {
		// A top-level scalar ends at the byte after it, which never came.
		err = errWireEOF
	}
	if err == nil {
		err = d.saved
	}
	if err == errWireEOF {
		switch {
		case rerr != nil:
			err = rerr
		case empty:
			err = io.EOF
		default:
			err = io.ErrUnexpectedEOF
		}
	}
	return err
}

// wireDecoder is one decode of one input.
type wireDecoder struct {
	data   []byte
	off    int
	depth  int   // containers open at off
	scalar bool  // the top-level value was a string, number or literal: it ends at the byte after it
	saved  error // the first type or unknown-field error
	keyBuf []byte
}

// whole decodes data as one value with nothing but space around it.
func (d *wireDecoder) whole(object func() error, typ string) error {
	if err := d.top(object, typ); err != nil {
		return err
	}
	d.ws()
	if d.off < len(d.data) {
		return d.syntax("after top-level value")
	}
	return d.saved
}

// top decodes the top-level value: an object through object, null as
// nothing, anything else as a type error once it is skipped.
func (d *wireDecoder) top(object func() error, typ string) error {
	d.ws()
	if d.off >= len(d.data) {
		return errWireEOF
	}
	switch d.data[d.off] {
	case '{':
		return object()
	case 'n':
		d.scalar = true
		return d.literal("null")
	}
	d.scalar = d.data[d.off] != '['
	return d.mismatch(typ, "", "")
}

func (d *wireDecoder) ws() {
	for d.off < len(d.data) {
		switch d.data[d.off] {
		case ' ', '\t', '\n', '\r':
			d.off++
		default:
			return
		}
	}
}

// syntax reports malformed JSON at off, worded as encoding/json words it.
func (d *wireDecoder) syntax(context string) error {
	return errors.New("invalid character " + quoteWireChar(d.data[d.off]) + " " + context)
}

func quoteWireChar(c byte) string {
	switch c {
	case '\'':
		return `'\''`
	case '"':
		return `'"'`
	}
	s := strconv.Quote(string(c))
	return "'" + s[1:len(s)-1] + "'"
}

// wireTypes are the Go types type errors name.
var wireTypes = map[string]reflect.Type{
	"SearchRequest":  reflect.TypeFor[SearchRequest](),
	"SearchResponse": reflect.TypeFor[SearchResponse](),
	"Hit":            reflect.TypeFor[Hit](),
	"[]Hit":          reflect.TypeFor[[]Hit](),
	"string":         reflect.TypeFor[string](),
	"int":            reflect.TypeFor[int](),
	"uint32":         reflect.TypeFor[uint32](),
	"float64":        reflect.TypeFor[float64](),
	"bool":           reflect.TypeFor[bool](),
}

// mismatch records that the value at off does not fit its field (of Go
// type typ, in struct strct) and skips it.
func (d *wireDecoder) mismatch(typ, strct, field string) error {
	if d.saved == nil {
		what := "number"
		switch d.data[d.off] {
		case '{':
			what = "object"
		case '[':
			what = "array"
		case '"':
			what = "string"
		case 't', 'f':
			what = "bool"
		}
		d.saved = &json.UnmarshalTypeError{Value: what, Type: wireTypes[typ], Offset: int64(d.off), Struct: strct, Field: field}
	}
	return d.skip()
}

// badNumber records a number that does not fit its field.
func (d *wireDecoder) badNumber(lit []byte, typ, strct, field string) {
	if d.saved == nil {
		d.saved = &json.UnmarshalTypeError{Value: "number " + string(lit), Type: wireTypes[typ], Offset: int64(d.off), Struct: strct, Field: field}
	}
}

// wireFields is a struct's JSON keys with the form encoding/json matches
// a key case-insensitively by.
type wireFields struct {
	names, folded []string
}

func newWireFields(names ...string) wireFields {
	f := wireFields{names: names}
	for _, n := range names {
		f.folded = append(f.folded, string(foldWireName(nil, []byte(n))))
	}
	return f
}

// match returns the index of the field key names, or -1. *next is the
// field expected next: an encoder writes the fields in order, so it is
// tried first, and advanced past each match.
func (f *wireFields) match(key []byte, next *int) int {
	i := *next
	if i >= len(f.names) || string(key) != f.names[i] {
		i = f.lookup(key)
	}
	*next = i + 1
	return i
}

func (f *wireFields) lookup(key []byte) int {
	for i, n := range f.names {
		if string(key) == n {
			return i
		}
	}
	var arr [32]byte
	folded := foldWireName(arr[:0], key)
	for i, n := range f.folded {
		if string(folded) == n {
			return i
		}
	}
	return -1
}

// foldWireName folds a key as encoding/json does: ASCII letters to upper
// case, any other rune to the smallest rune of its Unicode fold set, so
// "K" (U+212A KELVIN SIGN) matches "k" and "ſ" (U+017F) matches "s".
func foldWireName(out, in []byte) []byte {
	for i := 0; i < len(in); {
		if c := in[i]; c < utf8.RuneSelf {
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			out = append(out, c)
			i++
			continue
		}
		r, n := utf8.DecodeRune(in[i:])
		for {
			r2 := unicode.SimpleFold(r)
			if r2 <= r {
				r = r2
				break
			}
			r = r2
		}
		out = utf8.AppendRune(out, r)
		i += n
	}
	return out
}

var (
	requestFields = newWireFields("image", "function", "exe", "name", "k", "limit", "min_score",
		"prefilter", "candidates", "prefilter_mode", "timeout_ms", "query_gob")
	responseFields = newWireFields("query", "query_blocks", "query_insts", "k", "candidates",
		"prefiltered", "prefilter_mode", "hits", "cached", "took_ms", "trace_id", "degraded", "degraded_reason")
	hitFields = newWireFields("exe", "name", "addr", "score", "is_match", "matched", "ref_tracelets", "matched_rewrite")
)

func (d *wireDecoder) request(r *SearchRequest) error {
	const s = "SearchRequest"
	next := 0
	return d.object(func(key []byte) error {
		switch requestFields.match(key, &next) {
		case 0:
			return d.str(&r.Image, s, "image")
		case 1:
			return d.str(&r.Function, s, "function")
		case 2:
			return d.str(&r.Exe, s, "exe")
		case 3:
			return d.str(&r.Name, s, "name")
		case 4:
			return d.int(&r.K, s, "k")
		case 5:
			return d.int(&r.Limit, s, "limit")
		case 6:
			return d.float(&r.MinScore, s, "min_score")
		case 7:
			return d.bool(&r.Prefilter, s, "prefilter")
		case 8:
			return d.int(&r.Candidates, s, "candidates")
		case 9:
			return d.str(&r.PrefilterMode, s, "prefilter_mode")
		case 10:
			return d.int(&r.TimeoutMS, s, "timeout_ms")
		case 11:
			return d.str(&r.QueryGob, s, "query_gob")
		}
		if d.saved == nil {
			d.saved = fmt.Errorf("json: unknown field %q", key)
		}
		return d.skip()
	})
}

func (d *wireDecoder) response(r *SearchResponse) error {
	const s = "SearchResponse"
	next := 0
	return d.object(func(key []byte) error {
		switch responseFields.match(key, &next) {
		case 0:
			return d.str(&r.Query, s, "query")
		case 1:
			return d.int(&r.QueryBlocks, s, "query_blocks")
		case 2:
			return d.int(&r.QueryInsts, s, "query_insts")
		case 3:
			return d.int(&r.K, s, "k")
		case 4:
			return d.int(&r.Candidates, s, "candidates")
		case 5:
			return d.bool(&r.Prefiltered, s, "prefiltered")
		case 6:
			return d.str(&r.PrefilterMode, s, "prefilter_mode")
		case 7:
			return d.hits(&r.Hits)
		case 8:
			return d.bool(&r.Cached, s, "cached")
		case 9:
			return d.float(&r.TookMS, s, "took_ms")
		case 10:
			return d.str(&r.TraceID, s, "trace_id")
		case 11:
			return d.bool(&r.Degraded, s, "degraded")
		case 12:
			return d.str(&r.DegradedReason, s, "degraded_reason")
		}
		return d.skip()
	})
}

// hits decodes the hits array the way encoding/json decodes into a
// slice: elements are decoded over what the slice already holds, up to
// its capacity, and an empty array yields an empty, non-nil slice.
func (d *wireDecoder) hits(dst *[]Hit) error {
	if d.off >= len(d.data) {
		return errWireEOF
	}
	switch d.data[d.off] {
	case 'n':
		if err := d.literal("null"); err != nil {
			return err
		}
		*dst = nil
		return nil
	case '[':
	default:
		return d.mismatch("[]Hit", "SearchResponse", "hits")
	}
	if err := d.push(); err != nil {
		return err
	}
	d.ws()
	if d.off < len(d.data) && d.data[d.off] == ']' {
		d.off++
		d.depth--
		*dst = []Hit{}
		return nil
	}
	s := *dst
	for i := 0; ; i++ {
		switch {
		case i == cap(s):
			// Room for a page of hits at once; what lies past the length
			// stays zero, as after encoding/json's growth.
			grown := make([]Hit, i+1, max(2*i, 16))
			copy(grown, s)
			s = grown
		case i >= len(s):
			s = s[:i+1]
		}
		*dst = s
		if err := d.hit(&s[i]); err != nil {
			return err
		}
		d.ws()
		if d.off >= len(d.data) {
			return errWireEOF
		}
		switch d.data[d.off] {
		case ',':
			d.off++
			d.ws()
			continue
		case ']':
			d.off++
			d.depth--
			*dst = s[:i+1]
			return nil
		}
		return d.syntax("after array element")
	}
}

func (d *wireDecoder) hit(h *Hit) error {
	if d.off >= len(d.data) {
		return errWireEOF
	}
	switch d.data[d.off] {
	case 'n':
		return d.literal("null")
	case '{':
	default:
		return d.mismatch("Hit", "", "")
	}
	const s = "Hit"
	next := 0
	return d.object(func(key []byte) error {
		switch hitFields.match(key, &next) {
		case 0:
			return d.str(&h.Exe, s, "exe")
		case 1:
			return d.str(&h.Name, s, "name")
		case 2:
			return d.uint32(&h.Addr, s, "addr")
		case 3:
			return d.float(&h.Score, s, "score")
		case 4:
			return d.bool(&h.IsMatch, s, "is_match")
		case 5:
			return d.int(&h.Matched, s, "matched")
		case 6:
			return d.int(&h.RefTracelets, s, "ref_tracelets")
		case 7:
			return d.int(&h.MatchedRewrite, s, "matched_rewrite")
		}
		return d.skip()
	})
}

// push enters the container whose opening byte is at off.
func (d *wireDecoder) push() error {
	if d.depth == maxWireDepth {
		return d.syntax("exceeded max depth")
	}
	d.depth++
	d.off++
	return nil
}

// object decodes the object at off, calling member with off at each
// member's value.
func (d *wireDecoder) object(member func(key []byte) error) error {
	if err := d.push(); err != nil {
		return err
	}
	d.ws()
	if d.off < len(d.data) && d.data[d.off] == '}' {
		d.off++
		d.depth--
		return nil
	}
	for {
		key, err := d.key()
		if err != nil {
			return err
		}
		if err := member(key); err != nil {
			return err
		}
		d.ws()
		if d.off >= len(d.data) {
			return errWireEOF
		}
		switch d.data[d.off] {
		case ',':
			d.off++
			d.ws()
			continue
		case '}':
			d.off++
			d.depth--
			return nil
		}
		return d.syntax("after object key:value pair")
	}
}

// key reads a member's key and its colon, leaving off at the value. The
// key is valid until the next call.
func (d *wireDecoder) key() ([]byte, error) {
	if d.off >= len(d.data) {
		return nil, errWireEOF
	}
	if d.data[d.off] != '"' {
		return nil, d.syntax("looking for beginning of object key string")
	}
	raw, plain, err := d.scanString()
	if err != nil {
		return nil, err
	}
	if !plain {
		d.keyBuf = unquoteWire(d.keyBuf[:0], raw)
		raw = d.keyBuf
	}
	d.ws()
	if d.off >= len(d.data) {
		return nil, errWireEOF
	}
	if d.data[d.off] != ':' {
		return nil, d.syntax("after object key")
	}
	d.off++
	d.ws()
	return raw, nil
}

// scanString checks the string at off and steps past it. raw is its
// content between the quotes; plain reports that raw needs no unquoting
// (no escapes, valid UTF-8).
func (d *wireDecoder) scanString() (raw []byte, plain bool, err error) {
	s := d.data
	plain = true
	i := d.off + 1
	for {
		i = plainRun(s, i)
		if i >= len(s) {
			d.off = len(s)
			return nil, false, errWireEOF
		}
		switch c := s[i]; {
		case c == '"':
			raw = s[d.off+1 : i]
			d.off = i + 1
			return raw, plain, nil
		case c == '\\':
			plain = false
			i++
			if i >= len(s) {
				d.off = i
				return nil, false, errWireEOF
			}
			switch s[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i++
			case 'u':
				for j := 1; j <= 4; j++ {
					if i+j >= len(s) {
						d.off = len(s)
						return nil, false, errWireEOF
					}
					if !isWireHex(s[i+j]) {
						d.off = i + j
						return nil, false, d.syntax("in \\u hexadecimal character escape")
					}
				}
				i += 5
			default:
				d.off = i
				return nil, false, d.syntax("in string escape code")
			}
		case c < 0x20:
			d.off = i
			return nil, false, d.syntax("in string literal")
		default: // a multi-byte sequence; invalid UTF-8 is content, to be replaced
			r, size := utf8.DecodeRune(s[i:])
			if r == utf8.RuneError && size == 1 {
				plain = false
			}
			i += size
		}
	}
}

func isWireHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// unquoteWire appends the checked string content s, unescaped, to b as
// encoding/json unquotes it: a surrogate that is not half of a valid
// pair and each byte of invalid UTF-8 become U+FFFD.
func unquoteWire(b, s []byte) []byte {
	for r := 0; r < len(s); {
		c := s[r]
		switch {
		case c == '\\':
			r++
			switch s[r] {
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				rr := hex4(s[r+1 : r+5])
				r += 5
				if utf16.IsSurrogate(rr) {
					if r+6 <= len(s) && s[r] == '\\' && s[r+1] == 'u' {
						if dec := utf16.DecodeRune(rr, hex4(s[r+2:r+6])); dec != unicode.ReplacementChar {
							b = utf8.AppendRune(b, dec)
							r += 6
							continue
						}
					}
					rr = unicode.ReplacementChar
				}
				b = utf8.AppendRune(b, rr)
				continue
			default: // " \ /
				b = append(b, s[r])
			}
			r++
		case c < utf8.RuneSelf:
			b = append(b, c)
			r++
		default:
			rr, size := utf8.DecodeRune(s[r:])
			b = utf8.AppendRune(b, rr)
			r += size
		}
	}
	return b
}

// hex4 reads four hex digits, or returns -1 when they are not.
func hex4(s []byte) rune {
	var r rune
	for _, c := range s {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c = c - 'a' + 10
		case 'A' <= c && c <= 'F':
			c = c - 'A' + 10
		default:
			return -1
		}
		r = r*16 + rune(c)
	}
	return r
}

// str decodes a string field.
func (d *wireDecoder) str(dst *string, strct, field string) error {
	if d.off >= len(d.data) {
		return errWireEOF
	}
	switch d.data[d.off] {
	case '"':
		raw, plain, err := d.scanString()
		if err != nil {
			return err
		}
		if plain {
			*dst = string(raw)
		} else {
			*dst = string(unquoteWire(make([]byte, 0, len(raw)+utf8.UTFMax), raw))
		}
		return nil
	case 'n':
		return d.literal("null")
	}
	return d.mismatch("string", strct, field)
}

// bool decodes a bool field.
func (d *wireDecoder) bool(dst *bool, strct, field string) error {
	if d.off >= len(d.data) {
		return errWireEOF
	}
	switch d.data[d.off] {
	case 't':
		if err := d.literal("true"); err != nil {
			return err
		}
		*dst = true
		return nil
	case 'f':
		if err := d.literal("false"); err != nil {
			return err
		}
		*dst = false
		return nil
	case 'n':
		return d.literal("null")
	}
	return d.mismatch("bool", strct, field)
}

// numberField checks the value at off for a number field: it returns the
// number's literal, or nil when the value was null or not a number (then
// recorded as a type error and skipped).
func (d *wireDecoder) numberField(typ, strct, field string) ([]byte, error) {
	if d.off >= len(d.data) {
		return nil, errWireEOF
	}
	switch c := d.data[d.off]; {
	case c == '-' || '0' <= c && c <= '9':
		start := d.off
		if err := d.number(); err != nil {
			return nil, err
		}
		return d.data[start:d.off], nil
	case c == 'n':
		return nil, d.literal("null")
	}
	return nil, d.mismatch(typ, strct, field)
}

func (d *wireDecoder) int(dst *int, strct, field string) error {
	const t = "int"
	lit, err := d.numberField(t, strct, field)
	if lit == nil {
		return err
	}
	n, perr := strconv.ParseInt(string(lit), 10, 64)
	if perr != nil || int64(int(n)) != n {
		d.badNumber(lit, t, strct, field)
		return nil
	}
	*dst = int(n)
	return nil
}

func (d *wireDecoder) uint32(dst *uint32, strct, field string) error {
	const t = "uint32"
	lit, err := d.numberField(t, strct, field)
	if lit == nil {
		return err
	}
	n, perr := strconv.ParseUint(string(lit), 10, 64)
	if perr != nil || n > math.MaxUint32 {
		d.badNumber(lit, t, strct, field)
		return nil
	}
	*dst = uint32(n)
	return nil
}

func (d *wireDecoder) float(dst *float64, strct, field string) error {
	const t = "float64"
	lit, err := d.numberField(t, strct, field)
	if lit == nil {
		return err
	}
	f, perr := strconv.ParseFloat(string(lit), 64)
	if perr != nil {
		d.badNumber(lit, t, strct, field)
		return nil
	}
	*dst = f
	return nil
}

// number steps over the JSON number at off:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (d *wireDecoder) number() error {
	s := d.data
	i := d.off
	if s[i] == '-' {
		i++
	}
	digits := func(context string) error {
		if i >= len(s) {
			d.off = i
			return errWireEOF
		}
		if s[i] < '0' || s[i] > '9' {
			d.off = i
			return d.syntax(context)
		}
		for i < len(s) && '0' <= s[i] && s[i] <= '9' {
			i++
		}
		return nil
	}
	if i < len(s) && s[i] == '0' {
		i++
	} else if err := digits("in numeric literal"); err != nil {
		return err
	}
	if i < len(s) && s[i] == '.' {
		i++
		if err := digits("after decimal point in numeric literal"); err != nil {
			return err
		}
	}
	if i < len(s) && (s[i] == 'e' || s[i] == 'E') {
		i++
		if i < len(s) && (s[i] == '+' || s[i] == '-') {
			i++
		}
		if err := digits("in exponent of numeric literal"); err != nil {
			return err
		}
	}
	d.off = i
	return nil
}

// literal steps over lit (true, false or null), whose first byte is at off.
func (d *wireDecoder) literal(lit string) error {
	for j := 1; j < len(lit); j++ {
		if d.off+j >= len(d.data) {
			d.off = len(d.data)
			return errWireEOF
		}
		if d.data[d.off+j] != lit[j] {
			d.off += j
			return d.syntax("in literal " + lit + " (expecting " + quoteWireChar(lit[j]) + ")")
		}
	}
	d.off += len(lit)
	return nil
}

// skip steps over the value at off, checking it, with a loop and an
// explicit stack of open containers rather than recursion.
func (d *wireDecoder) skip() error {
	var arr [64]byte
	open := arr[:0] // '{' or '[' per container skip has entered
	for {
		// A value starts at off.
		if d.off >= len(d.data) {
			return errWireEOF
		}
		switch c := d.data[d.off]; {
		case c == '{' || c == '[':
			if err := d.push(); err != nil {
				return err
			}
			open = append(open, c)
			d.ws()
			if d.off >= len(d.data) {
				return errWireEOF
			}
			if d.data[d.off] == c+2 { // '}' or ']'
				d.off++
				d.depth--
				open = open[:len(open)-1]
				break
			}
			if c == '{' {
				if _, err := d.key(); err != nil {
					return err
				}
			}
			continue
		case c == '"':
			if _, _, err := d.scanString(); err != nil {
				return err
			}
		case c == '-' || '0' <= c && c <= '9':
			if err := d.number(); err != nil {
				return err
			}
		case c == 't':
			if err := d.literal("true"); err != nil {
				return err
			}
		case c == 'f':
			if err := d.literal("false"); err != nil {
				return err
			}
		case c == 'n':
			if err := d.literal("null"); err != nil {
				return err
			}
		default:
			return d.syntax("looking for beginning of value")
		}
		// A value ended: close containers until one takes another value.
		for {
			if len(open) == 0 {
				return nil
			}
			d.ws()
			if d.off >= len(d.data) {
				return errWireEOF
			}
			c, top := d.data[d.off], open[len(open)-1]
			if c == ',' {
				d.off++
				d.ws()
				if top == '{' {
					if _, err := d.key(); err != nil {
						return err
					}
				}
				break
			}
			if c != top+2 {
				if top == '{' {
					return d.syntax("after object key:value pair")
				}
				return d.syntax("after array element")
			}
			d.off++
			d.depth--
			open = open[:len(open)-1]
		}
	}
}
