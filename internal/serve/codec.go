package serve

// The HTTP codec. Requests are scanned once, straight into typed column
// slices, by a small schema-aware JSON lexer; responses are appended into one
// byte slice from constant parts precomputed per plan state. Both keep the
// wire format of encoding/json exactly: a transform response is byte-identical
// to json.Encoder's encoding of {plan, version, features, rows:
// [{feature: value|null}], coalesced}, and a request body is accepted and
// typed as encoding/json would decode it into {"rows": []map[string]any}
// (UseNumber) — with three accidents of that decoder rejected instead (see
// rowsDecoder.scan). codec_ref_test.go keeps the reflection codec as the
// test-local oracle both halves are fuzzed and property-tested against.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"

	"repro/internal/dataframe"
	"repro/internal/query"
)

// MaxBodyBytes caps every request body the server reads: transform keys,
// append rows and swapped plan JSON. A body over the cap fails with
// ErrBodyTooLarge (413) as soon as the read crosses it, before anything is
// decoded into tables. 8 MiB is far above any body the row budgets admit
// (DefaultMaxInflightRows key rows are well under 1 MiB of JSON).
const MaxBodyBytes = 8 << 20

// readBody reads r's whole body, capped at MaxBodyBytes. The Content-Length,
// when it is within the cap, only sizes the buffer; the cap is enforced on
// the bytes actually read.
func readBody(w http.ResponseWriter, r *http.Request, what string) ([]byte, error) {
	var buf bytes.Buffer
	if r.ContentLength > 0 && r.ContentLength <= MaxBodyBytes {
		buf.Grow(int(r.ContentLength) + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, MaxBodyBytes)); err != nil {
		return nil, bodyError(what, err)
	}
	return buf.Bytes(), nil
}

// bodyError types a failure to read or decode a request body: crossing
// MaxBodyBytes is ErrBodyTooLarge, anything else ErrBadRequest.
func bodyError(what string, err error) error {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return fmt.Errorf("%w: %s: over %d bytes", ErrBodyTooLarge, what, tooLarge.Limit)
	}
	return fmt.Errorf("%w: %s: %v", ErrBadRequest, what, err)
}

// keyCol is one join-key column of a plan's request schema: the column name
// and the physical kind request values must carry, resolved at bind time
// from the relevant table(s) so request rows join under exactly the key
// encoding the executor groups by.
type keyCol struct {
	name string
	kind dataframe.Kind
}

// requestSchema resolves the plan's required key columns against the bound
// relevant tables (first table carrying the column wins; multi-table plans
// keep key kinds consistent across sources by construction of the fit).
func requestSchema(keys []string, tables ...*dataframe.Table) ([]keyCol, error) {
	spec := make([]keyCol, 0, len(keys))
	for _, k := range keys {
		found := false
		for _, t := range tables {
			if c := t.Column(k); c != nil {
				spec = append(spec, keyCol{name: k, kind: c.Kind()})
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("serve: key column %q missing from every bound relevant table", k)
		}
	}
	return spec, nil
}

// decodeRows parses a transform request body into a typed key table matching
// spec. Every row must carry every key with a value of the column's kind
// (integral JSON numbers for int and time keys); anything else fails with
// ErrBadRequest. A body carrying more than maxRows rows fails with
// ErrOverloaded as soon as the scan reaches row maxRows+1, without typing the
// rest: no admission could take it. The returned table has one row per
// request row.
func decodeRows(body []byte, spec []keyCol, maxRows int) (*dataframe.Table, error) {
	fields := make([]field, len(spec))
	for j, kc := range spec {
		fields[j] = field{name: kc.name, kind: kc.kind}
	}
	return decodeTable(body, "key", fields, maxRows)
}

// decodeAppendRows parses an append request body — the same rows-of-objects
// shape as transform, but over the relevant table's FULL schema — into a batch
// table matching t's columns. A missing or JSON-null value becomes a NULL;
// present values must match the column's kind (integral JSON numbers for int
// and time columns). The batch is what Table.AppendRows accepts.
func decodeAppendRows(body []byte, t *dataframe.Table) (*dataframe.Table, error) {
	fields := make([]field, t.NumCols())
	for j, c := range t.Columns() {
		fields[j] = field{name: c.Name(), kind: c.Kind(), nullable: true}
	}
	return decodeTable(body, "column", fields, math.MaxInt)
}

// decodeTable scans body's rows into fields and assembles the table. The
// output columns are sized up front from the body's brace count: each row
// object opens with '{', so the count overestimates the rows only by the
// top-level object and braces inside other values, and it is capped at
// maxRowsHint so a body of braces in strings cannot reserve far beyond it.
func decodeTable(body []byte, what string, fields []field, maxRows int) (*dataframe.Table, error) {
	n := min(bytes.Count(body, []byte{'{'}), maxRows, maxRowsHint)
	for j := range fields {
		if err := fields[j].reserve(n); err != nil {
			return nil, fmt.Errorf("serve: %s %q: %w", what, fields[j].name, err)
		}
	}
	d := rowsDecoder{lexer: lexer{b: body}, what: what, fields: fields, maxRows: maxRows, last: make([]token, len(fields))}
	if err := d.scan(); err != nil {
		return nil, err
	}
	return d.table()
}

// maxRowsHint caps the rows decodeTable reserves output columns for.
const maxRowsHint = 1 << 16

// field is one output column of a rows decoder: its schema, the typed values
// decoded so far (one slice, by kind) and, for a nullable field, validity.
type field struct {
	name     string
	kind     dataframe.Kind
	nullable bool

	ints   []int64
	floats []float64
	strs   []string
	bools  []bool
	valid  []bool
}

// reserve sizes f's output slices for n rows.
func (f *field) reserve(n int) error {
	switch f.kind {
	case dataframe.KindInt, dataframe.KindTime:
		f.ints = make([]int64, 0, n)
	case dataframe.KindFloat:
		f.floats = make([]float64, 0, n)
	case dataframe.KindString:
		f.strs = make([]string, 0, n)
	case dataframe.KindBool:
		f.bools = make([]bool, 0, n)
	default:
		return fmt.Errorf("unsupported kind %s", f.kind)
	}
	if f.nullable {
		f.valid = make([]bool, 0, n)
	}
	return nil
}

// rowsDecoder scans {"rows": [{name: value, ...}, ...]} into its fields.
type rowsDecoder struct {
	lexer
	what    string // "key" or "column", for error messages
	fields  []field
	maxRows int
	rows    int
	last    []token // per field: the row's last value for it (JSON objects are last-wins)
}

// scan walks the body. It accepts exactly what encoding/json's decode into
// {"rows": []map[string]any} accepts, except three accidents of that decoder,
// each rejected here as a bad request: bytes other than whitespace after the
// top-level object (json.Decoder stops reading after one value), a top-level
// key that only case-folds to "rows" (it decodes into the rows field), and a
// repeated top-level "rows" (the second array merges into the first's maps).
// Other top-level keys are validated and skipped; a top-level null is a body
// with no rows.
func (d *rowsDecoder) scan() error {
	d.ws()
	switch {
	case d.literal("null"): // encoding/json leaves the rows nil: no rows
	case d.peek() == '{':
		seenRows := false
		err := d.members(func(key []byte) error {
			switch {
			case string(key) == "rows":
				if seenRows {
					return fmt.Errorf("%w: repeated top-level \"rows\"", ErrBadRequest)
				}
				seenRows = true
				return d.scanRows()
			case bytes.EqualFold(key, []byte("rows")):
				return fmt.Errorf("%w: top-level key %q: the rows key is \"rows\"", ErrBadRequest, key)
			}
			_, err := d.value(1)
			return err
		})
		if err != nil {
			return err
		}
	default:
		return d.syntaxError("'{'")
	}
	d.ws()
	if d.pos < len(d.b) {
		return fmt.Errorf("%w: %s after the top-level value", ErrBadRequest, d.describe())
	}
	if d.rows == 0 {
		return fmt.Errorf("%w: no rows", ErrBadRequest)
	}
	return nil
}

// scanRows scans the rows array (null is no rows).
func (d *rowsDecoder) scanRows() error {
	d.ws()
	switch {
	case d.literal("null"):
		return nil
	case d.peek() != '[':
		return d.syntaxError("array of rows")
	}
	return d.elements(func() error {
		if d.rows == d.maxRows {
			return fmt.Errorf("%w: over %d rows in one request", ErrOverloaded, d.maxRows)
		}
		return d.scanRow()
	})
}

// scanRow scans one row object (null is a row with every field absent) and
// types its fields' last values into the output columns.
func (d *rowsDecoder) scanRow() error {
	clear(d.last)
	d.ws()
	switch {
	case d.literal("null"): // a nil row map: every field absent
	case d.peek() == '{':
		err := d.members(func(key []byte) error {
			tok, err := d.value(3)
			for j := range d.fields {
				if string(key) == d.fields[j].name {
					d.last[j] = tok
				}
			}
			return err
		})
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("%w: row %d: expected an object, found %s", ErrBadRequest, d.rows, d.describe())
	}
	for j := range d.fields {
		if err := d.set(&d.fields[j], d.last[j]); err != nil {
			return err
		}
	}
	d.rows++
	return nil
}

// set appends value tok to field f for the current row, with the
// conversions encoding/json and json.Number apply: ParseInt for int and time
// columns, ParseFloat for floats, the unquoted literal for strings.
func (d *rowsDecoder) set(f *field, tok token) error {
	if tok.kind == valAbsent || tok.kind == valNull {
		if !f.nullable {
			return fmt.Errorf("%w: row %d is missing %s %q", ErrBadRequest, d.rows, d.what, f.name)
		}
		f.valid = append(f.valid, false)
		switch f.kind {
		case dataframe.KindInt, dataframe.KindTime:
			f.ints = append(f.ints, 0)
		case dataframe.KindFloat:
			f.floats = append(f.floats, 0)
		case dataframe.KindString:
			f.strs = append(f.strs, "")
		case dataframe.KindBool:
			f.bools = append(f.bools, false)
		}
		return nil
	}
	lit := d.b[tok.start:tok.end]
	switch f.kind {
	case dataframe.KindInt, dataframe.KindTime:
		if tok.kind != valNumber {
			return d.kindError(f, "number", tok.kind)
		}
		v, err := strconv.ParseInt(string(lit), 10, 64)
		if err != nil {
			return fmt.Errorf("%w: row %d %s %q: %s is not an integer", ErrBadRequest, d.rows, d.what, f.name, lit)
		}
		f.ints = append(f.ints, v)
	case dataframe.KindFloat:
		if tok.kind != valNumber {
			return d.kindError(f, "number", tok.kind)
		}
		v, err := strconv.ParseFloat(string(lit), 64)
		if err != nil {
			return fmt.Errorf("%w: row %d %s %q: %s is not a number", ErrBadRequest, d.rows, d.what, f.name, lit)
		}
		f.floats = append(f.floats, v)
	case dataframe.KindString:
		if tok.kind != valString {
			return d.kindError(f, "string", tok.kind)
		}
		f.strs = append(f.strs, unquote(lit, tok.clean))
	case dataframe.KindBool:
		if tok.kind != valTrue && tok.kind != valFalse {
			return d.kindError(f, "bool", tok.kind)
		}
		f.bools = append(f.bools, tok.kind == valTrue)
	}
	if f.nullable {
		f.valid = append(f.valid, true)
	}
	return nil
}

func (d *rowsDecoder) kindError(f *field, want string, got valKind) error {
	return fmt.Errorf("%w: row %d %s %q: expected %s, got %s", ErrBadRequest, d.rows, d.what, f.name, want, got)
}

// table assembles the decoded fields into a table, columns in field order.
func (d *rowsDecoder) table() (*dataframe.Table, error) {
	cols := make([]*dataframe.Column, len(d.fields))
	for j := range d.fields {
		f := &d.fields[j]
		switch f.kind {
		case dataframe.KindInt:
			cols[j] = dataframe.NewIntColumn(f.name, f.ints, f.valid)
		case dataframe.KindTime:
			cols[j] = dataframe.NewTimeColumn(f.name, f.ints, f.valid)
		case dataframe.KindFloat:
			cols[j] = dataframe.NewFloatColumn(f.name, f.floats, f.valid)
		case dataframe.KindString:
			cols[j] = dataframe.NewStringColumn(f.name, f.strs, f.valid)
		case dataframe.KindBool:
			cols[j] = dataframe.NewBoolColumn(f.name, f.bools, f.valid)
		}
	}
	return dataframe.NewTable(cols...)
}

// valKind is the kind of one scanned JSON value.
type valKind uint8

const (
	valAbsent valKind = iota // the key did not occur in the row
	valNull
	valFalse
	valTrue
	valNumber
	valString
	valObject
	valArray
)

func (k valKind) String() string {
	return [...]string{"nothing", "null", "bool", "bool", "number", "string", "object", "array"}[k]
}

// token is one scanned value: its kind and its literal's bounds in the body
// (quotes included for strings). clean marks a string literal with no
// backslash and valid UTF-8, whose content is its bytes verbatim.
type token struct {
	kind       valKind
	start, end int
	clean      bool
}

// maxDepth is encoding/json's nesting limit: a body nesting arrays and
// objects deeper fails there, so it fails here.
const maxDepth = 10000

// lexer validates and scans JSON (RFC 8259, as encoding/json's scanner
// reads it) over one request body.
type lexer struct {
	b   []byte
	pos int
}

func (l *lexer) ws() {
	for l.pos < len(l.b) {
		switch l.b[l.pos] {
		case ' ', '\t', '\n', '\r':
			l.pos++
		default:
			return
		}
	}
}

// peek returns the byte at the cursor, or 0 at the end of the body.
func (l *lexer) peek() byte {
	if l.pos < len(l.b) {
		return l.b[l.pos]
	}
	return 0
}

// describe names what is at the cursor, for errors.
func (l *lexer) describe() string {
	if l.pos >= len(l.b) {
		return "end of input"
	}
	return fmt.Sprintf("%q at offset %d", l.b[l.pos], l.pos)
}

func (l *lexer) syntaxError(want string) error {
	return fmt.Errorf("%w: expected %s, found %s", ErrBadRequest, want, l.describe())
}

// literal consumes word if the body continues with it.
func (l *lexer) literal(word string) bool {
	if len(l.b)-l.pos >= len(word) && string(l.b[l.pos:l.pos+len(word)]) == word {
		l.pos += len(word)
		return true
	}
	return false
}

// next consumes the separator after a member or element: ',' (more follow)
// or the container's closing byte.
func (l *lexer) next(closing byte) (more bool, err error) {
	l.ws()
	switch l.peek() {
	case ',':
		l.pos++
		return true, nil
	case closing:
		l.pos++
		return false, nil
	}
	return false, l.syntaxError(fmt.Sprintf("',' or %q", closing))
}

// key scans an object key and its colon, returning the unquoted key. A
// clean key is a view into the body; callers compare it as string(key),
// which does not allocate.
func (l *lexer) key() ([]byte, error) {
	l.ws()
	if l.peek() != '"' {
		return nil, l.syntaxError("object key")
	}
	start := l.pos
	clean, err := l.str()
	if err != nil {
		return nil, err
	}
	lit := l.b[start:l.pos]
	l.ws()
	if l.peek() != ':' {
		return nil, l.syntaxError("':'")
	}
	l.pos++
	if clean {
		return lit[1 : len(lit)-1], nil
	}
	return []byte(unquote(lit, false)), nil
}

// str scans a string literal starting at its opening quote.
func (l *lexer) str() (clean bool, err error) {
	l.pos++ // opening quote
	clean = true
	ascii := true
	start := l.pos
	for l.pos < len(l.b) {
		c := l.b[l.pos]
		switch {
		case c == '"':
			if !ascii && !utf8.Valid(l.b[start:l.pos]) {
				clean = false
			}
			l.pos++
			return clean, nil
		case c == '\\':
			clean = false
			l.pos++
			switch l.peek() {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				l.pos++
			case 'u':
				l.pos++
				for range 4 {
					if !isHex(l.peek()) {
						return false, l.syntaxError("hexadecimal digit in \\u escape")
					}
					l.pos++
				}
			default:
				return false, l.syntaxError("escape character")
			}
		case c < 0x20:
			return false, l.syntaxError("string character")
		default:
			if c >= utf8.RuneSelf {
				ascii = false
			}
			l.pos++
		}
	}
	return false, l.syntaxError("closing quote")
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// number scans a number literal: -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?
func (l *lexer) number() error {
	if l.peek() == '-' {
		l.pos++
	}
	switch c := l.peek(); {
	case c == '0':
		l.pos++
	case '1' <= c && c <= '9':
		l.digits()
	default:
		return l.syntaxError("digit")
	}
	if l.peek() == '.' {
		l.pos++
		if !isDigit(l.peek()) {
			return l.syntaxError("digit after decimal point")
		}
		l.digits()
	}
	if c := l.peek(); c == 'e' || c == 'E' {
		l.pos++
		if c := l.peek(); c == '+' || c == '-' {
			l.pos++
		}
		if !isDigit(l.peek()) {
			return l.syntaxError("digit in exponent")
		}
		l.digits()
	}
	return nil
}

func (l *lexer) digits() {
	for isDigit(l.peek()) {
		l.pos++
	}
}

// value scans any value at the cursor (after whitespace); depth is the
// number of containers already open around it.
func (l *lexer) value(depth int) (token, error) {
	l.ws()
	tok := token{start: l.pos}
	var err error
	switch c := l.peek(); {
	case c == '"':
		tok.kind = valString
		tok.clean, err = l.str()
	case c == '-' || isDigit(c):
		tok.kind = valNumber
		err = l.number()
	case c == '{' || c == '[':
		tok.kind = valObject
		if c == '[' {
			tok.kind = valArray
		}
		err = l.container(depth + 1)
	case l.literal("null"):
		tok.kind = valNull
	case l.literal("true"):
		tok.kind = valTrue
	case l.literal("false"):
		tok.kind = valFalse
	default:
		err = l.syntaxError("value")
	}
	tok.end = l.pos
	return tok, err
}

// container validates and skips the object or array at the cursor, which is
// nesting level depth.
func (l *lexer) container(depth int) error {
	if depth > maxDepth {
		return fmt.Errorf("%w: nesting exceeds %d levels", ErrBadRequest, maxDepth)
	}
	skip := func() error {
		_, err := l.value(depth)
		return err
	}
	if l.peek() == '{' {
		return l.members(func([]byte) error { return skip() })
	}
	return l.elements(skip)
}

// members scans the object at the cursor, calling member with each key and
// the cursor after its colon; member consumes the value.
func (l *lexer) members(member func(key []byte) error) error {
	l.pos++ // '{'
	l.ws()
	if l.peek() == '}' {
		l.pos++
		return nil
	}
	for {
		key, err := l.key()
		if err != nil {
			return err
		}
		if err := member(key); err != nil {
			return err
		}
		more, err := l.next('}')
		if err != nil || !more {
			return err
		}
	}
}

// elements scans the array at the cursor, calling element with the cursor
// at each element; element consumes it.
func (l *lexer) elements(element func() error) error {
	l.pos++ // '['
	l.ws()
	if l.peek() == ']' {
		l.pos++
		return nil
	}
	for {
		if err := element(); err != nil {
			return err
		}
		more, err := l.next(']')
		if err != nil || !more {
			return err
		}
	}
}

// unquote returns the content of a scanned string literal: its bytes verbatim
// when clean, else encoding/json's reading of it (escapes resolved, invalid
// UTF-8 replaced by U+FFFD).
func unquote(lit []byte, clean bool) string {
	if clean {
		return string(lit[1 : len(lit)-1])
	}
	var s string
	// lit is a string literal the lexer has validated; Unmarshal cannot fail.
	_ = json.Unmarshal(lit, &s)
	return s
}

// appendResponse is the wire shape of an append result.
type appendResponse struct {
	Plan      string `json:"plan"`
	Appended  int    `json:"appended"`
	Epoch     uint64 `json:"epoch"`
	TableRows int    `json:"table_rows"`
}

// responseLayout is the constant part of one plan state's transform
// responses: everything but the feature values and the coalesced flag.
type responseLayout struct {
	// head is `{"plan":…,"version":…,"features":[…],"rows":[`.
	head []byte
	// members are a row object's members in encoding/json's map order:
	// sorted by feature name, one per distinct name.
	members []member
}

// member is one row-object member: its `"name":` prefix and the matrix
// column its value comes from — the last column of that name, as a map
// keyed by feature name holds it.
type member struct {
	name   string
	prefix []byte
	col    int
}

// newResponseLayout precomputes the response parts of a plan state.
func newResponseLayout(plan string, version int64, features []string) *responseLayout {
	// A string and a []string always marshal.
	planJSON, _ := json.Marshal(plan)
	featuresJSON, _ := json.Marshal(features)
	l := &responseLayout{}
	l.head = append(l.head, `{"plan":`...)
	l.head = append(l.head, planJSON...)
	l.head = append(l.head, `,"version":`...)
	l.head = strconv.AppendInt(l.head, version, 10)
	l.head = append(l.head, `,"features":`...)
	l.head = append(l.head, featuresJSON...)
	l.head = append(l.head, `,"rows":[`...)

	lastCol := make(map[string]int, len(features))
	for j, f := range features {
		lastCol[f] = j
	}
	for name, j := range lastCol {
		prefix, _ := json.Marshal(name)
		l.members = append(l.members, member{name: name, prefix: append(prefix, ':'), col: j})
	}
	slices.SortFunc(l.members, func(a, b member) int { return strings.Compare(a.name, b.name) })
	return l
}

// encode appends a transform response for m to a fresh buffer: the bytes
// json.Encoder writes for the reflection codec's response, trailing newline
// included. A valid non-finite value, which JSON cannot carry, fails the
// whole response before anything is written.
func (l *responseLayout) encode(m *query.FeatureMatrix, coalesced bool) ([]byte, error) {
	size, err := l.size(m)
	if err != nil {
		return nil, err
	}
	n := m.NumRows()
	b := make([]byte, 0, size)
	b = append(b, l.head...)
	for i := 0; i < n; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '{')
		for k, mb := range l.members {
			if k > 0 {
				b = append(b, ',')
			}
			b = append(b, mb.prefix...)
			vals, valid := m.Col(mb.col)
			if !valid[i] {
				b = append(b, "null"...)
				continue
			}
			b = appendFloat(b, vals[i])
		}
		b = append(b, '}')
	}
	if coalesced {
		b = append(b, `],"coalesced":true}`+"\n"...)
	} else {
		b = append(b, `],"coalesced":false}`+"\n"...)
	}
	return b, nil
}

// size bounds from above the bytes encode writes for m, so the response is
// written into one allocation without over-reserving for short values. It
// fails on the first valid non-finite value in row order, as encode's
// output would reach it.
func (l *responseLayout) size(m *query.FeatureMatrix) (int, error) {
	n := m.NumRows()
	// Braces, commas between members, and a comma after every row (one
	// more than encode writes).
	perRow := 2 + len(l.members)
	for _, mb := range l.members {
		perRow += len(mb.prefix)
	}
	size := len(l.head) + n*perRow + len(`],"coalesced":false}`+"\n")
	badRow, badK := n, 0
	for k, mb := range l.members {
		vals, valid := m.Col(mb.col)
		for i, v := range vals {
			switch {
			case !valid[i]:
				size += len("null")
			case math.IsInf(v, 0) || math.IsNaN(v):
				if i < badRow {
					badRow, badK = i, k
				}
			default:
				size += floatLen(v)
			}
		}
	}
	if badRow < n {
		v, _ := m.Col(l.members[badK].col)
		return 0, fmt.Errorf("serve: feature %q of row %d is %v, which JSON cannot carry", l.members[badK].name, badRow, v[badRow])
	}
	return size, nil
}

// floatLen bounds from above the bytes appendFloat writes for a finite f,
// from its bits alone: a sign and the digits of 2^(e+1)-1 for an integral
// |f| in [2^e, 2^(e+1)) below 2^53 (at most one byte over); otherwise a sign
// and at most 17 significant digits, with a point for a fraction above 1,
// or with leading zeros or an exponent below 1 or from 2^53.
func floatLen(f float64) int {
	b := math.Float64bits(f)
	sign := int(b >> 63)
	e := int(b>>52&0x7ff) - 1023
	switch {
	case b<<1 == 0: // ±0
		return 1 + sign
	case e < 0 || e > 52:
		return 25
	case b&(1<<(52-e)-1) != 0: // bits below the point
		return 19
	}
	return (e+1)*1233>>12 + 1 + sign // 1233/4096 ≈ log10(2)
}

// appendFloat appends a finite f as encoding/json writes a float64: the
// shortest round-trip digits, in 'e' form below 1e-6 and from 1e21 in
// magnitude, with a one-digit negative exponent unpadded (e-7, not e-07).
// Integral values below 2^53 in magnitude — every integer there is a float64,
// so its shortest digits are its exact decimal ones — are written as
// integers, except -0, which encoding/json writes as "-0".
func appendFloat(b []byte, f float64) []byte {
	abs := math.Abs(f)
	if abs < 1<<53 && f == math.Trunc(f) && (f != 0 || !math.Signbit(f)) {
		return strconv.AppendInt(b, int64(f), 10)
	}
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}
