package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"strings"
	"testing"

	"repro/internal/dataframe"
	"repro/internal/query"
)

// The reference codec below is the reflection codec as it stood before the
// hand-rolled one: requests decoded by encoding/json into
// []map[string]any (UseNumber) and typed row by row, responses built as one
// map per row and written by json.Encoder. It is a test-local oracle, so no
// second codec path lives in the package; the tests below require the
// package's codec to accept the same bodies into the same tables and to
// write the same response bytes.

// transformRequest is the reference wire shape of a transform or append
// request: one JSON object per row.
type transformRequest struct {
	Rows []map[string]any `json:"rows"`
}

// transformResponse is the reference wire shape of a transform result: one
// object per request row mapping feature name to value, null on join miss or
// NULL aggregate.
type transformResponse struct {
	Plan      string                `json:"plan"`
	Version   int64                 `json:"version"`
	Features  []string              `json:"features"`
	Rows      []map[string]*float64 `json:"rows"`
	Coalesced bool                  `json:"coalesced"`
}

// refEncodeMatrix shapes a FeatureMatrix into reference response rows.
func refEncodeMatrix(m *query.FeatureMatrix, features []string) []map[string]*float64 {
	rows := make([]map[string]*float64, m.NumRows())
	for i := range rows {
		rows[i] = make(map[string]*float64, len(features))
	}
	for j, name := range features {
		vals, valid := m.Col(j)
		for i := range rows {
			if valid[i] {
				v := vals[i]
				rows[i][name] = &v
			} else {
				rows[i][name] = nil
			}
		}
	}
	return rows
}

// refDecodeRows is the reference transform-request decoder.
func refDecodeRows(r io.Reader, spec []keyCol) (*dataframe.Table, error) {
	dec := json.NewDecoder(r)
	dec.UseNumber()
	var req transformRequest
	if err := dec.Decode(&req); err != nil {
		return nil, bodyError("decoding transform rows", err)
	}
	return refRowsToTable(req.Rows, spec)
}

func refRowsToTable(rows []map[string]any, spec []keyCol) (*dataframe.Table, error) {
	n := len(rows)
	if n == 0 {
		return nil, fmt.Errorf("%w: no rows", ErrBadRequest)
	}
	cols := make([]*dataframe.Column, len(spec))
	for j, kc := range spec {
		switch kc.kind {
		case dataframe.KindInt, dataframe.KindTime:
			vals := make([]int64, n)
			for i, row := range rows {
				num, err := refKeyNumber(row, i, kc.name)
				if err != nil {
					return nil, err
				}
				v, err := num.Int64()
				if err != nil {
					return nil, fmt.Errorf("%w: row %d key %q: %v is not an integer", ErrBadRequest, i, kc.name, num)
				}
				vals[i] = v
			}
			if kc.kind == dataframe.KindTime {
				cols[j] = dataframe.NewTimeColumn(kc.name, vals, nil)
			} else {
				cols[j] = dataframe.NewIntColumn(kc.name, vals, nil)
			}
		case dataframe.KindFloat:
			vals := make([]float64, n)
			for i, row := range rows {
				num, err := refKeyNumber(row, i, kc.name)
				if err != nil {
					return nil, err
				}
				v, err := num.Float64()
				if err != nil {
					return nil, fmt.Errorf("%w: row %d key %q: %v is not a number", ErrBadRequest, i, kc.name, num)
				}
				vals[i] = v
			}
			cols[j] = dataframe.NewFloatColumn(kc.name, vals, nil)
		case dataframe.KindString:
			vals := make([]string, n)
			for i, row := range rows {
				v, err := refKeyValue(row, i, kc.name)
				if err != nil {
					return nil, err
				}
				s, ok := v.(string)
				if !ok {
					return nil, fmt.Errorf("%w: row %d key %q: expected string, got %T", ErrBadRequest, i, kc.name, v)
				}
				vals[i] = s
			}
			cols[j] = dataframe.NewStringColumn(kc.name, vals, nil)
		case dataframe.KindBool:
			vals := make([]bool, n)
			for i, row := range rows {
				v, err := refKeyValue(row, i, kc.name)
				if err != nil {
					return nil, err
				}
				b, ok := v.(bool)
				if !ok {
					return nil, fmt.Errorf("%w: row %d key %q: expected bool, got %T", ErrBadRequest, i, kc.name, v)
				}
				vals[i] = b
			}
			cols[j] = dataframe.NewBoolColumn(kc.name, vals, nil)
		default:
			return nil, fmt.Errorf("serve: key column %q has unsupported kind %s", kc.name, kc.kind)
		}
	}
	return dataframe.NewTable(cols...)
}

func refKeyValue(row map[string]any, i int, name string) (any, error) {
	v, ok := row[name]
	if !ok || v == nil {
		return nil, fmt.Errorf("%w: row %d is missing key %q", ErrBadRequest, i, name)
	}
	return v, nil
}

func refKeyNumber(row map[string]any, i int, name string) (json.Number, error) {
	v, err := refKeyValue(row, i, name)
	if err != nil {
		return "", err
	}
	num, ok := v.(json.Number)
	if !ok {
		return "", fmt.Errorf("%w: row %d key %q: expected number, got %T", ErrBadRequest, i, name, v)
	}
	return num, nil
}

// refDecodeAppendRows is the reference append-request decoder.
func refDecodeAppendRows(r io.Reader, t *dataframe.Table) (*dataframe.Table, error) {
	dec := json.NewDecoder(r)
	dec.UseNumber()
	var req transformRequest
	if err := dec.Decode(&req); err != nil {
		return nil, bodyError("decoding append rows", err)
	}
	n := len(req.Rows)
	if n == 0 {
		return nil, fmt.Errorf("%w: no rows", ErrBadRequest)
	}
	cols := make([]*dataframe.Column, 0, t.NumCols())
	for _, name := range t.ColumnNames() {
		kind := t.Column(name).Kind()
		valid := make([]bool, n)
		var col *dataframe.Column
		switch kind {
		case dataframe.KindInt, dataframe.KindTime:
			vals := make([]int64, n)
			for i, row := range req.Rows {
				v, ok := row[name]
				if !ok || v == nil {
					continue
				}
				num, ok := v.(json.Number)
				if !ok {
					return nil, fmt.Errorf("%w: row %d column %q: expected number, got %T", ErrBadRequest, i, name, v)
				}
				iv, err := num.Int64()
				if err != nil {
					return nil, fmt.Errorf("%w: row %d column %q: %v is not an integer", ErrBadRequest, i, name, num)
				}
				vals[i], valid[i] = iv, true
			}
			if kind == dataframe.KindTime {
				col = dataframe.NewTimeColumn(name, vals, valid)
			} else {
				col = dataframe.NewIntColumn(name, vals, valid)
			}
		case dataframe.KindFloat:
			vals := make([]float64, n)
			for i, row := range req.Rows {
				v, ok := row[name]
				if !ok || v == nil {
					continue
				}
				num, ok := v.(json.Number)
				if !ok {
					return nil, fmt.Errorf("%w: row %d column %q: expected number, got %T", ErrBadRequest, i, name, v)
				}
				fv, err := num.Float64()
				if err != nil {
					return nil, fmt.Errorf("%w: row %d column %q: %v is not a number", ErrBadRequest, i, name, num)
				}
				vals[i], valid[i] = fv, true
			}
			col = dataframe.NewFloatColumn(name, vals, valid)
		case dataframe.KindString:
			vals := make([]string, n)
			for i, row := range req.Rows {
				v, ok := row[name]
				if !ok || v == nil {
					continue
				}
				sv, ok := v.(string)
				if !ok {
					return nil, fmt.Errorf("%w: row %d column %q: expected string, got %T", ErrBadRequest, i, name, v)
				}
				vals[i], valid[i] = sv, true
			}
			col = dataframe.NewStringColumn(name, vals, valid)
		case dataframe.KindBool:
			vals := make([]bool, n)
			for i, row := range req.Rows {
				v, ok := row[name]
				if !ok || v == nil {
					continue
				}
				bv, ok := v.(bool)
				if !ok {
					return nil, fmt.Errorf("%w: row %d column %q: expected bool, got %T", ErrBadRequest, i, name, v)
				}
				vals[i], valid[i] = bv, true
			}
			col = dataframe.NewBoolColumn(name, vals, valid)
		default:
			return nil, fmt.Errorf("serve: column %q has unsupported kind %s", name, kind)
		}
		cols = append(cols, col)
	}
	return dataframe.NewTable(cols...)
}

// codecSchema is the column set the decoder tests draw from: one column of
// every kind a request can carry.
var codecSchema = []keyCol{
	{name: "uid", kind: dataframe.KindInt},
	{name: "ts", kind: dataframe.KindTime},
	{name: "w", kind: dataframe.KindFloat},
	{name: "tag", kind: dataframe.KindString},
	{name: "ok", kind: dataframe.KindBool},
}

// codecTable is an empty table over codecSchema: the append decoders' schema.
func codecTable() *dataframe.Table {
	return dataframe.MustNewTable(
		dataframe.NewIntColumn("uid", nil, nil),
		dataframe.NewTimeColumn("ts", nil, nil),
		dataframe.NewFloatColumn("w", nil, nil),
		dataframe.NewStringColumn("tag", nil, nil),
		dataframe.NewBoolColumn("ok", nil, nil),
	)
}

// fuzzSpec picks a non-empty subset of codecSchema from one byte.
func fuzzSpec(sel byte) []keyCol {
	mask := int(sel)%31 + 1
	var spec []keyCol
	for j, kc := range codecSchema {
		if mask&(1<<j) != 0 {
			spec = append(spec, kc)
		}
	}
	return spec
}

// codecSeeds are request bodies covering every path of the decoders: valid
// rows of each kind, NULLs, duplicate keys, escapes, invalid UTF-8, number
// edge cases, malformed JSON and the reference decoder's accidents.
var codecSeeds = []string{
	`{"rows":[{"uid":3,"ts":1700000000,"w":1.5,"tag":"x","ok":true}]}`,
	`{"rows":[{"uid":-1,"ts":0,"w":-0,"tag":"","ok":false},{"uid":9007199254740993,"ts":-5,"w":1e-7,"tag":"y","ok":true}]}`,
	` { "rows" : [ { "uid" : 1 , "ts" : 2 , "w" : 3 , "tag" : "t" , "ok" : false } ] } `,
	`{"rows":[{"uid":1,"uid":2,"ts":2,"w":3,"tag":"a","ok":true,"extra":[1,{"a":null}]}]}`,
	`{"rows":[{"uid":"1","uid":1,"ts":2,"w":3,"tag":7,"tag":"b","ok":true}]}`,
	`{"rows":[{"uid":1,"ts":2,"w":3,"tag":"a","ok":true,"uid":null}]}`,
	`{"rows":[null,{"uid":1}]}`,
	`{"rows":[{"uid":1.5}]}`,
	`{"rows":[{"uid":1e3}]}`,
	`{"rows":[{"uid":99999999999999999999}]}`,
	`{"rows":[{"w":1e400}]}`,
	`{"rows":[{"w":4.9e-324,"uid":0,"ts":0,"tag":"z","ok":false}]}`,
	`{"rows":[{"tag":"a\"b\\c\/d\b\f\n\r\té😀","uid":1,"ts":1,"w":1,"ok":true}]}`,
	`{"rows":[{"tag":"\ud800","uid":1,"ts":1,"w":1,"ok":true}]}`,
	"{\"rows\":[{\"tag\":\"\xff\xfe\",\"uid\":1,\"ts\":1,\"w\":1,\"ok\":true}]}",
	"{\"rows\":[{\"t\xffg\":\"a\",\"uid\":1}]}",
	`{"rows":[{"tag":"a","uid":1,"ts":1,"w":1,"ok":true}]}`,
	`{"rows":[{"uid":1,"ts":1,"w":1,"tag":"a","ok":true}]}`,
	`{"meta":{"a":[1,2,{"b":"c"}]},"rows":[{"uid":1,"ts":1,"w":1,"tag":"a","ok":true}],"n":-0.5e+3}`,
	`{"rows":[]}`,
	`{"rows":null}`,
	`null`,
	`{}`,
	`[]`,
	`""`,
	``,
	`   `,
	`{rows:[]}`,
	`{"rows":[{"uid":01}]}`,
	`{"rows":[{"uid":-}]}`,
	`{"rows":[{"uid":1.}]}`,
	`{"rows":[{"uid":1e}]}`,
	`{"rows":[{"uid":1,}]}`,
	`{"rows":[{"uid":1}],}`,
	`{"rows":[{"uid":1}]`,
	`{"rows":[{"uid":tru}]}`,
	`{"rows":[{"tag":"a` + "\x01" + `"}]}`,
	`{"rows":[{"tag":"\x"}]}`,
	`{"rows":[{"tag":"\u12G4"}]}`,
	`{"rows":[1]}`,
	`{"rows":[[{"uid":1}]]}`,
	`{"rows":{"uid":1}}`,
	`{"rows":[{"uid":1,"ts":1,"w":1,"tag":"a","ok":true}]} `,
	`{"rows":[{"uid":1,"ts":1,"w":1,"tag":"a","ok":true}]}x`,
	`{"rows":[{"uid":1,"ts":1,"w":1,"tag":"a","ok":true}]}{"rows":[]}`,
	`{"Rows":[{"uid":1,"ts":1,"w":1,"tag":"a","ok":true}]}`,
	"{\"ROWſ\":[{\"uid\":1,\"ts\":1,\"w\":1,\"tag\":\"a\",\"ok\":true}]}",
	`{"rows":[{"uid":1,"ts":1,"w":1,"tag":"a","ok":true}],"rows":[{"uid":2}]}`,
	`{"rows":[{"uid":"x","ts":1,"w":1,"tag":"a","ok":true}],"rows":[{"uid":2}]}`,
}

// TestDecodeDepthLimit: skipped values nest up to encoding/json's limit of
// maxDepth open containers, counted from the top-level object, and fail one
// level deeper — at the top level and inside a row. (Kept out of the fuzz
// corpus: 20 KB seeds slow the fuzzer down.)
func TestDecodeDepthLimit(t *testing.T) {
	row := `{"uid":1,"ts":1,"w":1,"tag":"a","ok":true`
	nest := func(n int) string { return strings.Repeat("[", n) + strings.Repeat("]", n) }
	bodies := map[string]bool{
		`{"x":` + nest(maxDepth-1) + `,"rows":[` + row + `}]}`: true,
		`{"x":` + nest(maxDepth) + `,"rows":[` + row + `}]}`:   false,
		`{"rows":[` + row + `,"x":` + nest(maxDepth-3) + `}]}`: true,
		`{"rows":[` + row + `,"x":` + nest(maxDepth-2) + `}]}`: false,
	}
	schema := codecTable()
	for body, ok := range bodies {
		got, gerr := decodeAppendRows([]byte(body), schema)
		want, werr := refDecodeAppendRows(strings.NewReader(body), schema)
		if (gerr == nil) != ok || (werr == nil) != ok {
			t.Fatalf("body of %d bytes: error %v, reference error %v, want ok=%v", len(body), gerr, werr, ok)
		}
		checkDecodeMatches(t, []byte(body), got, want, gerr, werr)
	}
}

// refAccident names the accident of encoding/json's decoder that body
// triggers, or "" for none. Each is a body the reference decoder accepts and
// the package's decoder rejects with 400 on purpose:
//   - trailing bytes: json.Decoder reads one value and ignores the rest;
//   - case-folded rows key: "Rows" (or any key bytes.EqualFold to "rows")
//     decodes into the rows field;
//   - repeated rows: a second top-level "rows" array decodes into the first
//     one's slice, merging keys into the row maps it reuses.
func refAccident(body []byte) string {
	dec := json.NewDecoder(bytes.NewReader(body))
	var top json.RawMessage
	if err := dec.Decode(&top); err != nil {
		return ""
	}
	if len(bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n")) > 0 {
		return "trailing bytes"
	}
	td := json.NewDecoder(bytes.NewReader(top))
	if tok, err := td.Token(); err != nil || tok != json.Delim('{') {
		return ""
	}
	rows := 0
	for td.More() {
		tok, err := td.Token()
		if err != nil {
			return ""
		}
		key := tok.(string)
		switch {
		case key == "rows":
			rows++
		case strings.EqualFold(key, "rows"):
			return "case-folded rows key"
		}
		var skip json.RawMessage
		if err := td.Decode(&skip); err != nil {
			return ""
		}
	}
	if rows > 1 {
		return "repeated rows"
	}
	return ""
}

// statusFor is the HTTP status a decode result maps to.
func statusFor(err error) int {
	if err == nil {
		return http.StatusOK
	}
	return statusOf(err)
}

// checkDecodeMatches compares one body's decode by the package (got) and by
// the reference (want): the same status class, and on success equal tables.
func checkDecodeMatches(t *testing.T, body []byte, got, want *dataframe.Table, gerr, werr error) {
	t.Helper()
	gs, ws := statusFor(gerr), statusFor(werr)
	if gs/100 != ws/100 {
		if ws == http.StatusOK && gs == http.StatusBadRequest && refAccident(body) != "" {
			return
		}
		t.Fatalf("body %q: status %d (%v), reference %d (%v)", body, gs, gerr, ws, werr)
	}
	if werr != nil {
		return
	}
	if err := tablesEqual(got, want); err != nil {
		t.Fatalf("body %q: %v", body, err)
	}
}

// tablesEqual reports the first difference between two decoded tables: row
// count, column names and kinds, validity, and values (floats by bits).
func tablesEqual(got, want *dataframe.Table) error {
	if got.NumRows() != want.NumRows() || got.NumCols() != want.NumCols() {
		return fmt.Errorf("shape %dx%d, want %dx%d", got.NumRows(), got.NumCols(), want.NumRows(), want.NumCols())
	}
	for j, wc := range want.Columns() {
		gc := got.Columns()[j]
		if gc.Name() != wc.Name() || gc.Kind() != wc.Kind() {
			return fmt.Errorf("column %d is %s %s, want %s %s", j, gc.Name(), gc.Kind(), wc.Name(), wc.Kind())
		}
		gv, wv := gc.ValidData(), wc.ValidData()
		for i := range wv {
			if gv[i] != wv[i] {
				return fmt.Errorf("column %s row %d valid %v, want %v", wc.Name(), i, gv[i], wv[i])
			}
			var same bool
			switch wc.Kind() {
			case dataframe.KindInt, dataframe.KindTime:
				same = gc.IntData()[i] == wc.IntData()[i]
			case dataframe.KindFloat:
				same = math.Float64bits(gc.FloatData()[i]) == math.Float64bits(wc.FloatData()[i])
			case dataframe.KindString:
				same = gc.StrData()[i] == wc.StrData()[i]
			case dataframe.KindBool:
				same = gc.BoolData()[i] == wc.BoolData()[i]
			}
			if !same {
				return fmt.Errorf("column %s row %d differs", wc.Name(), i)
			}
		}
	}
	return nil
}

// FuzzDecodeTransformRows: for every body and key schema (the first byte
// picks a subset of codecSchema), decodeRows must give the reference
// decoder's status class and, where both accept, the same table. The row cap
// is off here; TestServeRowCap covers it.
func FuzzDecodeTransformRows(f *testing.F) {
	for i, s := range codecSeeds {
		f.Add(append([]byte{byte(i)}, s...))
		f.Add(append([]byte{30}, s...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		spec, body := fuzzSpec(data[0]), data[1:]
		got, gerr := decodeRows(body, spec, math.MaxInt)
		want, werr := refDecodeRows(bytes.NewReader(body), spec)
		checkDecodeMatches(t, body, got, want, gerr, werr)
	})
}

// FuzzDecodeAppendRows: for every body, decodeAppendRows over codecSchema
// must give the reference decoder's status class and, where both accept, the
// same table.
func FuzzDecodeAppendRows(f *testing.F) {
	for _, s := range codecSeeds {
		f.Add([]byte(s))
	}
	schema := codecTable()
	f.Fuzz(func(t *testing.T, body []byte) {
		got, gerr := decodeAppendRows(body, schema)
		want, werr := refDecodeAppendRows(bytes.NewReader(body), schema)
		checkDecodeMatches(t, body, got, want, gerr, werr)
	})
}

// TestEncodeMatchesReference is the response codec's identity property: over
// random matrices, responseLayout.encode writes exactly the bytes
// json.Encoder writes for the reference response — including HTML-escaped
// plan and feature names, floats around encoding/json's 1e-6 and 1e21
// format cutoffs, -0, all-invalid columns, zero rows, duplicate feature
// names (the last column wins, as the reference map kept it), zero features
// and both coalesced flags — and fails exactly when it does (a non-finite
// valid value).
func TestEncodeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	names := []string{"f0", "f1", "sum_dwell", "<b>", "a&b", "x>y", "", "é", " ", "\xff", "dup", "Z", "a"}
	plans := []string{"p", "<plan&co>", "tmall"}
	special := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1.0 / 3, 123456789.125, 1e20, 1e-6, -1e-6,
		math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1), 1e-7, 1.5e-7, 1e21, -1e21,
		math.Nextafter(1e21, 0), math.Nextafter(1e21, 2e21), 1e22, 1e-300, 5e-324,
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, 1e100, 12e-10,
	}
	value := func() float64 {
		if rng.Intn(2) == 0 {
			return special[rng.Intn(len(special))]
		}
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
	}
	for iter := 0; iter < 2000; iter++ {
		k := rng.Intn(7)
		var features []string
		if k > 0 || rng.Intn(2) == 0 {
			features = make([]string, k)
		}
		for j := range features {
			features[j] = names[rng.Intn(len(names))]
		}
		rows := rng.Intn(6)
		m := query.NewFeatureMatrix(rows, k)
		for j := 0; j < k; j++ {
			vals, valid := m.Col(j)
			allInvalid := rng.Intn(6) == 0
			for i := range vals {
				vals[i] = value()
				valid[i] = !allInvalid && rng.Intn(4) != 0
			}
		}
		if iter%50 == 49 && rows > 0 && k > 0 {
			// A non-finite valid value: both codecs must refuse the response.
			vals, valid := m.Col(rng.Intn(k))
			i := rng.Intn(rows)
			vals[i], valid[i] = math.Inf(1-2*rng.Intn(2)), true
		}
		plan, version, coalesced := plans[rng.Intn(len(plans))], rng.Int63n(1<<40), rng.Intn(2) == 0

		got, gerr := newResponseLayout(plan, version, features).encode(m, coalesced)
		var want bytes.Buffer
		werr := json.NewEncoder(&want).Encode(transformResponse{
			Plan: plan, Version: version, Features: features,
			Rows: refEncodeMatrix(m, features), Coalesced: coalesced,
		})
		if (gerr != nil) != (werr != nil) {
			t.Fatalf("iter %d: error %v, reference error %v", iter, gerr, werr)
		}
		if werr == nil && !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("iter %d: response differs from reference\n got: %s\nwant: %s", iter, got, want.Bytes())
		}
	}
}

// TestAppendFloatMatchesEncodingJSON pins appendFloat to encoding/json's
// float64 output at the integral fast path's edges (zero and negative zero,
// ±(2^53-1), ±2^53, 1e15, 1e21), on random integral values of every
// magnitude and on random non-integral ones.
func TestAppendFloatMatchesEncodingJSON(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), 1, -1, 1<<53 - 1, -(1<<53 - 1), 1 << 53, -(1 << 53),
		1<<53 + 2, 1e15, -1e15, 1e21, -1e21, 1e20, 0.5, -0.5, 1e-7}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 2000; i++ {
		v := math.Trunc(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(24))))
		vals = append(vals, v, v+0.25, math.Nextafter(v, math.Inf(1)))
	}
	for _, v := range vals {
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendFloat(nil, v); string(got) != string(want) {
			t.Fatalf("appendFloat(%v) = %s, encoding/json writes %s", v, got, want)
		}
	}
}

// TestFloatLenBoundsAppendFloat checks that floatLen bounds appendFloat's
// output from above at every magnitude and both signs, within one byte on
// the integral fast path, and that encode's buffer never regrows.
func TestFloatLenBoundsAppendFloat(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), 1, -1, 1<<53 - 1, -(1<<53 - 1), 1 << 53, -(1 << 53),
		1<<53 - 0.5, 1 - 1.0/(1<<53), math.Nextafter(1e21, 0), 1e21, -1e21, 1e-6, math.Nextafter(1e-6, 0),
		-math.Nextafter(1e-6, 1), 5e-324, -math.MaxFloat64, 1.0 / 3, -2.0 / 3 * 1e-5}
	rng := rand.New(rand.NewSource(18))
	for i := 0; i < 5000; i++ {
		v := rng.NormFloat64() * math.Pow(10, float64(rng.Intn(600)-300))
		vals = append(vals, v, math.Trunc(v))
	}
	for _, v := range vals {
		got, bound := len(appendFloat(nil, v)), floatLen(v)
		if got > bound || (math.Abs(v) < 1<<53 && v == math.Trunc(v) && bound > got+1) {
			t.Fatalf("floatLen(%v) = %d, appendFloat writes %d bytes", v, bound, got)
		}
	}

	// Every value of the second matrix takes the integral fast path and has
	// as many digits as the bound allows, so the bound overshoots only by the
	// comma after the last row.
	integral := []float64{0, math.Copysign(0, -1), 7, -12, 1<<53 - 1, -1e15, 120, 1000, 1e9}
	l := newResponseLayout("p", 1, []string{"a", "bb", "a"})
	for _, tc := range []struct {
		vals  []float64
		exact bool
	}{{vals, false}, {integral, true}} {
		m := query.NewFeatureMatrix(len(tc.vals)/3, 3)
		copy(m.Vals, tc.vals)
		for i := range m.Valid {
			m.Valid[i] = i%5 != 0
		}
		size, err := l.size(m)
		if err != nil {
			t.Fatal(err)
		}
		b, err := l.encode(m, false)
		if err != nil {
			t.Fatal(err)
		}
		if len(b) > size || cap(b) != size || (tc.exact && len(b) != size-1) {
			t.Fatalf("encode wrote %d bytes into cap %d, size bound %d", len(b), cap(b), size)
		}
	}
}
