package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"repro/internal/dataframe"
	"repro/internal/query"
)

// MaxBodyBytes caps every request body the server reads: transform keys,
// append rows and swapped plan JSON. A body over the cap fails with
// ErrBodyTooLarge (413) as soon as the read crosses it, before anything is
// decoded into tables. 8 MiB is far above any body the row budgets admit
// (DefaultMaxInflightRows key rows are well under 1 MiB of JSON).
const MaxBodyBytes = 8 << 20

// limitBody caps r's body at MaxBodyBytes.
func limitBody(w http.ResponseWriter, r *http.Request) io.Reader {
	return http.MaxBytesReader(w, r.Body, MaxBodyBytes)
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

// transformRequest is the wire shape of POST /v1/plans/{name}/transform:
// one JSON object per entity row, carrying the plan's join keys.
type transformRequest struct {
	Rows []map[string]any `json:"rows"`
}

// decodeRows parses a transform request body into a typed key table matching
// spec. Every row must carry every key with a value of the column's kind
// (integral JSON numbers for int and time keys); anything else fails with
// ErrBadRequest. The returned table has len(request rows) rows.
func decodeRows(r io.Reader, spec []keyCol) (*dataframe.Table, error) {
	dec := json.NewDecoder(r)
	dec.UseNumber()
	var req transformRequest
	if err := dec.Decode(&req); err != nil {
		return nil, bodyError("decoding transform rows", err)
	}
	return rowsToTable(req.Rows, spec)
}

// rowsToTable types the decoded rows into a dataframe.Table under spec.
func rowsToTable(rows []map[string]any, spec []keyCol) (*dataframe.Table, error) {
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
				num, err := keyNumber(row, i, kc.name)
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
				num, err := keyNumber(row, i, kc.name)
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
				v, err := keyValue(row, i, kc.name)
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
				v, err := keyValue(row, i, kc.name)
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

func keyValue(row map[string]any, i int, name string) (any, error) {
	v, ok := row[name]
	if !ok || v == nil {
		return nil, fmt.Errorf("%w: row %d is missing key %q", ErrBadRequest, i, name)
	}
	return v, nil
}

func keyNumber(row map[string]any, i int, name string) (json.Number, error) {
	v, err := keyValue(row, i, name)
	if err != nil {
		return "", err
	}
	num, ok := v.(json.Number)
	if !ok {
		return "", fmt.Errorf("%w: row %d key %q: expected number, got %T", ErrBadRequest, i, name, v)
	}
	return num, nil
}

// decodeAppendRows parses an append request body — the same rows-of-objects
// shape as transform, but over the relevant table's FULL schema — into a batch
// table matching t's columns. A missing or JSON-null value becomes a NULL;
// present values must match the column's kind (integral JSON numbers for int
// and time columns). The batch is what Table.AppendRows accepts.
func decodeAppendRows(r io.Reader, t *dataframe.Table) (*dataframe.Table, error) {
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

// appendResponse is the wire shape of an append result.
type appendResponse struct {
	Plan      string `json:"plan"`
	Appended  int    `json:"appended"`
	Epoch     uint64 `json:"epoch"`
	TableRows int    `json:"table_rows"`
}

// transformResponse is the wire shape of a transform result: one object per
// request row mapping feature name to value, null on join miss / NULL
// aggregate. Coalesced reports whether the rows were served from a fused
// multi-request pass.
type transformResponse struct {
	Plan      string                `json:"plan"`
	Version   int64                 `json:"version"`
	Features  []string              `json:"features"`
	Rows      []map[string]*float64 `json:"rows"`
	Coalesced bool                  `json:"coalesced"`
}

// encodeMatrix shapes a waiter's FeatureMatrix slice into response rows.
func encodeMatrix(m *query.FeatureMatrix, features []string) []map[string]*float64 {
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
