package main

import (
	"fmt"

	"repro/internal/dataframe"
	"repro/internal/feataug"
	"repro/internal/query"
)

// entityKey is one entity's join key. Every workload's keys are one or two
// integer columns; a single-key entity leaves the second slot zero.
type entityKey [2]int64

// tableKeys reads the entity key of every row of t.
func tableKeys(t *dataframe.Table, keys []string) ([]entityKey, error) {
	if len(keys) == 0 || len(keys) > 2 {
		return nil, fmt.Errorf("want one or two key columns, got %v", keys)
	}
	out := make([]entityKey, t.NumRows())
	for j, name := range keys {
		c := t.Column(name)
		if c == nil || (c.Kind() != dataframe.KindInt && c.Kind() != dataframe.KindTime) {
			return nil, fmt.Errorf("key column %q missing or not integer", name)
		}
		for i := range out {
			out[i][j] = c.Int(i)
		}
	}
	return out, nil
}

// oracleValue is one entity's expected feature value; ok is false for NULL.
type oracleValue struct {
	v  float64
	ok bool
}

// oracle maps each entity to a query's expected feature value. An entity
// absent from the map has no matching relevant rows and expects NULL.
type oracle map[entityKey]oracleValue

// executeOracle runs the repository's reference implementation,
// Query.Execute, and indexes its result by entity.
func executeOracle(q query.Query, r *dataframe.Table) (oracle, error) {
	res, err := q.Execute(r, "feature")
	if err != nil {
		return nil, err
	}
	keys, err := tableKeys(res, q.Keys)
	if err != nil {
		return nil, err
	}
	vals, valid := res.Column("feature").Floats()
	o := make(oracle, len(keys))
	for i, k := range keys {
		o[k] = oracleValue{v: vals[i], ok: valid[i]}
	}
	return o, nil
}

// check compares one feature column for the given entities with the oracle.
func (o oracle) check(keys []entityKey, vals []float64, valid []bool) error {
	for i, k := range keys {
		want := o[k]
		if valid[i] != want.ok || (want.ok && !closeTo(vals[i], want.v)) {
			return fmt.Errorf("entity %v: got (%v, %v), want (%v, %v)", k, vals[i], valid[i], want.v, want.ok)
		}
	}
	return nil
}

// project maps an entity key over the columns `from` onto the columns `to`,
// a subset: a query may group by fewer keys than the problem joins on.
func project(k entityKey, from, to []string) entityKey {
	var out entityKey
	for j, name := range to {
		for i, f := range from {
			if f == name {
				out[j] = k[i]
			}
		}
	}
	return out
}

// checkRows compares decoded response rows (feature name to value, nil for
// NULL) for the given entities, keyed over keyNames, with the oracles of the
// plan's queries.
func checkRows(keyNames []string, keys []entityKey, rows []map[string]*float64, plan *feataug.FeaturePlan, want []oracle) error {
	if len(rows) != len(keys) {
		return fmt.Errorf("got %d rows, want %d", len(rows), len(keys))
	}
	for j, pq := range plan.Queries {
		f := pq.Feature
		for i, k := range keys {
			exp := want[j][project(k, keyNames, pq.Query.Keys)]
			got, present := rows[i][f]
			if !present || (got != nil) != exp.ok || (got != nil && !closeTo(*got, exp.v)) {
				return fmt.Errorf("row %d feature %s: got %v, want (%v, %v)", i, f, got, exp.v, exp.ok)
			}
		}
	}
	return nil
}
