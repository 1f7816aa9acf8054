// Package relschema models multi-table relational schemas and reduces them
// to the one-training-table / one-relevant-table scenario FeatAug operates
// on, following Section III of the paper:
//
//   - Deep-layer relationships (D → R1 → R2 → ...) are flattened by joining
//     the chain into one relevant table ("it can be represented by the
//     aforementioned scenario by joining all the tables into one relevant
//     table").
//   - Many-to-one side tables (dimension tables) are joined directly into
//     the fact table they describe.
//   - Many-to-many relationships decompose into a many-to-one join followed
//     by the remaining one-to-many edge.
//   - Multiple relevant tables become multiple one-to-many scenarios
//     ("it can be represented by multiple scenarios with one base table and
//     one relevant table").
package relschema

import (
	"fmt"

	"repro/internal/dataframe"
)

// Cardinality describes the direction of a relationship edge from parent to
// child.
type Cardinality int

// Relationship cardinalities.
const (
	// OneToMany: one parent row matches many child rows (training table →
	// log table). The child is a relevant table for the parent.
	OneToMany Cardinality = iota
	// ManyToOne: many child rows reference one parent row (log table →
	// dimension table). The parent's columns can be joined straight into
	// the child.
	ManyToOne
	// OneToOne: a direct extension table.
	OneToOne
)

// String names the cardinality.
func (c Cardinality) String() string {
	switch c {
	case OneToMany:
		return "1:N"
	case ManyToOne:
		return "N:1"
	case OneToOne:
		return "1:1"
	}
	return fmt.Sprintf("Cardinality(%d)", int(c))
}

// Relationship is one foreign-key edge between two named tables.
type Relationship struct {
	// From and To are table names registered in the schema.
	From, To string
	// FromKeys/ToKeys are the equi-join columns (positional pairing).
	FromKeys, ToKeys []string
	// Card is the cardinality of the edge read From → To.
	Card Cardinality
}

// Schema is a set of named tables plus relationship edges.
type Schema struct {
	tables map[string]*dataframe.Table
	order  []string
	edges  []Relationship
}

// NewSchema builds an empty schema.
func NewSchema() *Schema {
	return &Schema{tables: map[string]*dataframe.Table{}}
}

// AddTable registers a table under a unique name.
func (s *Schema) AddTable(name string, t *dataframe.Table) error {
	if name == "" {
		return fmt.Errorf("relschema: empty table name")
	}
	if t == nil {
		return fmt.Errorf("relschema: nil table %q", name)
	}
	if _, ok := s.tables[name]; ok {
		return fmt.Errorf("relschema: duplicate table %q", name)
	}
	s.tables[name] = t
	s.order = append(s.order, name)
	return nil
}

// Table returns a registered table or nil.
func (s *Schema) Table(name string) *dataframe.Table { return s.tables[name] }

// TableNames returns registration order.
func (s *Schema) TableNames() []string { return append([]string(nil), s.order...) }

// AddRelationship registers an edge after validating both endpoints.
func (s *Schema) AddRelationship(r Relationship) error {
	from, ok := s.tables[r.From]
	if !ok {
		return fmt.Errorf("relschema: unknown table %q", r.From)
	}
	to, ok := s.tables[r.To]
	if !ok {
		return fmt.Errorf("relschema: unknown table %q", r.To)
	}
	if len(r.FromKeys) == 0 || len(r.FromKeys) != len(r.ToKeys) {
		return fmt.Errorf("relschema: bad key lists for %s→%s", r.From, r.To)
	}
	for i := range r.FromKeys {
		if !from.HasColumn(r.FromKeys[i]) {
			return fmt.Errorf("relschema: %s has no column %q", r.From, r.FromKeys[i])
		}
		if !to.HasColumn(r.ToKeys[i]) {
			return fmt.Errorf("relschema: %s has no column %q", r.To, r.ToKeys[i])
		}
	}
	s.edges = append(s.edges, r)
	return nil
}

// Relationships returns the registered edges.
func (s *Schema) Relationships() []Relationship { return append([]Relationship(nil), s.edges...) }

// childrenOf returns the one-to-many edges out of a table.
func (s *Schema) childrenOf(name string) []Relationship {
	var out []Relationship
	for _, e := range s.edges {
		if e.From == name && e.Card == OneToMany {
			out = append(out, e)
		}
	}
	return out
}

// dimensionEdges returns the many-to-one / one-to-one edges out of a table
// (the tables whose columns can be folded into it).
func (s *Schema) dimensionEdges(name string) []Relationship {
	var out []Relationship
	for _, e := range s.edges {
		if e.From == name && (e.Card == ManyToOne || e.Card == OneToOne) {
			out = append(out, e)
		}
	}
	return out
}

// RelevantTable is one flattened one-to-many scenario rooted at the training
// table: the relevant table plus the foreign key joining it back to the
// training table.
type RelevantTable struct {
	// Name identifies the scenario (the child chain, e.g. "orders>products").
	Name string
	// Table is the flattened relevant table.
	Table *dataframe.Table
	// Keys are the foreign-key columns (named as they appear in both the
	// training table and the flattened relevant table).
	Keys []string
}

// Flatten reduces the schema to one-to-many scenarios for a training table:
// every 1:N child of root becomes one relevant table, with (a) its own N:1 /
// 1:1 dimension tables folded in by direct joins and (b) deeper 1:N
// descendants flattened recursively into the same table (the deep-layer
// join). The result is what FeatAug's Problem.Relevant expects.
func (s *Schema) Flatten(root string) ([]RelevantTable, error) {
	rootTbl, ok := s.tables[root]
	if !ok {
		return nil, fmt.Errorf("relschema: unknown root table %q", root)
	}
	_ = rootTbl
	var out []RelevantTable
	for _, edge := range s.childrenOf(root) {
		flat, err := s.flattenChain(edge.To, map[string]bool{root: true})
		if err != nil {
			return nil, err
		}
		// The relevant table joins back to the training table on the child's
		// key columns; rename them to the root's names when they differ so
		// Problem.Keys reads uniformly.
		for i := range edge.ToKeys {
			if edge.ToKeys[i] != edge.FromKeys[i] {
				col := flat.Column(edge.ToKeys[i])
				if col == nil {
					return nil, fmt.Errorf("relschema: flattened %q lost key %q", edge.To, edge.ToKeys[i])
				}
				renamed := col.Rename(edge.FromKeys[i])
				flat.DropColumn(edge.ToKeys[i])
				if err := flat.AddColumn(renamed); err != nil {
					return nil, err
				}
			}
		}
		out = append(out, RelevantTable{
			Name:  edge.To,
			Table: flat,
			Keys:  append([]string(nil), edge.FromKeys...),
		})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("relschema: table %q has no one-to-many children", root)
	}
	return out, nil
}

// flattenChain folds a table's dimension tables and deep 1:N descendants
// into a single table.
func (s *Schema) flattenChain(name string, visited map[string]bool) (*dataframe.Table, error) {
	if visited[name] {
		return nil, fmt.Errorf("relschema: cycle through table %q", name)
	}
	visited[name] = true
	defer delete(visited, name)

	cur := s.tables[name].Clone()
	// Fold dimension tables (N:1 / 1:1): join their columns in directly.
	for _, e := range s.dimensionEdges(name) {
		dim, err := s.flattenChain(e.To, visited)
		if err != nil {
			return nil, err
		}
		cur, err = cur.LeftJoin(dim, e.FromKeys, e.ToKeys)
		if err != nil {
			return nil, fmt.Errorf("relschema: fold %s into %s: %w", e.To, name, err)
		}
	}
	// Deep-layer 1:N descendants: the paper joins the chain into one
	// relevant table, which multiplies rows — implemented as a left join
	// from the child side back onto this table so every child row appears
	// once with its ancestor columns attached.
	for _, e := range s.childrenOf(name) {
		child, err := s.flattenChain(e.To, visited)
		if err != nil {
			return nil, err
		}
		joined, err := child.LeftJoin(cur, e.ToKeys, e.FromKeys)
		if err != nil {
			return nil, fmt.Errorf("relschema: flatten %s under %s: %w", e.To, name, err)
		}
		cur = joined
	}
	return cur, nil
}
