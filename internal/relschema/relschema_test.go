package relschema

import (
	"testing"

	"repro/internal/dataframe"
)

// instacartLike builds the paper's Instacart shape: users (training) →
// orders (1:N) → products (N:1) → departments (N:1).
func instacartLike(t *testing.T) *Schema {
	t.Helper()
	users := dataframe.MustNewTable(
		dataframe.NewIntColumn("user_id", []int64{1, 2}, nil),
		dataframe.NewIntColumn("label", []int64{1, 0}, nil),
	)
	orders := dataframe.MustNewTable(
		dataframe.NewIntColumn("uid", []int64{1, 1, 2}, nil),
		dataframe.NewIntColumn("product_id", []int64{10, 11, 10}, nil),
		dataframe.NewFloatColumn("qty", []float64{2, 1, 5}, nil),
	)
	products := dataframe.MustNewTable(
		dataframe.NewIntColumn("product_id", []int64{10, 11}, nil),
		dataframe.NewStringColumn("pname", []string{"banana", "milk"}, nil),
		dataframe.NewIntColumn("dept_id", []int64{100, 101}, nil),
	)
	departments := dataframe.MustNewTable(
		dataframe.NewIntColumn("dept_id", []int64{100, 101}, nil),
		dataframe.NewStringColumn("dname", []string{"produce", "dairy"}, nil),
	)
	s := NewSchema()
	for name, tbl := range map[string]*dataframe.Table{
		"users": users, "orders": orders, "products": products, "departments": departments,
	} {
		if err := s.AddTable(name, tbl); err != nil {
			t.Fatal(err)
		}
	}
	mustAdd := func(r Relationship) {
		t.Helper()
		if err := s.AddRelationship(r); err != nil {
			t.Fatal(err)
		}
	}
	mustAdd(Relationship{From: "users", To: "orders", FromKeys: []string{"user_id"}, ToKeys: []string{"uid"}, Card: OneToMany})
	mustAdd(Relationship{From: "orders", To: "products", FromKeys: []string{"product_id"}, ToKeys: []string{"product_id"}, Card: ManyToOne})
	mustAdd(Relationship{From: "products", To: "departments", FromKeys: []string{"dept_id"}, ToKeys: []string{"dept_id"}, Card: ManyToOne})
	return s
}

func TestSchemaRegistration(t *testing.T) {
	s := NewSchema()
	tbl := dataframe.MustNewTable(dataframe.NewIntColumn("a", []int64{1}, nil))
	if err := s.AddTable("t", tbl); err != nil {
		t.Fatal(err)
	}
	if err := s.AddTable("t", tbl); err == nil {
		t.Error("duplicate name should fail")
	}
	if err := s.AddTable("", tbl); err == nil {
		t.Error("empty name should fail")
	}
	if err := s.AddTable("nil", nil); err == nil {
		t.Error("nil table should fail")
	}
	if s.Table("t") == nil || s.Table("ghost") != nil {
		t.Error("Table lookup broken")
	}
	if len(s.TableNames()) != 1 {
		t.Error("TableNames wrong")
	}
}

func TestAddRelationshipValidation(t *testing.T) {
	s := instacartLike(t)
	cases := []Relationship{
		{From: "ghost", To: "orders", FromKeys: []string{"x"}, ToKeys: []string{"x"}},
		{From: "users", To: "ghost", FromKeys: []string{"x"}, ToKeys: []string{"x"}},
		{From: "users", To: "orders", FromKeys: nil, ToKeys: nil},
		{From: "users", To: "orders", FromKeys: []string{"a", "b"}, ToKeys: []string{"c"}},
		{From: "users", To: "orders", FromKeys: []string{"ghost"}, ToKeys: []string{"uid"}},
		{From: "users", To: "orders", FromKeys: []string{"user_id"}, ToKeys: []string{"ghost"}},
	}
	for i, r := range cases {
		if err := s.AddRelationship(r); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
	if len(s.Relationships()) != 3 {
		t.Errorf("edges = %d", len(s.Relationships()))
	}
}

func TestCardinalityString(t *testing.T) {
	if OneToMany.String() != "1:N" || ManyToOne.String() != "N:1" || OneToOne.String() != "1:1" {
		t.Error("cardinality names wrong")
	}
	if Cardinality(9).String() != "Cardinality(9)" {
		t.Error("unknown cardinality name wrong")
	}
}

func TestFlattenDeepLayer(t *testing.T) {
	s := instacartLike(t)
	rels, err := s.Flatten("users")
	if err != nil {
		t.Fatal(err)
	}
	if len(rels) != 1 {
		t.Fatalf("relevant tables = %d, want 1", len(rels))
	}
	r := rels[0]
	if r.Name != "orders" {
		t.Fatalf("name = %s", r.Name)
	}
	// The flattened table must carry the dimension columns two hops away.
	for _, col := range []string{"qty", "pname", "dname"} {
		if !r.Table.HasColumn(col) {
			t.Fatalf("flattened table missing %q; has %v", col, r.Table.ColumnNames())
		}
	}
	// Keys renamed to the training table's column name.
	if len(r.Keys) != 1 || r.Keys[0] != "user_id" {
		t.Fatalf("keys = %v", r.Keys)
	}
	if !r.Table.HasColumn("user_id") {
		t.Fatal("flattened table missing renamed key")
	}
	// Row multiplicity preserved: 3 order rows.
	if r.Table.NumRows() != 3 {
		t.Fatalf("rows = %d, want 3", r.Table.NumRows())
	}
	// Department of the banana order resolved through the chain.
	dn := r.Table.Column("dname")
	uid := r.Table.Column("user_id")
	found := false
	for i := 0; i < r.Table.NumRows(); i++ {
		if uid.Int(i) == 2 && dn.Str(i) == "produce" {
			found = true
		}
	}
	if !found {
		t.Fatal("deep-layer join lost the user2→banana→produce path")
	}
}

func TestFlattenDeeperOneToManyChain(t *testing.T) {
	// users → sessions (1:N) → events (1:N): the deep 1:N chain must flatten
	// into one relevant table at event granularity with session columns.
	users := dataframe.MustNewTable(dataframe.NewIntColumn("user_id", []int64{1}, nil))
	sessions := dataframe.MustNewTable(
		dataframe.NewIntColumn("session_id", []int64{5, 6}, nil),
		dataframe.NewIntColumn("user_id", []int64{1, 1}, nil),
		dataframe.NewStringColumn("device", []string{"phone", "laptop"}, nil),
	)
	events := dataframe.MustNewTable(
		dataframe.NewIntColumn("session_id", []int64{5, 5, 6}, nil),
		dataframe.NewFloatColumn("dur", []float64{1, 2, 3}, nil),
	)
	s := NewSchema()
	for name, tbl := range map[string]*dataframe.Table{"users": users, "sessions": sessions, "events": events} {
		if err := s.AddTable(name, tbl); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.AddRelationship(Relationship{From: "users", To: "sessions", FromKeys: []string{"user_id"}, ToKeys: []string{"user_id"}, Card: OneToMany}); err != nil {
		t.Fatal(err)
	}
	if err := s.AddRelationship(Relationship{From: "sessions", To: "events", FromKeys: []string{"session_id"}, ToKeys: []string{"session_id"}, Card: OneToMany}); err != nil {
		t.Fatal(err)
	}
	rels, err := s.Flatten("users")
	if err != nil {
		t.Fatal(err)
	}
	r := rels[0]
	if r.Table.NumRows() != 3 {
		t.Fatalf("rows = %d, want event granularity 3", r.Table.NumRows())
	}
	if !r.Table.HasColumn("device") || !r.Table.HasColumn("dur") {
		t.Fatalf("columns = %v", r.Table.ColumnNames())
	}
}

func TestFlattenErrors(t *testing.T) {
	s := instacartLike(t)
	if _, err := s.Flatten("ghost"); err == nil {
		t.Error("unknown root should fail")
	}
	if _, err := s.Flatten("departments"); err == nil {
		t.Error("leaf table has no 1:N children")
	}
}

func TestFlattenDetectsCycles(t *testing.T) {
	a := dataframe.MustNewTable(dataframe.NewIntColumn("k", []int64{1}, nil))
	b := dataframe.MustNewTable(dataframe.NewIntColumn("k", []int64{1}, nil))
	s := NewSchema()
	if err := s.AddTable("a", a); err != nil {
		t.Fatal(err)
	}
	if err := s.AddTable("b", b); err != nil {
		t.Fatal(err)
	}
	for _, r := range []Relationship{
		{From: "a", To: "b", FromKeys: []string{"k"}, ToKeys: []string{"k"}, Card: OneToMany},
		{From: "b", To: "a", FromKeys: []string{"k"}, ToKeys: []string{"k"}, Card: ManyToOne},
		{From: "a", To: "b", FromKeys: []string{"k"}, ToKeys: []string{"k"}, Card: ManyToOne},
	} {
		if err := s.AddRelationship(r); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Flatten("a"); err == nil {
		t.Fatal("cycle should be detected")
	}
}
