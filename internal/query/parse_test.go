package query

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/agg"
)

// paperExampleSQL is the paper's Figure 1 query.
const paperExampleSQL = `SELECT cname, AVG(pprice) AS avgprice FROM User_Logs ` +
	`WHERE department = "Electronics" AND timestamp >= 2023-07-01 GROUP BY cname`

// variantSQL parses; errorSQL must not. Both seed FuzzParseSQL.
var (
	variantSQL = []string{
		`SELECT k, COUNT(x) AS feature FROM r GROUP BY k`,
		`SELECT k, SUM(x) FROM r WHERE flag = true GROUP BY k`,
		`SELECT k, MAX(x) FROM r WHERE a = 'v' AND b <= 10 GROUP BY k`,
		`SELECT k, MIN(x) FROM r WHERE t BETWEEN 1 AND 5 GROUP BY k`,
		`SELECT u, m, COUNT_DISTINCT(x) FROM r GROUP BY u, m`,
		`select k, avg(x) from r group by k`, // case-insensitive keywords
		`SELECT user_id, merchant_id, SUM(price) FROM logs GROUP BY user_id, merchant_id`,
		`SELECT k, SUM(x) FROM r WHERE t >= 2023-07-01T00:00:00Z GROUP BY k`,
		`SELECT k, SUM(x) FROM r WHERE t <= "42.5" GROUP BY k`,
		`SELECT k, SUM(x) FROM r WHERE s = "say \"hi\"\n" AND u = 'it"s' GROUP BY k`,
	}
	errorSQL = []string{
		``,
		`UPDATE r SET x = 1`,
		`SELECT k, NOPE(x) FROM r GROUP BY k`,
		`SELECT k, SUM(x FROM r GROUP BY k`,
		`SELECT k, SUM(x) FROM r WHERE a ~ 1 GROUP BY k`,
		`SELECT k, SUM(x) FROM r WHERE a = unquoted GROUP BY k`,
		`SELECT k, SUM(x) FROM r WHERE a >= notanumber GROUP BY k`,
		`SELECT k, SUM(x) FROM r WHERE t BETWEEN 5 AND 1 GROUP BY k`,
		`SELECT k, SUM(x) FROM r WHERE t BETWEEN 1 OR 5 GROUP BY k`,
		`SELECT k, SUM(x) FROM r GROUP BY`,
		`SELECT k, SUM(x) FROM r GROUP BY other`,
		`SELECT k, SUM(x) FROM r`,
		`SELECT k, SUM(x) FROM r WHERE a = "bad \q escape" GROUP BY k`,
		`SELECT k, SUM(x) FROM r WHERE a = "unterminated GROUP BY k`,
		`SELECT SUM(x) FROM r GROUP BY "k`,
		`SELECT k, SUM(x) FROM ( GROUP BY k`,
	}
)

func TestParseSQLPaperExample(t *testing.T) {
	q, rel, err := ParseSQL(paperExampleSQL)
	if err != nil {
		t.Fatal(err)
	}
	if rel != "User_Logs" {
		t.Fatalf("rel = %s", rel)
	}
	if q.Agg != agg.Avg || q.AggAttr != "pprice" {
		t.Fatalf("agg = %s(%s)", q.Agg, q.AggAttr)
	}
	if len(q.Keys) != 1 || q.Keys[0] != "cname" {
		t.Fatalf("keys = %v", q.Keys)
	}
	if len(q.Preds) != 2 {
		t.Fatalf("preds = %v", q.Preds)
	}
	if q.Preds[0].Kind != PredEq || q.Preds[0].StrValue != "Electronics" {
		t.Fatalf("pred0 = %+v", q.Preds[0])
	}
	if q.Preds[1].Kind != PredRange || !q.Preds[1].HasLo || q.Preds[1].HasHi {
		t.Fatalf("pred1 = %+v", q.Preds[1])
	}
	// 2023-07-01 → unix seconds
	if q.Preds[1].Lo != 1688169600 {
		t.Fatalf("date bound = %v", q.Preds[1].Lo)
	}
}

func TestParseSQLVariants(t *testing.T) {
	for _, sql := range variantSQL {
		if _, _, err := ParseSQL(sql); err != nil {
			t.Errorf("%s: %v", sql, err)
		}
	}
}

func TestParseSQLCompositeKeys(t *testing.T) {
	q, _, err := ParseSQL(`SELECT user_id, merchant_id, SUM(price) FROM logs GROUP BY user_id, merchant_id`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Keys) != 2 || q.Keys[0] != "user_id" || q.Keys[1] != "merchant_id" {
		t.Fatalf("keys = %v", q.Keys)
	}
}

func TestParseSQLErrors(t *testing.T) {
	for _, sql := range errorSQL {
		if _, _, err := ParseSQL(sql); err == nil {
			t.Errorf("%q should fail", sql)
		}
	}
}

// TestParseSQLQuotedValues: Query.SQL renders string operands as Go string
// literals, and ParseSQL reads them back exactly — quotes, backslashes and
// control characters included — while single-quoted operands stay verbatim.
func TestParseSQLQuotedValues(t *testing.T) {
	for _, v := range []string{`say "hi"`, `C:\dir`, "tab\there\n", "\x00", `it's`} {
		orig := Query{Agg: agg.Count, AggAttr: "x", Keys: []string{"k"},
			Preds: []Predicate{{Attr: "s", Kind: PredEq, StrValue: v}}}
		q, _, err := ParseSQL(orig.SQL("r"))
		if err != nil {
			t.Fatalf("%q: %v", v, err)
		}
		if got := q.Preds[0].StrValue; got != v {
			t.Errorf("operand %q re-parses as %q", v, got)
		}
	}
	q, _, err := ParseSQL(`SELECT k, SUM(x) FROM r WHERE s = 'a\"b' GROUP BY k`)
	if err != nil {
		t.Fatal(err)
	}
	if got := q.Preds[0].StrValue; got != `a\"b` {
		t.Errorf("single-quoted operand = %q, want verbatim", got)
	}
}

func TestParseSQLBoundFormats(t *testing.T) {
	q, _, err := ParseSQL(`SELECT k, SUM(x) FROM r WHERE t >= 2023-07-01T00:00:00Z GROUP BY k`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Preds[0].Lo != 1688169600 {
		t.Fatalf("RFC3339 bound = %v", q.Preds[0].Lo)
	}
	q, _, err = ParseSQL(`SELECT k, SUM(x) FROM r WHERE t <= "42.5" GROUP BY k`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Preds[0].Hi != 42.5 {
		t.Fatalf("quoted numeric bound = %v", q.Preds[0].Hi)
	}
}

// TestParseSQLRoundTrip: rendering a parsed query reproduces the parse, and
// every randomly decoded query survives SQL → ParseSQL → SQL.
func TestParseSQLRoundTrip(t *testing.T) {
	r := userLogs()
	s, err := BuildSpace(r, exampleTemplate(), SpaceOptions{NumGridPoints: 4})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	count := 0
	f := func(seed int64) bool {
		vec := s.RandomVector(rng.Intn)
		q, err := s.Decode(vec)
		if err != nil {
			return false
		}
		sql := q.SQL("logs")
		parsed, rel, err := ParseSQL(sql)
		if err != nil {
			t.Logf("parse failed for %s: %v", sql, err)
			return false
		}
		count++
		return rel == "logs" && parsed.SQL("logs") == sql
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
	if count == 0 {
		t.Fatal("no round trips exercised")
	}
}

func TestParsedQueryExecutesLikeOriginal(t *testing.T) {
	r := userLogs()
	orig := Query{
		Agg:     agg.Avg,
		AggAttr: "pprice",
		Preds: []Predicate{
			{Attr: "department", Kind: PredEq, StrValue: "Electronics"},
			{Attr: "timestamp", Kind: PredRange, HasLo: true, Lo: 200},
		},
		Keys: []string{"cname"},
	}
	parsed, _, err := ParseSQL(orig.SQL("logs"))
	if err != nil {
		t.Fatal(err)
	}
	a, err := orig.Execute(r, "f")
	if err != nil {
		t.Fatal(err)
	}
	b, err := parsed.Execute(r, "f")
	if err != nil {
		t.Fatal(err)
	}
	if a.NumRows() != b.NumRows() {
		t.Fatalf("row counts differ: %d vs %d", a.NumRows(), b.NumRows())
	}
	for i := 0; i < a.NumRows(); i++ {
		if a.Column("f").Float(i) != b.Column("f").Float(i) {
			t.Fatal("parsed query computes different feature")
		}
	}
}

func TestTokenize(t *testing.T) {
	toks := tokenize(`SELECT a, SUM(x) FROM r WHERE s = "hello world" AND t >= 5`)
	want := []string{"SELECT", "a", ",", "SUM", "(", "x", ")", "FROM", "r",
		"WHERE", "s", "=", `"hello world"`, "AND", "t", ">=", "5"}
	if len(toks) != len(want) {
		t.Fatalf("toks = %v", toks)
	}
	for i := range want {
		if toks[i] != want[i] {
			t.Fatalf("tok %d = %q, want %q", i, toks[i], want[i])
		}
	}
	// unterminated quote consumes to end without panicking
	toks = tokenize(`a = "unterminated`)
	if len(toks) != 3 {
		t.Fatalf("unterminated toks = %v", toks)
	}
	// bare < and > tokens
	toks = tokenize(`a < b > c`)
	if toks[1] != "<" || toks[3] != ">" {
		t.Fatalf("bare comparison toks = %v", toks)
	}
}

// FuzzParseSQL: ParseSQL never panics, and any query it accepts renders
// (Query.SQL) to text that parses back to the same relation and renders
// identically again — render is a fixed point of parse→render.
func FuzzParseSQL(f *testing.F) {
	f.Add(paperExampleSQL)
	for _, sql := range append(append([]string(nil), variantSQL...), errorSQL...) {
		f.Add(sql)
	}
	f.Add(`SELECT k, SUM(x) FROM r WHERE s = "hello world" AND t >= 5 GROUP BY k`)
	f.Fuzz(func(t *testing.T, sql string) {
		q, rel, err := ParseSQL(sql)
		if err != nil {
			return
		}
		out := q.SQL(rel)
		q2, rel2, err := ParseSQL(out)
		if err != nil {
			t.Fatalf("rendered %q does not parse: %v", out, err)
		}
		if rel2 != rel {
			t.Fatalf("relation %q re-parses as %q from %q", rel, rel2, out)
		}
		if again := q2.SQL(rel2); again != out {
			t.Fatalf("render is not a fixed point:\n%s\n%s", out, again)
		}
	})
}
