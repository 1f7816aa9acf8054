package query

import (
	"fmt"
	"strconv"
	"strings"
	"time"
	"unicode"

	"repro/internal/agg"
)

// ParseSQL parses a predicate-aware SQL query in the paper's canonical form
// (the same dialect Query.SQL renders):
//
//	SELECT k1, k2, AGG(attr) AS feature FROM rel
//	[WHERE pred AND pred ...]
//	GROUP BY k1, k2
//
// with predicates
//
//	attr = "value" | attr = 'value' | attr = true|false
//	attr >= v | attr <= v | attr BETWEEN lo AND hi
//
// where range bounds are numbers, RFC3339 timestamps or YYYY-MM-DD dates
// (converted to unix seconds). A double-quoted value is a Go string literal,
// escapes included (Query.SQL renders values that way); a single-quoted one
// is taken verbatim. Identifiers (keys, attributes, the relation) are bare
// tokens: not quoted, not punctuation or an operator. Returns the query and
// the relation name.
func ParseSQL(sql string) (Query, string, error) {
	p := &sqlParser{toks: tokenize(sql)}
	q, rel, err := p.parse()
	if err != nil {
		return Query{}, "", fmt.Errorf("query: parse %q: %w", sql, err)
	}
	return q, rel, nil
}

type sqlParser struct {
	toks []string
	pos  int
}

func (p *sqlParser) peek() string {
	if p.pos < len(p.toks) {
		return p.toks[p.pos]
	}
	return ""
}

func (p *sqlParser) next() string {
	t := p.peek()
	p.pos++
	return t
}

func (p *sqlParser) expect(keyword string) error {
	if !strings.EqualFold(p.peek(), keyword) {
		return fmt.Errorf("expected %s, got %q", keyword, p.peek())
	}
	p.pos++
	return nil
}

func (p *sqlParser) parse() (Query, string, error) {
	var q Query
	if err := p.expect("SELECT"); err != nil {
		return q, "", err
	}
	// Key columns until we hit AGG( — detected by a '(' after the token.
	for {
		tok := p.next()
		if tok == "" {
			return q, "", fmt.Errorf("unexpected end in select list")
		}
		if p.peek() == "(" {
			// tok is the aggregation function.
			fn, err := agg.Parse(strings.ToUpper(tok))
			if err != nil {
				return q, "", err
			}
			q.Agg = fn
			p.pos++ // consume '('
			q.AggAttr = p.next()
			if !isIdent(q.AggAttr) {
				return q, "", fmt.Errorf("bad aggregation attribute %q", q.AggAttr)
			}
			if err := p.expect(")"); err != nil {
				return q, "", err
			}
			break
		}
		if tok == "," {
			continue
		}
		if !isIdent(tok) {
			return q, "", fmt.Errorf("bad key %q", tok)
		}
		q.Keys = append(q.Keys, tok)
	}
	if strings.EqualFold(p.peek(), "AS") {
		p.pos++
		p.next() // feature alias, ignored
	}
	if err := p.expect("FROM"); err != nil {
		return q, "", err
	}
	rel := p.next()
	if !isIdent(rel) {
		return q, "", fmt.Errorf("bad relation name %q", rel)
	}
	if strings.EqualFold(p.peek(), "WHERE") {
		p.pos++
		for {
			pred, err := p.parsePredicate()
			if err != nil {
				return q, "", err
			}
			q.Preds = append(q.Preds, pred)
			if strings.EqualFold(p.peek(), "AND") {
				p.pos++
				continue
			}
			break
		}
	}
	if err := p.expect("GROUP"); err != nil {
		return q, "", err
	}
	if err := p.expect("BY"); err != nil {
		return q, "", err
	}
	var groupKeys []string
	for {
		tok := p.next()
		if tok == "" {
			break
		}
		if tok == "," {
			continue
		}
		if !isIdent(tok) {
			return q, "", fmt.Errorf("bad GROUP BY key %q", tok)
		}
		groupKeys = append(groupKeys, tok)
	}
	if len(groupKeys) == 0 {
		return q, "", fmt.Errorf("empty GROUP BY")
	}
	if len(q.Keys) == 0 {
		q.Keys = groupKeys
	} else if strings.Join(q.Keys, ",") != strings.Join(groupKeys, ",") {
		return q, "", fmt.Errorf("SELECT keys %v != GROUP BY keys %v", q.Keys, groupKeys)
	}
	return q, rel, nil
}

func (p *sqlParser) parsePredicate() (Predicate, error) {
	attr := p.next()
	if !isIdent(attr) {
		return Predicate{}, fmt.Errorf("bad predicate attribute %q", attr)
	}
	op := p.next()
	switch strings.ToUpper(op) {
	case "=":
		val := p.next()
		if strings.EqualFold(val, "true") || strings.EqualFold(val, "false") {
			return Predicate{Attr: attr, Kind: PredEq, BoolValue: strings.EqualFold(val, "true")}, nil
		}
		s, ok := unquote(val)
		if !ok {
			return Predicate{}, fmt.Errorf("equality value %q must be quoted or boolean", val)
		}
		return Predicate{Attr: attr, Kind: PredEq, StrValue: s}, nil
	case ">=":
		v, err := parseBound(p.next())
		if err != nil {
			return Predicate{}, err
		}
		return Predicate{Attr: attr, Kind: PredRange, HasLo: true, Lo: v}, nil
	case "<=":
		v, err := parseBound(p.next())
		if err != nil {
			return Predicate{}, err
		}
		return Predicate{Attr: attr, Kind: PredRange, HasHi: true, Hi: v}, nil
	case "BETWEEN":
		lo, err := parseBound(p.next())
		if err != nil {
			return Predicate{}, err
		}
		if err := p.expect("AND"); err != nil {
			return Predicate{}, err
		}
		hi, err := parseBound(p.next())
		if err != nil {
			return Predicate{}, err
		}
		if lo > hi {
			return Predicate{}, fmt.Errorf("BETWEEN bounds reversed: %v > %v", lo, hi)
		}
		return Predicate{Attr: attr, Kind: PredRange, HasLo: true, Lo: lo, HasHi: true, Hi: hi}, nil
	}
	return Predicate{}, fmt.Errorf("unsupported operator %q", op)
}

// parseBound accepts a number, an RFC3339 timestamp or a YYYY-MM-DD date.
func parseBound(tok string) (float64, error) {
	if tok == "" {
		return 0, fmt.Errorf("missing bound")
	}
	if s, ok := unquote(tok); ok {
		tok = s
	}
	if v, err := strconv.ParseFloat(tok, 64); err == nil {
		return v, nil
	}
	if ts, err := time.Parse(time.RFC3339, tok); err == nil {
		return float64(ts.Unix()), nil
	}
	if ts, err := time.Parse("2006-01-02", tok); err == nil {
		return float64(ts.Unix()), nil
	}
	return 0, fmt.Errorf("bound %q is not a number, RFC3339 time or date", tok)
}

// isIdent reports whether tok is a bare token: Query.SQL writes identifiers
// verbatim, and only a bare token reads back as itself.
func isIdent(tok string) bool {
	return tok != "" && !strings.ContainsAny(tok[:1], `(),'"<>=`)
}

// unquote strips a quoted token: a double-quoted one is a Go string literal,
// a single-quoted one is taken verbatim. ok is false for anything else,
// including an unterminated or malformed literal.
func unquote(s string) (string, bool) {
	if len(s) >= 2 && s[0] == '\'' && s[len(s)-1] == '\'' {
		return s[1 : len(s)-1], true
	}
	if len(s) >= 2 && s[0] == '"' {
		if u, err := strconv.Unquote(s); err == nil {
			return u, true
		}
	}
	return s, false
}

// tokenize splits the SQL text into identifiers, quoted strings, numbers,
// punctuation and operators.
func tokenize(sql string) []string {
	var toks []string
	rs := []rune(sql)
	i := 0
	for i < len(rs) {
		r := rs[i]
		switch {
		case unicode.IsSpace(r):
			i++
		case r == '(' || r == ')' || r == ',':
			toks = append(toks, string(r))
			i++
		case r == '\'' || r == '"':
			// A backslash inside double quotes escapes the next rune, so an
			// escaped quote does not end the literal.
			quote := r
			j := i + 1
			for j < len(rs) && rs[j] != quote {
				if quote == '"' && rs[j] == '\\' && j+1 < len(rs) {
					j++
				}
				j++
			}
			if j < len(rs) {
				j++
			}
			toks = append(toks, string(rs[i:j]))
			i = j
		case r == '>' || r == '<':
			if i+1 < len(rs) && rs[i+1] == '=' {
				toks = append(toks, string(rs[i:i+2]))
				i += 2
			} else {
				toks = append(toks, string(r))
				i++
			}
		case r == '=':
			toks = append(toks, "=")
			i++
		default:
			j := i
			for j < len(rs) && !unicode.IsSpace(rs[j]) && !strings.ContainsRune("(),'\"<>=", rs[j]) {
				j++
			}
			toks = append(toks, string(rs[i:j]))
			i = j
		}
	}
	return toks
}
