package query

import (
	"fmt"
	"sort"
	"strings"

	"currency/internal/relation"
)

// DB is the database a query runs against: normal instances keyed by
// relation name (in this library, current instances of completions).
type DB map[string]*relation.Instance

// Result is a set of answer tuples over the query's head variables.
type Result struct {
	Cols []string
	Rows []relation.Tuple
}

// Contains reports membership of the tuple in the result. A single
// lookup is one pass over the rows; Equal and Intersect key each row
// once instead of calling Contains per row.
func (r *Result) Contains(t relation.Tuple) bool {
	for _, row := range r.Rows {
		if row.Equal(t) {
			return true
		}
	}
	return false
}

// Sort orders rows canonically (by Tuple.Key) for deterministic output.
func (r *Result) Sort() {
	keys := make([]string, len(r.Rows))
	for i, row := range r.Rows {
		keys[i] = row.Key()
	}
	sort.Sort(keyedRows{keys: keys, rows: r.Rows})
}

type keyedRows struct {
	keys []string
	rows []relation.Tuple
}

func (k keyedRows) Len() int           { return len(k.keys) }
func (k keyedRows) Less(i, j int) bool { return k.keys[i] < k.keys[j] }
func (k keyedRows) Swap(i, j int) {
	k.keys[i], k.keys[j] = k.keys[j], k.keys[i]
	k.rows[i], k.rows[j] = k.rows[j], k.rows[i]
}

// keySet returns the set of the rows' keys.
func (r *Result) keySet() map[string]struct{} {
	set := make(map[string]struct{}, len(r.Rows))
	for _, row := range r.Rows {
		set[row.Key()] = struct{}{}
	}
	return set
}

// Equal reports set equality of two results.
func (r *Result) Equal(o *Result) bool {
	a, b := r.keySet(), o.keySet()
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if _, ok := b[k]; !ok {
			return false
		}
	}
	return true
}

// Intersect returns the rows present in both results, in r's order.
func (r *Result) Intersect(o *Result) *Result {
	in := o.keySet()
	out := &Result{Cols: r.Cols}
	for _, row := range r.Rows {
		if _, ok := in[row.Key()]; ok {
			out.Rows = append(out.Rows, row)
		}
	}
	return out
}

// String renders the result set.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "{%s}:", strings.Join(r.Cols, ", "))
	for _, row := range r.Rows {
		b.WriteString(" ")
		b.WriteString(row.String())
	}
	return b.String()
}

// Eval evaluates the query on the database under active-domain semantics:
// quantifiers and head variables range over every value occurring in the
// database or in the query. It compiles q and runs the plan once;
// callers evaluating one query on many databases Compile once and call
// Plan.Eval per database.
func Eval(q *Query, db DB) (*Result, error) {
	p, err := Compile(q)
	if err != nil {
		return nil, err
	}
	return p.Eval(db), nil
}
