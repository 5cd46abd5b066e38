package main

// The verdict oracle: every response of the run is compared with a
// from-scratch core.NewReasoner built on the benchmark's own copy of the
// spec at the response's version (versions are rebuilt by replaying each
// spec's delta chain at generation time; workload.contents holds each
// distinct content once). CCQA gadgets are also checked against the
// reduction's ground truth, and PTIME-routed verdicts against the exact
// reasoner.

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"currency/internal/api"
	"currency/internal/core"
	"currency/internal/query"
	"currency/internal/relation"
)

type oracle struct {
	w  *workload
	rs map[int]*core.Reasoner // content -> from-scratch reasoner
	// verdicts memoizes expected answers per (content, request): the same
	// question at the same content has one right answer.
	verdicts map[string]api.DecisionResult
}

func newOracle(w *workload) *oracle {
	return &oracle{w: w, rs: make(map[int]*core.Reasoner), verdicts: make(map[string]api.DecisionResult)}
}

func (o *oracle) reasoner(content int) (*core.Reasoner, error) {
	if r, ok := o.rs[content]; ok {
		return r, nil
	}
	r, err := core.NewReasoner(o.w.contents[content])
	if err != nil {
		return nil, err
	}
	o.rs[content] = r
	return r, nil
}

// expect computes the exact answer to a read op.
func (o *oracle) expect(op *op) (api.DecisionResult, error) {
	key := fmt.Sprintf("%d|%s|%v|%s", op.content, op.kind, op.orders, op.rel)
	if v, ok := o.verdicts[key]; ok {
		return v, nil
	}
	r, err := o.reasoner(op.content)
	if err != nil {
		return api.DecisionResult{}, err
	}
	var out api.DecisionResult
	var holds bool
	switch op.kind {
	case opCOP:
		holds, err = r.CertainOrder(op.orders)
	case opDCIP:
		holds, err = r.Deterministic(op.rel)
	case opCCQA:
		res, modEmpty, err := r.CertainAnswers(o.w.specs[op.spec].file.Queries[0])
		if err != nil {
			return out, err
		}
		if modEmpty {
			out.VacuouslyTrue = true
		} else {
			out.Answers = wireRows(res)
		}
		o.verdicts[key] = out
		return out, nil
	}
	if err != nil {
		return out, err
	}
	out.Holds = &holds
	out.VacuouslyTrue = holds && !r.Consistent()
	o.verdicts[key] = out
	return out, nil
}

// check reports why a response is wrong, or nil.
func (o *oracle) check(op *op, got outcome) error {
	if got.err != nil {
		return got.err
	}
	if got.version != op.version {
		return fmt.Errorf("answered at version %d, want %d", got.version, op.version)
	}
	if op.kind == opPatch {
		return nil
	}
	res := got.res
	if res.Indeterminate || res.Degraded {
		return fmt.Errorf("indeterminate=%t degraded=%t (%s)", res.Indeterminate, res.Degraded, res.Reason)
	}
	bs := o.w.specs[op.spec]
	engine := api.EnginePTime
	if bs.exact {
		engine = api.EngineExact
	}
	if res.Engine != engine {
		return fmt.Errorf("routed to %q, want %q", res.Engine, engine)
	}
	want, err := o.expect(op)
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	if res.VacuouslyTrue != want.VacuouslyTrue {
		return fmt.Errorf("vacuouslyTrue=%t, oracle says %t", res.VacuouslyTrue, want.VacuouslyTrue)
	}
	if op.kind == opCCQA {
		g, w := canonRows(res.Answers), canonRows(want.Answers)
		if g != w {
			return fmt.Errorf("answers %s, oracle says %s", g, w)
		}
		if certain := g == "[1]"; certain != bs.certain {
			return fmt.Errorf("answers %s, but the gadget's formula makes (1) certain=%t", g, bs.certain)
		}
		return nil
	}
	if res.Holds == nil || *res.Holds != *want.Holds {
		return fmt.Errorf("holds=%v, oracle says %t", fmtHolds(res.Holds), *want.Holds)
	}
	return nil
}

func fmtHolds(h *bool) string {
	if h == nil {
		return "absent"
	}
	return fmt.Sprint(*h)
}

// wireRows renders a query result the way the server does: strings as
// JSON strings, integers as numbers, fresh nulls as {"fresh": id}.
func wireRows(res *query.Result) *api.ResultSet {
	out := &api.ResultSet{Cols: res.Cols, Rows: []api.AnswerRow{}}
	for _, row := range res.Rows {
		wire := make(api.AnswerRow, len(row))
		for i, v := range row {
			switch v.Kind {
			case relation.KindInt:
				wire[i] = v.Int
			case relation.KindFresh:
				wire[i] = map[string]int64{"fresh": v.Int}
			default:
				wire[i] = v.Str
			}
		}
		out.Rows = append(out.Rows, wire)
	}
	return out
}

// canonRows is an order-independent rendering of a row set.
func canonRows(rs *api.ResultSet) string {
	if rs == nil {
		return "none"
	}
	rows := make([]string, len(rs.Rows))
	for i, r := range rs.Rows {
		b, _ := json.Marshal(r)
		rows[i] = string(b)
	}
	sort.Strings(rows)
	return strings.Join(rows, ",")
}
