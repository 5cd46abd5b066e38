package parse

import (
	"fmt"

	"currency/internal/copyfn"
	"currency/internal/dc"
	"currency/internal/query"
	"currency/internal/relation"
	"currency/internal/spec"
)

// File is the result of parsing a specification file: the specification
// plus any queries declared alongside it.
type File struct {
	Spec    *spec.Spec
	Queries []*query.Query
}

// Query returns a declared query by name.
func (f *File) Query(name string) (*query.Query, bool) {
	for _, q := range f.Queries {
		if q.Name == name {
			return q, true
		}
	}
	return nil, false
}

type parser struct {
	toks []token
	pos  int
	file *File
	// schemas declared so far, for validation while parsing.
	schemas map[string]*relation.Schema
	// labels resolves tuple labels per relation name for order and copy
	// lines; see labelIndex.
	labels map[string]*labelIndex
}

// labelIndex maps one relation's tuple labels to indexes. It indexes the
// tuples added since the last lookup, so a whole file costs time linear
// in its tuples however rows, orders and copies interleave. Like
// relation.Instance.LabelIndex, the first tuple with a label wins.
type labelIndex struct {
	idx map[string]int
	n   int // tuples indexed so far
}

// labelIndex resolves a tuple label of dt, as dt.LabelIndex would.
func (p *parser) labelIndex(dt *relation.TemporalInstance, label string) (int, bool) {
	li := p.labels[dt.Schema.Name]
	if li == nil {
		li = &labelIndex{idx: make(map[string]int, len(dt.Labels))}
		p.labels[dt.Schema.Name] = li
	}
	for ; li.n < len(dt.Labels); li.n++ {
		if _, dup := li.idx[dt.Labels[li.n]]; !dup {
			li.idx[dt.Labels[li.n]] = li.n
		}
	}
	i, ok := li.idx[label]
	return i, ok
}

// ParseFile parses a complete specification file.
func ParseFile(src string) (*File, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{
		toks:    toks,
		file:    &File{Spec: spec.New()},
		schemas: make(map[string]*relation.Schema),
		labels:  make(map[string]*labelIndex),
	}
	for !p.at(tokEOF, "") {
		switch {
		case p.atKeyword("relation"):
			if err := p.parseRelation(); err != nil {
				return nil, err
			}
		case p.atKeyword("instance"):
			if err := p.parseInstance(); err != nil {
				return nil, err
			}
		case p.atKeyword("constraint"):
			if err := p.parseConstraint(); err != nil {
				return nil, err
			}
		case p.atKeyword("copy"):
			if err := p.parseCopy(); err != nil {
				return nil, err
			}
		case p.atKeyword("query"):
			if err := p.parseQuery(); err != nil {
				return nil, err
			}
		default:
			return nil, p.errf("expected a declaration (relation/instance/constraint/copy/query), got %s", p.cur())
		}
	}
	if err := p.file.Spec.Validate(); err != nil {
		return nil, err
	}
	for _, q := range p.file.Queries {
		if err := q.Validate(); err != nil {
			return nil, err
		}
	}
	return p.file, nil
}

// ParseQuery parses a standalone query declaration.
func ParseQuery(src string) (*query.Query, error) {
	f, err := ParseFile(src)
	if err != nil {
		return nil, err
	}
	if len(f.Queries) != 1 {
		return nil, fmt.Errorf("parse: expected exactly one query, got %d", len(f.Queries))
	}
	return f.Queries[0], nil
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) at(kind tokKind, text string) bool {
	t := p.cur()
	return t.kind == kind && (text == "" || t.text == text)
}

func (p *parser) atKeyword(kw string) bool { return p.at(tokIdent, kw) }

func (p *parser) errf(format string, args ...interface{}) error {
	t := p.cur()
	return fmt.Errorf("parse: line %d col %d: %s", t.line, t.col, fmt.Sprintf(format, args...))
}

func (p *parser) expectPunct(text string) error {
	if !p.at(tokPunct, text) {
		return p.errf("expected %q, got %s", text, p.cur())
	}
	p.next()
	return nil
}

func (p *parser) expectKeyword(kw string) error {
	if !p.atKeyword(kw) {
		return p.errf("expected %q, got %s", kw, p.cur())
	}
	p.next()
	return nil
}

func (p *parser) expectIdent() (string, error) {
	if p.cur().kind != tokIdent {
		return "", p.errf("expected identifier, got %s", p.cur())
	}
	return p.next().text, nil
}

// identList parses IDENT {, IDENT}.
func (p *parser) identList() ([]string, error) {
	var out []string
	for {
		id, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		out = append(out, id)
		if !p.at(tokPunct, ",") {
			return out, nil
		}
		p.next()
	}
}

// value parses a literal value: a quoted string or an integer.
func (p *parser) value() (relation.Value, error) {
	t := p.cur()
	switch t.kind {
	case tokString:
		p.next()
		return relation.S(t.text), nil
	case tokInt:
		p.next()
		return relation.I(t.i), nil
	}
	return relation.Value{}, p.errf("expected a value literal, got %s", t)
}

// parseRelation handles: relation NAME ( attr {, attr} )
func (p *parser) parseRelation() error {
	p.next() // relation
	name, err := p.expectIdent()
	if err != nil {
		return err
	}
	if err := p.expectPunct("("); err != nil {
		return err
	}
	attrs, err := p.identList()
	if err != nil {
		return err
	}
	if err := p.expectPunct(")"); err != nil {
		return err
	}
	sc, err := relation.NewSchema(name, attrs...)
	if err != nil {
		return err
	}
	if _, dup := p.schemas[name]; dup {
		return fmt.Errorf("parse: duplicate relation %s", name)
	}
	p.schemas[name] = sc
	return p.file.Spec.AddRelation(relation.NewTemporal(sc))
}

// parseInstance handles: instance NAME { rows and orders }
func (p *parser) parseInstance() error {
	p.next() // instance
	name, err := p.expectIdent()
	if err != nil {
		return err
	}
	dt, ok := p.file.Spec.Relation(name)
	if !ok {
		return fmt.Errorf("parse: instance for undeclared relation %s", name)
	}
	if err := p.expectPunct("{"); err != nil {
		return err
	}
	for !p.at(tokPunct, "}") {
		if p.atKeyword("order") {
			if err := p.parseOrder(dt); err != nil {
				return err
			}
			continue
		}
		// Row: [label :] ( v, ... )
		label := ""
		if p.cur().kind == tokIdent {
			label, _ = p.expectIdent()
			if err := p.expectPunct(":"); err != nil {
				return err
			}
		}
		if err := p.expectPunct("("); err != nil {
			return err
		}
		var vals relation.Tuple
		for {
			v, err := p.value()
			if err != nil {
				return err
			}
			vals = append(vals, v)
			if p.at(tokPunct, ",") {
				p.next()
				continue
			}
			break
		}
		if err := p.expectPunct(")"); err != nil {
			return err
		}
		if label != "" {
			if _, err := dt.AddLabeled(label, vals); err != nil {
				return err
			}
		} else if _, err := dt.Add(vals); err != nil {
			return err
		}
	}
	p.next() // }
	return nil
}

// parseOrder handles: order ATTR : a < b {, c < d}
func (p *parser) parseOrder(dt *relation.TemporalInstance) error {
	p.next() // order
	attr, err := p.expectIdent()
	if err != nil {
		return err
	}
	if err := p.expectPunct(":"); err != nil {
		return err
	}
	for {
		a, err := p.expectIdent()
		if err != nil {
			return err
		}
		if err := p.expectPunct("<"); err != nil {
			return err
		}
		b, err := p.expectIdent()
		if err != nil {
			return err
		}
		ai, ok := p.labelIndex(dt, a)
		if !ok {
			return fmt.Errorf("parse: unknown tuple label %s in %s", a, dt.Schema.Name)
		}
		bi, ok := p.labelIndex(dt, b)
		if !ok {
			return fmt.Errorf("parse: unknown tuple label %s in %s", b, dt.Schema.Name)
		}
		if err := dt.AddOrder(attr, ai, bi); err != nil {
			return err
		}
		if p.at(tokPunct, ",") {
			p.next()
			continue
		}
		return nil
	}
}

// parseConstraint handles:
//
//	constraint NAME on REL forall v {, v} : body -> head
//
// where body is `true` or a conjunction of comparisons and order atoms
// (v <ATTR w), and head is an order atom or `false`.
func (p *parser) parseConstraint() error {
	p.next() // constraint
	name, err := p.expectIdent()
	if err != nil {
		return err
	}
	if err := p.expectKeyword("on"); err != nil {
		return err
	}
	rel, err := p.expectIdent()
	if err != nil {
		return err
	}
	sc, ok := p.schemas[rel]
	if !ok {
		return fmt.Errorf("parse: constraint %s on undeclared relation %s", name, rel)
	}
	if err := p.expectKeyword("forall"); err != nil {
		return err
	}
	vars, err := p.identList()
	if err != nil {
		return err
	}
	if err := p.expectPunct(":"); err != nil {
		return err
	}
	c := &dc.Constraint{Name: name, Relation: rel, Vars: vars}
	varSet := make(map[string]bool, len(vars))
	for _, v := range vars {
		varSet[v] = true
	}

	// Body.
	if p.atKeyword("true") {
		p.next()
	} else {
		for {
			if err := p.parseConstraintPred(c, varSet); err != nil {
				return err
			}
			if p.atKeyword("and") {
				p.next()
				continue
			}
			break
		}
	}
	if err := p.expectPunct("->"); err != nil {
		return err
	}
	// Head.
	if p.atKeyword("false") {
		p.next()
		// Contradiction head: encode as v ≺A v on the first variable and
		// the first non-EID attribute.
		attr := sc.Attrs[sc.NonEIDIndexes()[0]]
		c.Head = dc.OrderAtom{U: vars[0], V: vars[0], Attr: attr}
	} else {
		oa, err := p.parseOrderAtom(varSet)
		if err != nil {
			return err
		}
		c.Head = oa
	}
	return p.file.Spec.AddConstraint(c)
}

// parseOrderAtom handles: v <ATTR w  (lexed as v, "<", ATTR, w).
func (p *parser) parseOrderAtom(varSet map[string]bool) (dc.OrderAtom, error) {
	u, err := p.expectIdent()
	if err != nil {
		return dc.OrderAtom{}, err
	}
	if err := p.expectPunct("<"); err != nil {
		return dc.OrderAtom{}, err
	}
	attr, err := p.expectIdent()
	if err != nil {
		return dc.OrderAtom{}, err
	}
	v, err := p.expectIdent()
	if err != nil {
		return dc.OrderAtom{}, err
	}
	if !varSet[u] || !varSet[v] {
		return dc.OrderAtom{}, fmt.Errorf("parse: order atom %s <%s %s uses undeclared variables", u, attr, v)
	}
	return dc.OrderAtom{U: u, V: v, Attr: attr}, nil
}

// parseConstraintPred parses either an order atom v <ATTR w or a
// comparison operand OP operand.
func (p *parser) parseConstraintPred(c *dc.Constraint, varSet map[string]bool) error {
	// Lookahead: IDENT "<" IDENT IDENT is an order atom; IDENT "." is an
	// attribute operand.
	if p.cur().kind == tokIdent && varSet[p.cur().text] &&
		p.toks[p.pos+1].kind == tokPunct && p.toks[p.pos+1].text == "<" &&
		p.toks[p.pos+2].kind == tokIdent &&
		p.toks[p.pos+3].kind == tokIdent && varSet[p.toks[p.pos+3].text] {
		oa, err := p.parseOrderAtom(varSet)
		if err != nil {
			return err
		}
		c.Orders = append(c.Orders, oa)
		return nil
	}
	l, err := p.parseOperand(varSet)
	if err != nil {
		return err
	}
	op, err := p.parseCmpOp()
	if err != nil {
		return err
	}
	r, err := p.parseOperand(varSet)
	if err != nil {
		return err
	}
	c.Cmps = append(c.Cmps, dc.Comparison{L: l, Op: op, R: r})
	return nil
}

func (p *parser) parseOperand(varSet map[string]bool) (dc.Operand, error) {
	t := p.cur()
	if t.kind == tokIdent && varSet[t.text] {
		p.next()
		if err := p.expectPunct("."); err != nil {
			return dc.Operand{}, err
		}
		attr, err := p.expectIdent()
		if err != nil {
			return dc.Operand{}, err
		}
		return dc.AttrOp(t.text, attr), nil
	}
	v, err := p.value()
	if err != nil {
		return dc.Operand{}, err
	}
	return dc.ConstOp(v), nil
}

func (p *parser) parseCmpOp() (dc.Op, error) {
	t := p.cur()
	if t.kind != tokPunct {
		return 0, p.errf("expected comparison operator, got %s", t)
	}
	var op dc.Op
	switch t.text {
	case "=":
		op = dc.OpEq
	case "!=":
		op = dc.OpNe
	case "<":
		op = dc.OpLt
	case "<=":
		op = dc.OpLe
	case ">":
		op = dc.OpGt
	case ">=":
		op = dc.OpGe
	default:
		return 0, p.errf("expected comparison operator, got %s", t)
	}
	p.next()
	return op, nil
}

// parseCopy handles:
//
//	copy NAME to REL ( attrs ) from REL ( attrs ) { t <- s {, t <- s} }
func (p *parser) parseCopy() error {
	p.next() // copy
	name, err := p.expectIdent()
	if err != nil {
		return err
	}
	if err := p.expectKeyword("to"); err != nil {
		return err
	}
	tgtName, err := p.expectIdent()
	if err != nil {
		return err
	}
	if err := p.expectPunct("("); err != nil {
		return err
	}
	tgtAttrs, err := p.identList()
	if err != nil {
		return err
	}
	if err := p.expectPunct(")"); err != nil {
		return err
	}
	if err := p.expectKeyword("from"); err != nil {
		return err
	}
	srcName, err := p.expectIdent()
	if err != nil {
		return err
	}
	if err := p.expectPunct("("); err != nil {
		return err
	}
	srcAttrs, err := p.identList()
	if err != nil {
		return err
	}
	if err := p.expectPunct(")"); err != nil {
		return err
	}
	tgt, ok := p.file.Spec.Relation(tgtName)
	if !ok {
		return fmt.Errorf("parse: copy %s targets undeclared relation %s", name, tgtName)
	}
	src, ok := p.file.Spec.Relation(srcName)
	if !ok {
		return fmt.Errorf("parse: copy %s reads undeclared relation %s", name, srcName)
	}
	cf := copyfn.New(name, tgtName, srcName, tgtAttrs, srcAttrs)
	if err := p.expectPunct("{"); err != nil {
		return err
	}
	for !p.at(tokPunct, "}") {
		tl, err := p.expectIdent()
		if err != nil {
			return err
		}
		if err := p.expectPunct("<-"); err != nil {
			return err
		}
		sl, err := p.expectIdent()
		if err != nil {
			return err
		}
		ti, ok := p.labelIndex(tgt, tl)
		if !ok {
			return fmt.Errorf("parse: copy %s maps unknown target label %s", name, tl)
		}
		si, ok := p.labelIndex(src, sl)
		if !ok {
			return fmt.Errorf("parse: copy %s maps unknown source label %s", name, sl)
		}
		cf.Set(ti, si)
		if p.at(tokPunct, ",") {
			p.next()
		}
	}
	p.next() // }
	return p.file.Spec.AddCopy(cf)
}
