package binder

import (
	"dhqp/internal/algebra"
	"dhqp/internal/expr"
	"dhqp/internal/parser"
	"dhqp/internal/schema"
)

// BindScalar binds a column-free scalar AST (INSERT ... VALUES expressions:
// literals, parameters and functions only).
func BindScalar(e parser.Expr) (expr.Expr, error) {
	b := New(nil)
	eb := &exprBinder{b: b, sc: &scope{}}
	bound, _, err := eb.bind(e)
	if err != nil {
		return nil, err
	}
	return bound, nil
}

// BindTableScalar binds a scalar AST against a single table's positional
// row layout (DML WHERE clauses and SET expressions evaluated row-at-a-time
// over storage rows). Column i gets ColumnID i+1, so the result also reads
// against CheckDomains over the same numbering and decodes as a write.
func BindTableScalar(def *schema.Table, e parser.Expr) (expr.Expr, error) {
	b := New(nil)
	cols := make([]algebra.OutCol, len(def.Columns))
	layout := map[int]int{}
	for i, c := range def.Columns {
		cols[i] = algebra.OutCol{ID: b.allocCol(), Name: c.Name, Kind: c.Kind}
		layout[int(cols[i].ID)] = i
	}
	sc := &scope{}
	sc.addRel(def.Name, cols)
	eb := &exprBinder{b: b, sc: sc}
	bound, _, err := eb.bind(e)
	if err != nil {
		return nil, err
	}
	return bindPositional(bound, layout)
}
