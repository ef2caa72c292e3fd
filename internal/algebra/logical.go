package algebra

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"dhqp/internal/expr"
)

// Get is the logical leaf reading a source. Cols assigns query-global
// ColumnIDs to the source's columns in declaration order. Remote sources are
// "tagged with a flag indicating their level of remotability" (§4.1.3) —
// here the Source.Server tag plus the capability set the optimizer looks up
// per server.
type Get struct {
	Src  *Source
	Cols []OutCol
}

// OpName implements Operator.
func (g *Get) OpName() string { return "Get" }

// Logical implements Operator.
func (g *Get) Logical() bool { return true }

// Digest implements Operator.
func (g *Get) Digest() string {
	return string(appendIDs(append([]byte(g.Src.String()), " cols="...), IDs(g.Cols)))
}

// OutCols implements Operator.
func (g *Get) OutCols([][]OutCol) []OutCol { return g.Cols }

// Select filters rows by a predicate.
type Select struct {
	Filter expr.Expr
}

// Project computes expressions over its input.
type Project struct {
	Exprs []ProjExpr
}

// OpName implements Operator.
func (p *Project) OpName() string { return "Project" }

// Logical implements Operator.
func (p *Project) Logical() bool { return true }

// Digest implements Operator.
func (p *Project) Digest() string {
	var b []byte
	for i, pe := range p.Exprs {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = append(strconv.AppendInt(append(b, "col"...), int64(pe.Out.ID), 10), '=')
		b = append(b, exprDigest(pe.E)...)
	}
	return string(b)
}

// OutCols implements Operator.
func (p *Project) OutCols([][]OutCol) []OutCol {
	out := make([]OutCol, len(p.Exprs))
	for i, pe := range p.Exprs {
		out[i] = pe.Out
	}
	return out
}

// OpName implements Operator.
func (s *Select) OpName() string { return "Select" }

// Logical implements Operator.
func (s *Select) Logical() bool { return true }

// Digest implements Operator.
func (s *Select) Digest() string { return exprDigest(s.Filter) }

// OutCols implements Operator.
func (s *Select) OutCols(kids [][]OutCol) []OutCol { return kids[0] }

// Join combines two inputs under a predicate.
type Join struct {
	Type JoinType
	On   expr.Expr // nil = cross join
}

// OpName implements Operator.
func (j *Join) OpName() string { return "Join" }

// Logical implements Operator.
func (j *Join) Logical() bool { return true }

// Digest implements Operator.
func (j *Join) Digest() string {
	return fmt.Sprintf("%s on=%s", j.Type, exprDigest(j.On))
}

// OutCols implements Operator.
func (j *Join) OutCols(kids [][]OutCol) []OutCol {
	switch j.Type {
	case SemiJoin, AntiJoin:
		return kids[0]
	default:
		out := make([]OutCol, 0, len(kids[0])+len(kids[1]))
		out = append(out, kids[0]...)
		out = append(out, kids[1]...)
		return out
	}
}

// Apply is the correlated (parameterized) join produced by the paper's
// parameterization exploration rule (§4.1.2): the right child references
// parameters that are bound from left-row columns on every re-execution.
// ParamMap names the binding; Residual is any non-pushed join predicate.
type Apply struct {
	Type     JoinType
	ParamMap map[string]expr.ColumnID
	Residual expr.Expr
}

// OpName implements Operator.
func (a *Apply) OpName() string { return "Apply" }

// Logical implements Operator.
func (a *Apply) Logical() bool { return true }

// Digest implements Operator.
func (a *Apply) Digest() string {
	names := make([]string, 0, len(a.ParamMap))
	for n, id := range a.ParamMap {
		names = append(names, fmt.Sprintf("@%s=col%d", n, id))
	}
	sort.Strings(names)
	return fmt.Sprintf("%s params=%s res=%s", a.Type, strings.Join(names, ","), exprDigest(a.Residual))
}

// OutCols implements Operator.
func (a *Apply) OutCols(kids [][]OutCol) []OutCol {
	return (&Join{Type: a.Type}).OutCols(kids)
}

// BatchApply is the batched variant of Apply: instead of re-executing the
// right child once per left row, the executor buffers up to BatchSize left
// rows and binds their join-key values into the right child's IN-list
// parameters in one shot, amortizing per-call link latency across the
// batch. Pairs are the equi-join columns (left probes, right receives);
// ParamBase prefixes the generated parameter names b<base>_<pair>_<slot>;
// Residual is any non-equi join predicate, checked per matched pair.
type BatchApply struct {
	Type      JoinType
	Pairs     []expr.EquiPair
	ParamBase string
	BatchSize int
	Residual  expr.Expr
}

// OpName implements Operator.
func (a *BatchApply) OpName() string { return "BatchApply" }

// Logical implements Operator.
func (a *BatchApply) Logical() bool { return true }

// Digest implements Operator.
func (a *BatchApply) Digest() string {
	return fmt.Sprintf("%s pairs=%v base=%s k=%d res=%s",
		a.Type, a.Pairs, a.ParamBase, a.BatchSize, exprDigest(a.Residual))
}

// OutCols implements Operator.
func (a *BatchApply) OutCols(kids [][]OutCol) []OutCol {
	return (&Join{Type: a.Type}).OutCols(kids)
}

// GroupBy aggregates over grouping columns.
type GroupBy struct {
	GroupCols []OutCol
	Aggs      []AggSpec
}

// OpName implements Operator.
func (g *GroupBy) OpName() string { return "GroupBy" }

// Logical implements Operator.
func (g *GroupBy) Logical() bool { return true }

// Digest implements Operator.
func (g *GroupBy) Digest() string {
	b := append(appendIDs([]byte("by="), IDs(g.GroupCols)), " aggs=["...)
	for i, a := range g.Aggs {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = a.append(b)
	}
	return string(append(b, ']'))
}

// OutCols implements Operator.
func (g *GroupBy) OutCols([][]OutCol) []OutCol {
	out := make([]OutCol, 0, len(g.GroupCols)+len(g.Aggs))
	out = append(out, g.GroupCols...)
	for _, a := range g.Aggs {
		out = append(out, a.Out)
	}
	return out
}

// UnionAll concatenates children. OutColsList gives the operator's own
// output columns; InMaps[i][j] names the child-i column feeding output
// column j. Partitioned views (§4.1.5) bind to this operator.
type UnionAll struct {
	OutColsList []OutCol
	InMaps      [][]expr.ColumnID
}

// OpName implements Operator.
func (u *UnionAll) OpName() string { return "UnionAll" }

// Logical implements Operator.
func (u *UnionAll) Logical() bool { return true }

// Digest implements Operator.
func (u *UnionAll) Digest() string {
	b := append(appendIDs([]byte("out="), IDs(u.OutColsList)), " in=["...)
	for i, m := range u.InMaps {
		if i > 0 {
			b = append(b, ' ')
		}
		b = appendIDs(b, m)
	}
	return string(append(b, ']'))
}

// OutCols implements Operator.
func (u *UnionAll) OutCols([][]OutCol) []OutCol { return u.OutColsList }

// Top returns the first N rows under an ordering (TOP N ... ORDER BY).
type Top struct {
	N        int64
	Ordering Ordering
}

// OpName implements Operator.
func (t *Top) OpName() string { return "Top" }

// Logical implements Operator.
func (t *Top) Logical() bool { return true }

// Digest implements Operator.
func (t *Top) Digest() string { return fmt.Sprintf("n=%d order=[%s]", t.N, t.Ordering) }

// OutCols implements Operator.
func (t *Top) OutCols(kids [][]OutCol) []OutCol { return kids[0] }

// Values is a constant relation (INSERT ... VALUES, tests).
type Values struct {
	Cols []OutCol
	Rows [][]expr.Expr
}

// OpName implements Operator.
func (v *Values) OpName() string { return "Values" }

// Logical implements Operator.
func (v *Values) Logical() bool { return true }

// Digest implements Operator.
func (v *Values) Digest() string {
	return fmt.Sprintf("cols=%v rows=%d", IDs(v.Cols), len(v.Rows))
}

// OutCols implements Operator.
func (v *Values) OutCols([][]OutCol) []OutCol { return v.Cols }
