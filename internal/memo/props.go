package memo

import (
	"dhqp/internal/algebra"
	"dhqp/internal/constraint"
	"dhqp/internal/expr"
	"dhqp/internal/sqltypes"
	"dhqp/internal/stats"
)

// deriveProps computes the group properties for a newly created group from
// its first (logical) expression. Properties are logical: every alternative
// added to the group later shares them by definition (§4.1.1).
func (m *Memo) deriveProps(e *GroupExpr) *LogicalProps {
	kidProps := make([]*LogicalProps, len(e.Kids))
	kidCols := make([][]algebra.OutCol, len(e.Kids))
	for i, k := range e.Kids {
		kidProps[i] = m.Groups[k].Props
		kidCols[i] = kidProps[i].OutCols
	}
	p := &LogicalProps{
		OutCols: e.Op.OutCols(kidCols),
		Domains: constraint.Map{},
		Servers: map[string]bool{},
	}
	for _, kp := range kidProps {
		for s := range kp.Servers {
			p.Servers[s] = true
		}
		for id, d := range kp.Domains {
			p.Domains[id] = d
		}
		if kp.Unsatisfiable {
			p.Unsatisfiable = true
		}
	}

	switch op := e.Op.(type) {
	case *algebra.Get:
		p.Servers[op.Src.Server] = true
		if m.md != nil {
			p.Cardinality = m.md.TableCardinality(op.Src)
			for id, d := range m.md.CheckDomains(op.Src, op.Cols) {
				p.Domains[id] = d
			}
		} else {
			p.Cardinality = 1000
		}
	case *algebra.Select:
		sel := m.est.Selectivity(op.Filter)
		p.Cardinality = kidProps[0].Cardinality * sel
		// Narrow the domains with the filter; unsatisfiable combinations
		// mark the group empty for static pruning (§4.1.5).
		nd := p.Domains.Clone()
		if !nd.ApplyPredicate(op.Filter) {
			p.Unsatisfiable = true
			p.Cardinality = 0
		}
		p.Domains = nd
	case *algebra.Project:
		p.Cardinality = kidProps[0].Cardinality
	case *algebra.Join:
		p.Cardinality = m.joinCardinality(op, kidProps)
	case *algebra.GroupBy:
		p.Cardinality = m.groupByCardinality(op, kidProps[0])
		if len(op.GroupCols) == 0 {
			// A scalar aggregate yields exactly one row even over a
			// provably-empty input (COUNT(*) = 0); it is never empty.
			p.Unsatisfiable = false
			p.Cardinality = 1
		}
	case *algebra.UnionAll:
		var sum float64
		for _, kp := range kidProps {
			sum += kp.Cardinality
		}
		p.Cardinality = sum
		// Output domains are the union of the mapped child domains.
		p.Domains = m.unionDomains(op, e.Kids)
		p.Unsatisfiable = sum == 0 && allUnsat(kidProps)
	case *algebra.Top:
		c := kidProps[0].Cardinality
		if float64(op.N) < c {
			c = float64(op.N)
		}
		p.Cardinality = c
	case *algebra.Values:
		p.Cardinality = float64(len(op.Rows))
		if len(op.Rows) == 0 {
			p.Unsatisfiable = true
		}
	default:
		if len(kidProps) > 0 {
			p.Cardinality = kidProps[0].Cardinality
		} else {
			p.Cardinality = 1
		}
	}
	if p.Cardinality < 0 {
		p.Cardinality = 0
	}
	p.RowWidth = rowWidth(p.OutCols)
	return p
}

func allUnsat(kids []*LogicalProps) bool {
	for _, k := range kids {
		if !k.Unsatisfiable {
			return false
		}
	}
	return len(kids) > 0
}

// joinCardinality estimates join output size from equi-join selectivity.
func (m *Memo) joinCardinality(op *algebra.Join, kids []*LogicalProps) float64 {
	l, r := kids[0].Cardinality, kids[1].Cardinality
	leftCols := algebra.ColSetOf(kids[0].OutCols)
	rightCols := algebra.ColSetOf(kids[1].OutCols)
	sel := 1.0
	pairs, residual := expr.ExtractEquiJoin(op.On, leftCols, rightCols)
	for _, pr := range pairs {
		sel *= m.est.JoinSelectivity(pr.Left, pr.Right)
	}
	if residual != nil {
		sel *= m.est.Selectivity(residual)
	}
	if op.On == nil {
		sel = 1 // cross join
	}
	switch op.Type {
	case algebra.SemiJoin:
		c := l * clamp01(sel*r)
		if c > l {
			c = l
		}
		return c
	case algebra.AntiJoin:
		c := l * (1 - clamp01(sel*r))
		if c < 0 {
			c = 0
		}
		return c
	case algebra.LeftOuterJoin:
		c := l * r * sel
		if c < l {
			c = l
		}
		return c
	default:
		return l * r * sel
	}
}

func clamp01(f float64) float64 {
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

// groupByCardinality estimates distinct group count.
func (m *Memo) groupByCardinality(op *algebra.GroupBy, kid *LogicalProps) float64 {
	if len(op.GroupCols) == 0 {
		return 1 // scalar aggregate
	}
	groups := 1.0
	for _, c := range op.GroupCols {
		var d float64
		if m.md != nil {
			if h := m.md.Histogram(c.ID); h != nil {
				d = float64(h.Distinct)
			}
		}
		if d <= 0 {
			d = kid.Cardinality * 0.1 // default NDV guess
		}
		groups *= d
		if groups > kid.Cardinality {
			return kid.Cardinality
		}
	}
	if groups > kid.Cardinality {
		groups = kid.Cardinality
	}
	if groups < 1 {
		groups = 1
	}
	return groups
}

// unionDomains merges the children's domains through a UnionAll's column
// maps so a partitioned view's output column carries the union of its
// members' CHECK ranges.
func (m *Memo) unionDomains(op *algebra.UnionAll, kids []GroupID) constraint.Map {
	out := constraint.Map{}
	ds := make([]*constraint.Domain, 0, len(kids))
	for j, oc := range op.OutColsList {
		ds = ds[:0]
		for i, k := range kids {
			if j >= len(op.InMaps[i]) {
				break
			}
			ds = append(ds, m.Groups[k].Props.Domains.DomainOf(op.InMaps[i][j]))
		}
		if len(ds) == len(kids) && len(ds) > 0 {
			out[oc.ID] = constraint.UnionOf(ds)
		}
	}
	return out
}

// rowWidth estimates encoded row size by column kinds.
func rowWidth(cols []algebra.OutCol) float64 {
	w := 2.0
	for _, c := range cols {
		switch c.Kind {
		case sqltypes.KindString:
			w += 24
		case sqltypes.KindBool:
			w += 1
		default:
			w += 8
		}
	}
	return w
}

// HistogramFor exposes metadata histograms to rules.
func (m *Memo) HistogramFor(id expr.ColumnID) *stats.Histogram {
	if m.md == nil {
		return nil
	}
	return m.md.Histogram(id)
}
