// Package constraint implements the paper's constraint property framework
// (§4.1.5): interval-set domains tracked for scalar expressions through the
// query tree. Each relational operator can narrow the valid domain of a
// column; the optimizer uses the domains for static pruning (reducing
// provably-empty subtrees to an empty-table operator at compile time), for
// cardinality refinement, and for building runtime startup filters when
// predicate values are parameters.
//
// The paper's worked examples are reproduced directly by this package:
// "CustomerId > 50" narrows [-inf,+inf] to (50,+inf]; "CustomerId IN (1,5)
// OR CustomerId BETWEEN 50 AND 100" derives [1,1] ∪ [5,5] ∪ [50,100].
package constraint

import (
	"fmt"
	"strings"

	"dhqp/internal/expr"
	"dhqp/internal/sqltypes"
)

// Interval is one contiguous range of values. Unbounded ends are marked by
// LoUnbounded/HiUnbounded; Open flags exclude the endpoint.
type Interval struct {
	Lo, Hi                   sqltypes.Value
	LoOpen, HiOpen           bool
	LoUnbounded, HiUnbounded bool
}

// Full returns the unrestricted interval [-inf, +inf].
func Full() Interval { return Interval{LoUnbounded: true, HiUnbounded: true} }

// Point returns the degenerate interval [v, v].
func Point(v sqltypes.Value) Interval { return Interval{Lo: v, Hi: v} }

// Empty reports whether the interval contains no values.
func (iv Interval) Empty() bool {
	if iv.LoUnbounded || iv.HiUnbounded {
		return false
	}
	c := sqltypes.Compare(iv.Lo, iv.Hi)
	if c > 0 {
		return true
	}
	if c == 0 {
		return iv.LoOpen || iv.HiOpen
	}
	return false
}

// Contains reports whether v falls inside the interval. NULL is never
// contained (domains track non-NULL values; NULL rows fail the predicates
// the domains derive from).
func (iv Interval) Contains(v sqltypes.Value) bool {
	if v.IsNull() {
		return false
	}
	if !iv.LoUnbounded {
		c := sqltypes.Compare(v, iv.Lo)
		if c < 0 || (c == 0 && iv.LoOpen) {
			return false
		}
	}
	if !iv.HiUnbounded {
		c := sqltypes.Compare(v, iv.Hi)
		if c > 0 || (c == 0 && iv.HiOpen) {
			return false
		}
	}
	return true
}

// Intersect returns the overlap of two intervals.
func (iv Interval) Intersect(o Interval) Interval {
	out := iv
	// Tighter lower bound wins.
	if !o.LoUnbounded {
		if out.LoUnbounded {
			out.Lo, out.LoOpen, out.LoUnbounded = o.Lo, o.LoOpen, false
		} else {
			c := sqltypes.Compare(o.Lo, out.Lo)
			if c > 0 || (c == 0 && o.LoOpen) {
				out.Lo, out.LoOpen = o.Lo, o.LoOpen
			}
		}
	}
	if !o.HiUnbounded {
		if out.HiUnbounded {
			out.Hi, out.HiOpen, out.HiUnbounded = o.Hi, o.HiOpen, false
		} else {
			c := sqltypes.Compare(o.Hi, out.Hi)
			if c < 0 || (c == 0 && o.HiOpen) {
				out.Hi, out.HiOpen = o.Hi, o.HiOpen
			}
		}
	}
	return out
}

// String renders the interval in the paper's mathematical notation.
func (iv Interval) String() string {
	var b strings.Builder
	if iv.LoOpen || iv.LoUnbounded {
		b.WriteByte('(')
	} else {
		b.WriteByte('[')
	}
	if iv.LoUnbounded {
		b.WriteString("-inf")
	} else {
		b.WriteString(iv.Lo.Display())
	}
	b.WriteString(", ")
	if iv.HiUnbounded {
		b.WriteString("+inf")
	} else {
		b.WriteString(iv.Hi.Display())
	}
	if iv.HiOpen || iv.HiUnbounded {
		b.WriteByte(')')
	} else {
		b.WriteByte(']')
	}
	return b.String()
}

// Domain is a union of disjoint intervals in ascending order.
type Domain struct {
	Intervals []Interval
}

// FullDomain returns the unrestricted domain.
func FullDomain() *Domain { return &Domain{Intervals: []Interval{Full()}} }

// EmptyDomain returns a domain with no values.
func EmptyDomain() *Domain { return &Domain{} }

// Empty reports whether the domain admits no values.
func (d *Domain) Empty() bool { return len(d.Intervals) == 0 }

// Contains reports membership.
func (d *Domain) Contains(v sqltypes.Value) bool {
	for _, iv := range d.Intervals {
		if iv.Contains(v) {
			return true
		}
	}
	return false
}

// Intersect returns the pairwise intersection of two domains.
func (d *Domain) Intersect(o *Domain) *Domain {
	out := &Domain{}
	for _, a := range d.Intervals {
		for _, b := range o.Intervals {
			iv := a.Intersect(b)
			if !iv.Empty() {
				out.Intervals = append(out.Intervals, iv)
			}
		}
	}
	return out.normalize()
}

// Union returns the union of two domains.
func (d *Domain) Union(o *Domain) *Domain {
	out := &Domain{Intervals: append(append([]Interval{}, d.Intervals...), o.Intervals...)}
	return out.normalize()
}

// UnionOf is the union of every domain in ds, normalized once: what
// folding Union over them computes, without a domain per step. A lone
// domain is returned as is.
func UnionOf(ds []*Domain) *Domain {
	if len(ds) == 1 {
		return ds[0]
	}
	var ivs []Interval
	for _, d := range ds {
		ivs = append(ivs, d.Intervals...)
	}
	return (&Domain{Intervals: ivs}).normalize()
}

// normalize sorts intervals by lower bound and merges overlaps. Adjacent
// but non-overlapping intervals (e.g. [1,2] and (2,3]) merge as well.
func (d *Domain) normalize() *Domain {
	ivs := d.Intervals
	if len(ivs) <= 1 {
		return d
	}
	// Insertion sort by lower bound (domains are tiny).
	for i := 1; i < len(ivs); i++ {
		for j := i; j > 0 && lowerLess(ivs[j], ivs[j-1]); j-- {
			ivs[j], ivs[j-1] = ivs[j-1], ivs[j]
		}
	}
	merged := []Interval{ivs[0]}
	for _, iv := range ivs[1:] {
		last := &merged[len(merged)-1]
		if overlapsOrTouches(*last, iv) {
			*last = hull(*last, iv)
		} else {
			merged = append(merged, iv)
		}
	}
	d.Intervals = merged
	return d
}

func lowerLess(a, b Interval) bool {
	switch {
	case a.LoUnbounded && b.LoUnbounded:
		return false
	case a.LoUnbounded:
		return true
	case b.LoUnbounded:
		return false
	}
	c := sqltypes.Compare(a.Lo, b.Lo)
	if c != 0 {
		return c < 0
	}
	return !a.LoOpen && b.LoOpen
}

// overlapsOrTouches assumes a's lower bound <= b's lower bound.
func overlapsOrTouches(a, b Interval) bool {
	if a.HiUnbounded || b.LoUnbounded {
		return true
	}
	c := sqltypes.Compare(b.Lo, a.Hi)
	if c < 0 {
		return true
	}
	if c == 0 {
		// [x,v] and [v,y] overlap unless both endpoints are open.
		return !(a.HiOpen && b.LoOpen)
	}
	return false
}

// hull returns the smallest interval containing both (assumes overlap and
// a's lower bound <= b's).
func hull(a, b Interval) Interval {
	out := a
	if b.HiUnbounded {
		out.HiUnbounded, out.HiOpen = true, false
		return out
	}
	if a.HiUnbounded {
		return out
	}
	c := sqltypes.Compare(b.Hi, a.Hi)
	if c > 0 || (c == 0 && !b.HiOpen) {
		out.Hi, out.HiOpen = b.Hi, b.HiOpen
	}
	return out
}

// String renders the domain, e.g. "[1, 1] ∪ [5, 5] ∪ [50, 100]".
func (d *Domain) String() string {
	if d.Empty() {
		return "∅"
	}
	parts := make([]string, len(d.Intervals))
	for i, iv := range d.Intervals {
		parts[i] = iv.String()
	}
	return strings.Join(parts, " ∪ ")
}

// FromComparison derives the domain admitted by "col op value".
func FromComparison(op expr.Op, v sqltypes.Value) *Domain {
	if v.IsNull() {
		// col op NULL admits nothing.
		return EmptyDomain()
	}
	switch op {
	case expr.OpEq:
		return &Domain{Intervals: []Interval{Point(v)}}
	case expr.OpNe:
		return &Domain{Intervals: []Interval{
			{LoUnbounded: true, Hi: v, HiOpen: true},
			{Lo: v, LoOpen: true, HiUnbounded: true},
		}}
	case expr.OpLt:
		return &Domain{Intervals: []Interval{{LoUnbounded: true, Hi: v, HiOpen: true}}}
	case expr.OpLe:
		return &Domain{Intervals: []Interval{{LoUnbounded: true, Hi: v}}}
	case expr.OpGt:
		return &Domain{Intervals: []Interval{{Lo: v, LoOpen: true, HiUnbounded: true}}}
	case expr.OpGe:
		return &Domain{Intervals: []Interval{{Lo: v, HiUnbounded: true}}}
	default:
		return FullDomain()
	}
}

// Map tracks the domain of each column through an operator tree.
type Map map[expr.ColumnID]*Domain

// Clone copies the map (domains are shared; they are immutable by
// convention once stored).
func (m Map) Clone() Map {
	out := make(Map, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// DomainOf returns the column's domain, defaulting to full.
func (m Map) DomainOf(id expr.ColumnID) *Domain {
	if d, ok := m[id]; ok {
		return d
	}
	return fullDomain
}

// fullDomain is the domain DomainOf reports for an unrestricted column.
// No operation modifies a domain it did not build, so it is shared.
var fullDomain = FullDomain()

// ApplyPredicate narrows m with the domains implied by pred's conjuncts and
// reports whether the combined constraints are satisfiable. Conjuncts that
// reference parameters or multiple columns contribute nothing (their
// checking happens at runtime — see StartupPredicate).
func (m Map) ApplyPredicate(pred expr.Expr) (satisfiable bool) {
	for _, c := range expr.SplitConjuncts(pred) {
		d := DerivePredicateDomainTarget(c)
		if d == nil {
			continue
		}
		nd := m.DomainOf(d.Col).Intersect(d.Domain)
		m[d.Col] = nd
		if nd.Empty() {
			return false
		}
	}
	return true
}

// ColDomain pairs a column with a derived domain.
type ColDomain struct {
	Col    expr.ColumnID
	Domain *Domain
}

// DerivePredicateDomainTarget derives a (column, domain) restriction from a
// single conjunct when possible: col op const, col IN (...), col BETWEEN
// (already split by the binder into >= and <=), and OR combinations over the
// same column — the paper's "CustomerId IN (1,5) OR CustomerId BETWEEN 50
// AND 100" example.
func DerivePredicateDomainTarget(c expr.Expr) *ColDomain {
	switch v := c.(type) {
	case *expr.Binary:
		if v.Op == expr.OpOr {
			l := DerivePredicateDomainTarget(v.L)
			r := DerivePredicateDomainTarget(v.R)
			if l != nil && r != nil && l.Col == r.Col {
				return &ColDomain{Col: l.Col, Domain: l.Domain.Union(r.Domain)}
			}
			return nil
		}
		if v.Op == expr.OpAnd {
			l := DerivePredicateDomainTarget(v.L)
			r := DerivePredicateDomainTarget(v.R)
			if l != nil && r != nil && l.Col == r.Col {
				return &ColDomain{Col: l.Col, Domain: l.Domain.Intersect(r.Domain)}
			}
			// One-sided derivations of an AND are still sound restrictions.
			if l != nil && r == nil {
				return l
			}
			if r != nil && l == nil {
				return r
			}
			return nil
		}
	case *expr.InList:
		if v.Negate {
			return nil
		}
		col, ok := v.E.(*expr.ColRef)
		if !ok {
			return nil
		}
		d := EmptyDomain()
		for _, mem := range v.List {
			cst, ok := mem.(*expr.Const)
			if !ok {
				return nil
			}
			if cst.Val.IsNull() {
				continue
			}
			d = d.Union(&Domain{Intervals: []Interval{Point(cst.Val)}})
		}
		return &ColDomain{Col: col.ID, Domain: d}
	}
	if col, op, val, ok := expr.SingleColumnComparison(c); ok {
		cst, isConst := val.(*expr.Const)
		if !isConst {
			return nil // parameterized: runtime startup filter territory
		}
		return &ColDomain{Col: col.ID, Domain: FromComparison(op, cst.Val)}
	}
	return nil
}

// StartupPredicate builds the runtime startup-filter predicate for a member
// whose partitioning column has domain d, against the conjunct "col op
// valExpr" with valExpr a parameter expression (e.g. @customerId): the
// filter admits execution only when some value of the domain can satisfy
// the conjunct (§4.1.5's "STARTUP(@customerId > 50)" example generalized to
// interval sets). For = that is "the parameter lies inside the domain"; for
// an inequality only the domain's far end matters — col < @p is satisfiable
// in [lo, hi] exactly when lo < @p. Open and closed ends are exact over a
// dense order; over integers (lo, hi) with @p = lo+1 still admits, which
// costs a probe, never a row. The intervals' terms are ORed. A NULL
// parameter makes every term NULL, so the member is pruned — col op NULL
// holds for no row. The result references only valExpr's parameters; nil
// means the conjunct cannot prune this domain (some interval is unbounded
// on the side that matters, or op is not one of = < <= > >=).
func StartupPredicate(d *Domain, op expr.Op, valExpr expr.Expr) expr.Expr {
	// above / below are "valExpr clears the interval's lower / upper end";
	// strict demands it even when the end itself belongs to the interval.
	above := func(iv Interval, strict bool) expr.Expr {
		if iv.LoUnbounded {
			return nil
		}
		cmp := expr.OpGe
		if strict || iv.LoOpen {
			cmp = expr.OpGt
		}
		return expr.NewBinary(cmp, valExpr, expr.NewConst(iv.Lo))
	}
	below := func(iv Interval, strict bool) expr.Expr {
		if iv.HiUnbounded {
			return nil
		}
		cmp := expr.OpLe
		if strict || iv.HiOpen {
			cmp = expr.OpLt
		}
		return expr.NewBinary(cmp, valExpr, expr.NewConst(iv.Hi))
	}
	if op != expr.OpEq && op != expr.OpLt && op != expr.OpLe && op != expr.OpGt && op != expr.OpGe {
		return nil
	}
	var out expr.Expr = expr.NewConst(sqltypes.NewBool(false))
	for i, iv := range d.Intervals {
		var t expr.Expr
		switch op {
		case expr.OpEq:
			t = expr.Conjoin([]expr.Expr{above(iv, false), below(iv, false)})
		case expr.OpLt, expr.OpLe:
			t = above(iv, op == expr.OpLt)
		default:
			t = below(iv, op == expr.OpGt)
		}
		if t == nil {
			return nil // this interval admits every parameter value
		}
		if i == 0 {
			out = t
		} else {
			out = expr.NewBinary(expr.OpOr, out, t)
		}
	}
	return out
}

// Describe renders a Map deterministically for diagnostics and tests.
func Describe(m Map) string {
	ids := make([]int, 0, len(m))
	for id := range m {
		ids = append(ids, int(id))
	}
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = fmt.Sprintf("col%d: %s", id, m[expr.ColumnID(id)])
	}
	return strings.Join(parts, "; ")
}
