// Package stats implements table statistics: equi-depth histograms with
// per-bucket distinct counts, cardinality and selectivity estimation, and
// the rowset encoding that lets remote providers ship histograms to the
// optimizer through the OLE DB statistics extension (paper §3.2.4 — "this
// commonly provides order of magnitude improvements on cardinality
// estimates").
package stats

import (
	"fmt"
	"io"
	"slices"

	"dhqp/internal/expr"
	"dhqp/internal/rowset"
	"dhqp/internal/schema"
	"dhqp/internal/sqltypes"
)

// Default selectivities used when no histogram is available — the "without
// remote statistics" behaviour that experiment E4 contrasts.
const (
	DefaultEqSelectivity    = 0.10
	DefaultRangeSelectivity = 0.30
	DefaultLikeSelectivity  = 0.25
	DefaultSelectivity      = 0.33
)

// Histogram is an equi-depth histogram over one column.
type Histogram struct {
	// NullCount is the number of NULL values (not represented in buckets).
	NullCount int64
	// TotalRows includes NULLs.
	TotalRows int64
	// Distinct estimates the number of distinct non-NULL values.
	Distinct int64
	// Buckets are ordered by UpperBound ascending. Bucket i covers values
	// in (Buckets[i-1].UpperBound, Buckets[i].UpperBound]; the first bucket
	// is bounded below by MinValue (inclusive).
	Buckets  []Bucket
	MinValue sqltypes.Value
}

// Bucket is one histogram step.
type Bucket struct {
	UpperBound sqltypes.Value
	// Rows counts rows in the bucket, including the upper bound.
	Rows int64
	// UpperRows counts rows exactly equal to UpperBound.
	UpperRows int64
	// Distinct counts distinct values in the bucket.
	Distinct int64
}

// Build constructs an equi-depth histogram with at most maxBuckets steps
// from a column's values. NULLs are counted separately.
func Build(values []sqltypes.Value, maxBuckets int) *Histogram {
	h := &Histogram{TotalRows: int64(len(values))}
	var nonNull []sqltypes.Value
	for _, v := range values {
		if v.IsNull() {
			h.NullCount++
		} else {
			nonNull = append(nonNull, v)
		}
	}
	if len(nonNull) == 0 {
		return h
	}
	slices.SortFunc(nonNull, sqltypes.Compare)
	h.MinValue = nonNull[0]
	if maxBuckets < 1 {
		maxBuckets = 1
	}
	per := (len(nonNull) + maxBuckets - 1) / maxBuckets
	i := 0
	for i < len(nonNull) {
		end := i + per
		if end > len(nonNull) {
			end = len(nonNull)
		}
		// Extend the bucket to include all duplicates of the boundary value
		// so a value never straddles buckets.
		for end < len(nonNull) && sqltypes.Equal(nonNull[end], nonNull[end-1]) {
			end++
		}
		ub := nonNull[end-1]
		b := Bucket{UpperBound: ub, Rows: int64(end - i)}
		distinct := int64(0)
		for j := i; j < end; j++ {
			if j == i || !sqltypes.Equal(nonNull[j], nonNull[j-1]) {
				distinct++
			}
			if sqltypes.Equal(nonNull[j], ub) {
				b.UpperRows++
			}
		}
		b.Distinct = distinct
		h.Distinct += distinct
		h.Buckets = append(h.Buckets, b)
		i = end
	}
	return h
}

// nonNullRows returns the row count covered by buckets.
func (h *Histogram) nonNullRows() int64 { return h.TotalRows - h.NullCount }

// SelectivityEq estimates the fraction of all rows equal to v.
func (h *Histogram) SelectivityEq(v sqltypes.Value) float64 {
	if h.TotalRows == 0 || v.IsNull() {
		return 0
	}
	prev := h.lowerBoundOf(0)
	for i, b := range h.Buckets {
		c := sqltypes.Compare(v, b.UpperBound)
		switch {
		case c == 0:
			return float64(b.UpperRows) / float64(h.TotalRows)
		case c < 0:
			if i == 0 {
				if sqltypes.Compare(v, h.MinValue) < 0 {
					return 0
				}
			} else if sqltypes.Compare(v, prev) <= 0 {
				prev = b.UpperBound
				continue
			}
			// Inside the bucket: uniform over its distinct values.
			d := b.Distinct
			if d < 1 {
				d = 1
			}
			return float64(b.Rows) / float64(d) / float64(h.TotalRows)
		}
		prev = b.UpperBound
	}
	return 0
}

// SelectivityRange estimates the fraction of rows in the interval (lo, hi)
// with the given inclusivity; nil bounds are unbounded.
func (h *Histogram) SelectivityRange(lo, hi sqltypes.Value, loIncl, hiIncl bool) float64 {
	if h.TotalRows == 0 {
		return 0
	}
	le := func(v sqltypes.Value, incl bool) float64 {
		// Rows with value <= v (or < v when !incl), as a fraction of all.
		if v.IsNull() {
			return 0
		}
		var acc float64
		for i, b := range h.Buckets {
			c := sqltypes.Compare(v, b.UpperBound)
			if c >= 0 {
				acc += float64(b.Rows)
				if c == 0 && !incl {
					acc -= float64(b.UpperRows)
				}
				if c == 0 {
					break
				}
				continue
			}
			// v falls inside bucket i: linear interpolation.
			loB := h.lowerBoundOf(i)
			frac := interpolate(loB, b.UpperBound, v)
			acc += frac * float64(b.Rows)
			break
		}
		return acc / float64(h.TotalRows)
	}
	var hiFrac float64
	if hi.IsNull() {
		hiFrac = float64(h.nonNullRows()) / float64(h.TotalRows)
	} else {
		hiFrac = le(hi, hiIncl)
	}
	var loFrac float64
	if !lo.IsNull() {
		loFrac = le(lo, !loIncl)
	}
	s := hiFrac - loFrac
	if s < 0 {
		s = 0
	}
	return s
}

// lowerBoundOf returns the exclusive lower bound value of bucket i (the
// previous bucket's upper bound, or MinValue for the first bucket).
func (h *Histogram) lowerBoundOf(i int) sqltypes.Value {
	if i == 0 {
		return h.MinValue
	}
	return h.Buckets[i-1].UpperBound
}

// interpolate estimates the fraction of (lo, hi] below v, linearly for
// numeric/date kinds and 0.5 otherwise.
func interpolate(lo, hi, v sqltypes.Value) float64 {
	lf, ok1 := asNumeric(lo)
	hf, ok2 := asNumeric(hi)
	vf, ok3 := asNumeric(v)
	if !ok1 || !ok2 || !ok3 || hf <= lf {
		return 0.5
	}
	f := (vf - lf) / (hf - lf)
	if f < 0 {
		f = 0
	}
	if f > 1 {
		f = 1
	}
	return f
}

func asNumeric(v sqltypes.Value) (float64, bool) {
	if v.Kind() == sqltypes.KindDate {
		return float64(v.DateDays()), true
	}
	return v.AsFloat()
}

// TableStats aggregates per-column histograms for one table, keyed by
// column name (case preserved from the schema).
type TableStats struct {
	RowCount   int64
	Histograms map[string]*Histogram
}

// Collect builds statistics for every indexed-or-requested column of a
// materialized sample. cols selects column ordinals to analyze (nil = all).
func Collect(cols []schema.Column, rows []rowset.Row, pick []int, maxBuckets int) *TableStats {
	ts := &TableStats{RowCount: int64(len(rows)), Histograms: map[string]*Histogram{}}
	if pick == nil {
		pick = make([]int, len(cols))
		for i := range cols {
			pick[i] = i
		}
	}
	for _, ord := range pick {
		vals := make([]sqltypes.Value, len(rows))
		for i, r := range rows {
			vals[i] = r[ord]
		}
		ts.Histograms[cols[ord].Name] = Build(vals, maxBuckets)
	}
	return ts
}

// HistogramColumns is the shape of a histogram rowset, mirroring the
// DBSCHEMA histogram rowsets of the OLE DB statistics extension.
func HistogramColumns() []schema.Column {
	return []schema.Column{
		{Name: "RANGE_HI_KEY", Kind: sqltypes.KindString},
		{Name: "RANGE_ROWS", Kind: sqltypes.KindInt},
		{Name: "EQ_ROWS", Kind: sqltypes.KindInt},
		{Name: "DISTINCT_RANGE_ROWS", Kind: sqltypes.KindInt},
	}
}

// ToRowset encodes the histogram as a rowset for shipping across the
// provider boundary. The key is rendered in literal syntax; FromRowset
// reverses it given the column kind.
func (h *Histogram) ToRowset() *rowset.Materialized {
	rows := make([]rowset.Row, 0, len(h.Buckets)+1)
	// First row carries totals: MinValue, TotalRows, NullCount, Distinct.
	rows = append(rows, rowset.Row{
		literalOf(h.MinValue),
		sqltypes.NewInt(h.TotalRows),
		sqltypes.NewInt(h.NullCount),
		sqltypes.NewInt(h.Distinct),
	})
	for _, b := range h.Buckets {
		rows = append(rows, rowset.Row{
			literalOf(b.UpperBound),
			sqltypes.NewInt(b.Rows),
			sqltypes.NewInt(b.UpperRows),
			sqltypes.NewInt(b.Distinct),
		})
	}
	return rowset.NewMaterialized(HistogramColumns(), rows)
}

func literalOf(v sqltypes.Value) sqltypes.Value {
	if v.IsNull() {
		return sqltypes.Null
	}
	return sqltypes.NewString(v.String())
}

// FromRowset decodes a histogram rowset produced by ToRowset from its
// columns, a batch at a time, and closes it. kind gives the column's value
// kind for key parsing.
func FromRowset(rs rowset.Rowset, kind sqltypes.Kind) (*Histogram, error) {
	defer rs.Close()
	var h *Histogram
	for b := rowset.NewBatch(0); ; {
		if err := rs.NextBatch(b); err == io.EOF {
			break
		} else if err != nil {
			return nil, err
		}
		key, rows, eq, distinct := b.Col(0), b.Col(1), b.Col(2), b.Col(3)
		for _, i := range b.Indices() {
			v, err := parseLiteral(key.Value(i), kind)
			if err != nil {
				return nil, err
			}
			if h == nil {
				// The first row carries the totals: MinValue, TotalRows,
				// NullCount, Distinct.
				h = &Histogram{MinValue: v, TotalRows: rows.Value(i).Int(), NullCount: eq.Value(i).Int(), Distinct: distinct.Value(i).Int()}
				continue
			}
			h.Buckets = append(h.Buckets, Bucket{UpperBound: v, Rows: rows.Value(i).Int(), UpperRows: eq.Value(i).Int(), Distinct: distinct.Value(i).Int()})
		}
	}
	if h == nil {
		return nil, fmt.Errorf("stats: empty histogram rowset")
	}
	return h, nil
}

func parseLiteral(v sqltypes.Value, kind sqltypes.Kind) (sqltypes.Value, error) {
	if v.IsNull() {
		return sqltypes.Null, nil
	}
	s := v.Str()
	if len(s) >= 2 && s[0] == '\'' && s[len(s)-1] == '\'' {
		inner := s[1 : len(s)-1]
		if kind == sqltypes.KindDate {
			return sqltypes.ParseDate(inner)
		}
		return sqltypes.NewString(inner), nil
	}
	return sqltypes.Coerce(sqltypes.NewString(s), kind)
}

// Estimator resolves a column reference to its histogram (and the table's
// row count); the memo's cardinality derivation supplies one per query.
type Estimator struct {
	// Lookup returns the histogram for a column ID, or nil.
	Lookup func(expr.ColumnID) *Histogram
}

// Selectivity estimates the fraction of rows satisfying pred. Conjuncts
// multiply (independence assumption); disjuncts add with overlap correction.
func (e *Estimator) Selectivity(pred expr.Expr) float64 {
	if pred == nil {
		return 1
	}
	sel := 1.0
	for _, c := range expr.SplitConjuncts(pred) {
		sel *= e.conjunctSelectivity(c)
	}
	if sel < 0 {
		sel = 0
	}
	if sel > 1 {
		sel = 1
	}
	return sel
}

func (e *Estimator) conjunctSelectivity(c expr.Expr) float64 {
	switch v := c.(type) {
	case *expr.Binary:
		if v.Op == expr.OpOr {
			l := e.conjunctSelectivity(v.L)
			r := e.conjunctSelectivity(v.R)
			s := l + r - l*r
			if s > 1 {
				return 1
			}
			return s
		}
	case *expr.InList:
		if col, ok := v.E.(*expr.ColRef); ok {
			var s float64
			for _, m := range v.List {
				if cst, ok := m.(*expr.Const); ok {
					s += e.eqSelectivity(col, cst.Val)
				} else {
					s += e.paramEqSelectivity(col)
				}
			}
			if v.Negate {
				s = 1 - s
			}
			if s > 1 {
				s = 1
			}
			if s < 0 {
				s = 0
			}
			return s
		}
		return DefaultSelectivity
	case *expr.Like:
		return DefaultLikeSelectivity
	case *expr.IsNull:
		return DefaultEqSelectivity
	case *expr.Contains:
		return DefaultLikeSelectivity
	case *expr.Unary:
		if v.Op == expr.OpNot {
			return 1 - e.conjunctSelectivity(v.E)
		}
	}
	if col, op, val, ok := expr.SingleColumnComparison(c); ok {
		cst, isConst := val.(*expr.Const)
		if !isConst {
			// Parameterized: the value is unknown but the column's NDV
			// still bounds an equality's selectivity.
			if op == expr.OpEq {
				return e.paramEqSelectivity(col)
			}
			return DefaultRangeSelectivity
		}
		h := e.lookup(col)
		if h == nil {
			if op == expr.OpEq {
				return DefaultEqSelectivity
			}
			if op == expr.OpNe {
				return 1 - DefaultEqSelectivity
			}
			return DefaultRangeSelectivity
		}
		switch op {
		case expr.OpEq:
			return h.SelectivityEq(cst.Val)
		case expr.OpNe:
			return 1 - h.SelectivityEq(cst.Val)
		case expr.OpLt:
			return h.SelectivityRange(sqltypes.Null, cst.Val, false, false)
		case expr.OpLe:
			return h.SelectivityRange(sqltypes.Null, cst.Val, false, true)
		case expr.OpGt:
			return h.SelectivityRange(cst.Val, sqltypes.Null, false, false)
		case expr.OpGe:
			return h.SelectivityRange(cst.Val, sqltypes.Null, true, false)
		}
	}
	// Column-to-column equality estimates like an equi-join: 1/max(NDV).
	// A WHERE-clause join predicate sitting above a cross join then gets
	// the same cardinality the equivalent ON-clause join would.
	if b, ok := c.(*expr.Binary); ok && b.Op == expr.OpEq {
		if lc, lok := b.L.(*expr.ColRef); lok {
			if rc, rok := b.R.(*expr.ColRef); rok {
				return e.JoinSelectivity(lc.ID, rc.ID)
			}
		}
	}
	// Opaque predicate.
	return DefaultSelectivity
}

// paramEqSelectivity estimates "col = @param" without a value: 1/NDV under
// a uniformity assumption, the same formula JoinSelectivity uses. Batched
// IN-lists of parameters sum it per member, so a K-slot batch probe
// estimates K/NDV of the table instead of saturating at the default.
func (e *Estimator) paramEqSelectivity(col *expr.ColRef) float64 {
	if h := e.lookup(col); h != nil && h.Distinct > 0 {
		return 1 / float64(h.Distinct)
	}
	return DefaultEqSelectivity
}

func (e *Estimator) eqSelectivity(col *expr.ColRef, v sqltypes.Value) float64 {
	if h := e.lookup(col); h != nil {
		return h.SelectivityEq(v)
	}
	return DefaultEqSelectivity
}

func (e *Estimator) lookup(col *expr.ColRef) *Histogram {
	if e == nil || e.Lookup == nil {
		return nil
	}
	return e.Lookup(col.ID)
}

// JoinSelectivity estimates equi-join selectivity as 1/max(distinct(l),
// distinct(r)), the classic System-R formula, falling back to
// DefaultEqSelectivity without statistics.
func (e *Estimator) JoinSelectivity(left, right expr.ColumnID) float64 {
	var dl, dr int64
	if e != nil && e.Lookup != nil {
		if h := e.Lookup(left); h != nil {
			dl = h.Distinct
		}
		if h := e.Lookup(right); h != nil {
			dr = h.Distinct
		}
	}
	d := dl
	if dr > d {
		d = dr
	}
	if d <= 0 {
		return DefaultEqSelectivity
	}
	return 1 / float64(d)
}
