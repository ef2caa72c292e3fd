package oracle

import (
	"fmt"
	"slices"
	"strings"
)

// Expr is a scalar expression of a drawn statement.
type Expr interface {
	sql() string
	eval(s *scope) Cell
}

// Col is a column reference, always qualified by its table alias.
type Col struct{ Q, Name string }

// Lit is a constant.
type Lit struct{ C Cell }

// Param is an @name parameter, bound from Stmt.Params.
type Param struct{ Name string }

// Arith is L Op R for Op one of + - *.
type Arith struct {
	Op   string
	L, R Expr
}

func (c Col) sql() string   { return c.Q + "." + c.Name }
func (l Lit) sql() string   { return l.C.literal() }
func (p Param) sql() string { return "@" + p.Name }
func (a Arith) sql() string { return "(" + a.L.sql() + " " + a.Op + " " + a.R.sql() + ")" }

func (c Col) eval(s *scope) Cell   { return s.lookup(c.Q, c.Name) }
func (l Lit) eval(*scope) Cell     { return l.C }
func (p Param) eval(s *scope) Cell { return s.param(p.Name) }
func (a Arith) eval(s *scope) Cell { return arith(a.Op, a.L.eval(s), a.R.eval(s)) }

// Pred is a search condition, evaluated in three-valued logic.
type Pred interface {
	sql() string
	test(s *scope) TV
}

// Cmp is L Op R for Op one of = <> < <= > >=.
type Cmp struct {
	Op   string
	L, R Expr
}

// And, Or and Not are the connectives.
type And struct{ L, R Pred }
type Or struct{ L, R Pred }
type Not struct{ P Pred }

// IsNull is E IS NULL, or E IS NOT NULL when Neg is set.
type IsNull struct {
	E   Expr
	Neg bool
}

// Like is E LIKE 'Prefix%'.
type Like struct {
	E      Expr
	Prefix string
}

// Exists is EXISTS (Sub), or NOT EXISTS when Neg is set. Sub may refer to
// the enclosing statement's aliases.
type Exists struct {
	Neg bool
	Sub *Select
}

// In is E IN (Sub), Sub having one output column.
type In struct {
	E   Expr
	Sub *Select
}

func (c Cmp) sql() string { return "(" + c.L.sql() + " " + c.Op + " " + c.R.sql() + ")" }
func (a And) sql() string { return "(" + a.L.sql() + " AND " + a.R.sql() + ")" }
func (o Or) sql() string  { return "(" + o.L.sql() + " OR " + o.R.sql() + ")" }
func (n Not) sql() string { return "NOT " + n.P.sql() }
func (n IsNull) sql() string {
	if n.Neg {
		return "(" + n.E.sql() + " IS NOT NULL)"
	}
	return "(" + n.E.sql() + " IS NULL)"
}
func (l Like) sql() string { return "(" + l.E.sql() + " LIKE '" + l.Prefix + "%')" }
func (e Exists) sql() string {
	if e.Neg {
		return "NOT EXISTS (" + e.Sub.SQL() + ")"
	}
	return "EXISTS (" + e.Sub.SQL() + ")"
}
func (i In) sql() string { return "(" + i.E.sql() + " IN (" + i.Sub.SQL() + "))" }

func (c Cmp) test(s *scope) TV { return compareOp(c.Op, c.L.eval(s), c.R.eval(s)) }
func (a And) test(s *scope) TV { return and(a.L.test(s), a.R.test(s)) }
func (o Or) test(s *scope) TV  { return or(o.L.test(s), o.R.test(s)) }
func (n Not) test(s *scope) TV { return not(n.P.test(s)) }
func (n IsNull) test(s *scope) TV {
	return tvOf((n.E.eval(s).K == Null) != n.Neg)
}
func (l Like) test(s *scope) TV { return likePrefix(l.E.eval(s), l.Prefix) }
func (e Exists) test(s *scope) TV {
	found := len(s.db.run(e.Sub, s)) > 0
	return tvOf(found != e.Neg)
}

// test is SQL's IN: true on an equal member, unknown when the probe is
// NULL or no member is equal but one is NULL, false otherwise.
func (i In) test(s *scope) TV {
	v := i.E.eval(s)
	if v.K == Null {
		return Unknown
	}
	res := False
	for _, r := range s.db.run(i.Sub, s) {
		res = or(res, compareOp("=", v, r[0]))
	}
	return res
}

// Agg is an aggregate output column. Arg nil is COUNT(*).
type Agg struct {
	Fn       string // COUNT, SUM, AVG, MIN, MAX
	Arg      Expr
	Distinct bool
}

func (a *Agg) sql() string {
	if a.Arg == nil {
		return "COUNT(*)"
	}
	if a.Distinct {
		return a.Fn + "(DISTINCT " + a.Arg.sql() + ")"
	}
	return a.Fn + "(" + a.Arg.sql() + ")"
}

// over computes the aggregate over one group's rows.
func (a *Agg) over(rows []*scope) Cell {
	if a.Arg == nil {
		return IntCell(int64(len(rows)))
	}
	var vals []Cell
	for _, r := range rows {
		v := a.Arg.eval(r)
		if v.K == Null {
			continue // aggregates skip NULLs
		}
		if a.Distinct && slices.ContainsFunc(vals, func(w Cell) bool { return Compare(v, w) == 0 }) {
			continue
		}
		vals = append(vals, v)
	}
	if a.Fn == "COUNT" {
		return IntCell(int64(len(vals)))
	}
	if len(vals) == 0 {
		return Cell{}
	}
	switch a.Fn {
	case "MIN", "MAX":
		best := vals[0]
		for _, v := range vals[1:] {
			if c := Compare(v, best); (a.Fn == "MIN") == (c < 0) && c != 0 {
				best = v
			}
		}
		return best
	}
	var isum int64
	var fsum float64
	float := false
	for _, v := range vals {
		if v.K == Float {
			float = true
			fsum += v.F
		} else {
			isum += v.I
		}
	}
	if a.Fn == "AVG" {
		return FloatCell((float64(isum) + fsum) / float64(len(vals)))
	}
	if float {
		return FloatCell(float64(isum) + fsum)
	}
	return IntCell(isum)
}

// Item is one output column: an expression, or an aggregate.
type Item struct {
	E   Expr
	Agg *Agg
}

// Ref names a table (or view) and its alias.
type Ref struct{ Table, Alias string }

// Join is [LEFT] JOIN Ref ON On.
type Join struct {
	Ref
	Left bool
	On   Pred
}

// Order is one ORDER BY key: an output position.
type Order struct {
	Pos  int
	Desc bool
}

// Select is one query block. Output column i is named c<i>.
type Select struct {
	Top   int
	Items []Item // nil: SELECT * (EXISTS subqueries)
	From  Ref
	Joins []Join
	Where Pred
	Group []Expr
	Order []Order
}

// SQL renders the block.
func (q *Select) SQL() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if q.Top > 0 {
		fmt.Fprintf(&b, "TOP %d ", q.Top)
	}
	if q.Items == nil {
		b.WriteString("*")
	}
	for i, it := range q.Items {
		if i > 0 {
			b.WriteString(", ")
		}
		if it.Agg != nil {
			b.WriteString(it.Agg.sql())
		} else {
			b.WriteString(it.E.sql())
		}
		fmt.Fprintf(&b, " AS c%d", i)
	}
	fmt.Fprintf(&b, " FROM %s %s", q.From.Table, q.From.Alias)
	for _, j := range q.Joins {
		if j.Left {
			b.WriteString(" LEFT")
		}
		fmt.Fprintf(&b, " JOIN %s %s ON %s", j.Table, j.Alias, j.On.sql())
	}
	if q.Where != nil {
		b.WriteString(" WHERE " + q.Where.sql())
	}
	for i, g := range q.Group {
		if i == 0 {
			b.WriteString(" GROUP BY ")
		} else {
			b.WriteString(", ")
		}
		b.WriteString(g.sql())
	}
	for i, o := range q.Order {
		if i == 0 {
			b.WriteString(" ORDER BY ")
		} else {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "c%d", o.Pos)
		if o.Desc {
			b.WriteString(" DESC")
		}
	}
	return b.String()
}

// grouped reports whether the block aggregates.
func (q *Select) grouped() bool {
	return len(q.Group) > 0 || slices.ContainsFunc(q.Items, func(it Item) bool { return it.Agg != nil })
}

// Stmt is a drawn statement: one block, or the UNION ALL of several.
type Stmt struct {
	Family string
	Arms   []*Select
	Params map[string]Cell
}

// SQL renders the statement.
func (st *Stmt) SQL() string {
	parts := make([]string, len(st.Arms))
	for i, a := range st.Arms {
		parts[i] = a.SQL()
	}
	return strings.Join(parts, " UNION ALL ")
}

// scope is one row being evaluated: the values of every alias in the
// block, and the enclosing block's row for correlated references.
type scope struct {
	db     *DB
	names  map[string]int // "alias.column" -> position in row
	row    []Cell
	parent *scope
	params map[string]Cell
}

func (s *scope) lookup(q, name string) Cell {
	for sc := s; sc != nil; sc = sc.parent {
		if i, ok := sc.names[q+"."+name]; ok {
			return sc.row[i]
		}
	}
	panic("oracle: unknown column " + q + "." + name)
}

func (s *scope) param(name string) Cell {
	v, ok := s.params[name]
	if !ok {
		panic("oracle: unbound parameter @" + name)
	}
	return v
}

// run evaluates one block under an enclosing row (nil at the top).
func (db *DB) run(q *Select, parent *scope) [][]Cell {
	var params map[string]Cell
	if parent != nil {
		params = parent.params
	}
	return db.block(q, parent, params)
}

func (db *DB) block(q *Select, parent *scope, params map[string]Cell) [][]Cell {
	names := map[string]int{}
	add := func(r Ref) (*Table, int) {
		t := db.Table(r.Table)
		base := len(names)
		for i, c := range t.Cols {
			names[r.Alias+"."+c.Name] = base + i
		}
		return t, len(t.Cols)
	}
	at := func(row []Cell) *scope {
		return &scope{db: db, names: names, row: row, parent: parent, params: params}
	}
	t, _ := add(q.From)
	rows := slices.Clone(t.Rows)
	for _, j := range q.Joins {
		rt, w := add(j.Ref)
		var out [][]Cell
		for _, l := range rows {
			matched := false
			for _, r := range rt.Rows {
				row := append(slices.Clone(l), r...)
				if j.On.test(at(row)) == True {
					out, matched = append(out, row), true
				}
			}
			if j.Left && !matched {
				out = append(out, append(slices.Clone(l), make([]Cell, w)...))
			}
		}
		rows = out
	}
	var kept []*scope
	for _, r := range rows {
		if s := at(r); q.Where == nil || q.Where.test(s) == True {
			kept = append(kept, s)
		}
	}
	if q.Items == nil {
		out := make([][]Cell, len(kept))
		for i, s := range kept {
			out[i] = s.row
		}
		return out
	}
	var groups [][]*scope
	if !q.grouped() {
		for _, s := range kept {
			groups = append(groups, []*scope{s})
		}
	} else {
		groups = group(q.Group, kept)
	}
	var out [][]Cell
	for _, g := range groups {
		row := make([]Cell, len(q.Items))
		for i, it := range q.Items {
			if it.Agg != nil {
				row[i] = it.Agg.over(g)
			} else {
				row[i] = it.E.eval(g[0])
			}
		}
		out = append(out, row)
	}
	if len(q.Order) > 0 {
		slices.SortStableFunc(out, func(a, b []Cell) int { return compareKeys(q.Order, a, b) })
	}
	if q.Top > 0 && len(out) > q.Top {
		out = out[:q.Top]
	}
	return out
}

// group partitions rows by the grouping expressions, NULLs forming one
// group, in first-seen order. A block with aggregates and no GROUP BY has
// its one group even over no rows.
func group(keys []Expr, rows []*scope) [][]*scope {
	if len(keys) == 0 {
		return [][]*scope{rows}
	}
	var groups [][]*scope
	var gkeys [][]Cell
	for _, r := range rows {
		k := make([]Cell, len(keys))
		for i, e := range keys {
			k[i] = e.eval(r)
		}
		g := slices.IndexFunc(gkeys, func(o []Cell) bool {
			return slices.EqualFunc(k, o, func(a, b Cell) bool { return Compare(a, b) == 0 })
		})
		if g < 0 {
			g = len(groups)
			groups, gkeys = append(groups, nil), append(gkeys, k)
		}
		groups[g] = append(groups[g], r)
	}
	return groups
}

func compareKeys(order []Order, a, b []Cell) int {
	for _, o := range order {
		c := Compare(a[o.Pos], b[o.Pos])
		if o.Desc {
			c = -c
		}
		if c != 0 {
			return c
		}
	}
	return 0
}

// Eval computes the statement's answer.
func (db *DB) Eval(st *Stmt) [][]Cell {
	var out [][]Cell
	for _, a := range st.Arms {
		out = append(out, db.block(a, nil, st.Params)...)
	}
	return out
}

// Check compares an answer with the oracle's. Rows compare cell by cell,
// kinds included. A statement ordered on every output column must match in
// order; one ordered on fewer columns must match as a multiset and come
// back sorted on its keys; any other as a multiset. A TOP without ORDER
// BY may return any of the rows, so it must return as many as it can of
// them. (A TOP over a partial order is never drawn: neither is its answer
// determined, nor is it simply any subset.)
func (db *DB) Check(st *Stmt, got [][]Cell) error {
	if st.anyTop() {
		return db.checkAnyTop(st, got)
	}
	return compareAnswers(st, got, db.Eval(st))
}

// Agree compares two answers to st, got with want, by Check's rules; two
// answers to an unordered TOP agree when they have as many rows (Check
// holds each to the statement's rows).
func Agree(st *Stmt, got, want [][]Cell) error {
	if st.anyTop() {
		if len(got) != len(want) {
			return fmt.Errorf("%d rows, the other answer %d", len(got), len(want))
		}
		return nil
	}
	return compareAnswers(st, got, want)
}

// anyTop reports whether st is a TOP without ORDER BY.
func (st *Stmt) anyTop() bool {
	q := st.Arms[0]
	return len(st.Arms) == 1 && q.Top > 0 && len(q.Order) == 0
}

// compareAnswers compares got with want: in order when st orders every
// output column, otherwise as multisets, got sorted on st's keys.
func compareAnswers(st *Stmt, got, want [][]Cell) error {
	order, total := st.order()
	if !total {
		if order != nil {
			for i := 1; i < len(got); i++ {
				if len(got[i]) == len(got[i-1]) && compareKeys(order, got[i-1], got[i]) > 0 {
					return fmt.Errorf("rows %d and %d are out of order: %s then %s", i-1, i, rowString(got[i-1]), rowString(got[i]))
				}
			}
		}
		got, want = sortedRows(got), sortedRows(want)
	}
	for i := 0; i < max(len(got), len(want)); i++ {
		if i >= len(got) || i >= len(want) || !slices.EqualFunc(got[i], want[i], Same) {
			return fmt.Errorf("%d rows, want %d; first difference at row %d:\n  got  %s\n  want %s",
				len(got), len(want), i, rowAt(got, i), rowAt(want, i))
		}
	}
	return nil
}

// checkAnyTop checks an unordered TOP n: min(n, rows) of the rows the
// block returns without it, each at most as often as it occurs there.
func (db *DB) checkAnyTop(st *Stmt, got [][]Cell) error {
	q := *st.Arms[0]
	q.Top = 0
	all := db.block(&q, nil, st.Params)
	if want := min(st.Arms[0].Top, len(all)); len(got) != want {
		return fmt.Errorf("%d rows, want %d of the %d the statement has without TOP", len(got), want, len(all))
	}
	left := map[string]int{}
	for _, r := range all {
		left[rowString(r)]++
	}
	for i, r := range got {
		if left[rowString(r)]--; left[rowString(r)] < 0 {
			return fmt.Errorf("row %d %s is not among the statement's rows (or repeats too often)", i, rowString(r))
		}
	}
	return nil
}

// order returns the statement's ORDER BY and whether it fixes the row
// order completely: rows that tie on every output column are identical.
func (st *Stmt) order() ([]Order, bool) {
	if len(st.Arms) != 1 || len(st.Arms[0].Order) == 0 {
		return nil, false
	}
	q := st.Arms[0]
	covered := make([]bool, len(q.Items))
	for _, o := range q.Order {
		covered[o.Pos] = true
	}
	return q.Order, !slices.Contains(covered, false)
}

func rowString(r []Cell) string {
	parts := make([]string, len(r))
	for i, c := range r {
		parts[i] = c.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

func rowAt(rows [][]Cell, i int) string {
	if i >= len(rows) {
		return "(none)"
	}
	return rowString(rows[i])
}

func sortedRows(rows [][]Cell) [][]Cell {
	out := slices.Clone(rows)
	slices.SortFunc(out, func(a, b []Cell) int { return strings.Compare(rowString(a), rowString(b)) })
	return out
}
