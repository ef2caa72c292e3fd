package oracle

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
)

// Column is a table column.
type Column struct {
	Name string
	K    Kind
}

// Table is a table a test loads, with the rows it holds once its script
// has run.
type Table struct {
	Name   string
	Cols   []Column
	Rows   [][]Cell
	Check  string   // a CHECK constraint on the first column, for partition members
	Script []string // CREATE TABLE, INSERT and DELETE statements, in order
}

// View is a partitioned view: the UNION ALL of its member tables, which
// share one column list.
type View struct {
	Name    string
	Members []string
}

// DB is the data every statement reads.
type DB struct {
	Tables []*Table
	Views  []*View
	byName map[string]*Table // tables and views; a view's rows are its members'
}

// Table returns the named table or view.
func (db *DB) Table(name string) *Table {
	t, ok := db.byName[name]
	if !ok {
		panic("oracle: unknown table " + name)
	}
	return t
}

// ViewSQL renders a view's definition over its members, each member name
// mapped through member (a linked-server name, say).
func (db *DB) ViewSQL(v *View, member func(string) string) string {
	cols := db.Table(v.Name).Cols
	names := make([]string, len(cols))
	for i, c := range cols {
		names[i] = c.Name
	}
	arms := make([]string, len(v.Members))
	for i, m := range v.Members {
		arms[i] = "SELECT " + strings.Join(names, ", ") + " FROM " + member(m)
	}
	return "CREATE VIEW " + v.Name + " AS " + strings.Join(arms, " UNION ALL ")
}

// Script is everything that loads the database into one server.
func (db *DB) Script() []string {
	var out []string
	for _, t := range db.Tables {
		out = append(out, t.Script...)
	}
	for _, v := range db.Views {
		out = append(out, db.ViewSQL(v, func(m string) string { return m }))
	}
	return out
}

// NewDB builds the fixed database. Its sizes put each family's target
// operator in the plans: a 300-row fact table against small dimensions
// hashes, tables of a dozen rows loop, a filtered dimension seeks the fact
// table's index once per outer row, and four CHECK-constrained members
// under a parameter window prune at startup. Columns are NULL-heavy, keys
// repeat on both sides of every join, FLOATs are multiples of 1/4 so that
// sums are exact in any order, two tables carry INT keys past 2^53
// that agree as float64 and differ as INTs, and the fact table carries a
// BIT and a DATE column.
func NewDB() *DB {
	db := &DB{byName: map[string]*Table{}}
	I, F, S := Int, Float, Str
	n, i, f, s := Cell{}, IntCell, FloatCell, StrCell
	strs := []string{"ax", "bx", "ay", "by", "cz"}
	const jan2024 = 19723 // 2024-01-01 in days since 1970-01-01
	fact := db.add("fact", []Column{{"id", I}, {"k1", I}, {"k2", I}, {"v", I}, {"f", F}, {"s", S}, {"bt", Bit}, {"dt", Date}}, 300, func(r int) []Cell {
		row := []Cell{i(int64(r)), i(int64(r * 7 % 23)), i(int64(r * 5 % 13)), i(int64(r % 10)), f(float64(r%9-4) / 4), s(strs[r%5]),
			BitCell(r%3 == 1), DateCell(jan2024 + int64(r*11%45))}
		for j, every := range []int{0, 17, 0, 11, 13, 19, 7, 9} {
			if every > 0 && r%every == j%every {
				row[j] = n
			}
		}
		return row
	})
	fact.Script = append(fact.Script, "CREATE INDEX ix_fact_k1 ON fact (k1)")
	dim1 := db.add("dim1", []Column{{"k", I}, {"name", S}, {"w", I}}, 22, func(r int) []Cell {
		switch r {
		case 20:
			return []Cell{n, s("nn"), i(3)}
		case 21:
			return []Cell{i(3), s("dup3"), i(5)}
		}
		return []Cell{i(int64(r)), s(fmt.Sprintf("n%02d", r%16)), i(int64(r % 7))}
	})
	dim1.Script = append(dim1.Script, "CREATE INDEX ix_dim1_k ON dim1 (k)")
	db.fixed("dim2", []Column{{"k", I}, {"w", I}, {"g", F}}, [][]Cell{
		{i(0), i(3), f(1.5)}, {i(1), i(5), n}, {i(2), i(7), f(2.5)}, {i(2), i(2), f(0.5)}, {i(4), i(9), f(-1)},
		{i(5), i(1), f(2.5)}, {n, i(4), f(1)}, {i(8), i(6), f(0)}, {i(11), i(5), n},
	})
	db.fixed("t1", []Column{{"a", I}, {"b", I}, {"s", S}}, [][]Cell{
		{i(0), i(5), s("x0")}, {i(1), n, s("x1")}, {i(2), i(5), s("y2")}, {n, i(5), s("x3")},
		{i(4), i(4), s("y4")}, {i(5), n, s("x5")}, {i(6), i(5), s("y6")}, {n, n, s("x7")},
		{i(8), i(8), s("y8")}, {i(9), i(5), s("x9")}, {i(2), i(5), s("y10")}, {i(4), i(1), s("x11")},
	})
	db.fixed("t2", []Column{{"k", I}, {"v", I}}, [][]Cell{
		{i(0), i(100)}, {i(2), i(200)}, {i(2), i(201)}, {i(4), i(400)}, {n, i(999)}, {i(6), i(600)}, {i(12), i(120)},
	})
	db.fixed("t0", []Column{{"z", I}}, nil)
	db.fixed("t3", []Column{{"i", I}, {"f", F}, {"s", S}}, [][]Cell{
		{i(1), f(1.5), s("aa")}, {n, f(2.5), n}, {i(3), n, s("cc")}, {i(4), f(4), s("dd")},
		{n, n, n}, {i(6), f(1.5), s("aa")}, {i(7), f(-7.25), s("gg")}, {n, f(2.5), s("hh")},
		{i(9), n, n}, {i(3), f(3), s("cc")}, {i(11), f(11.5), s("kk")}, {n, f(1.5), s("aa")},
	})
	// td has holes: every third row of its first half, and its last, are
	// deleted after the load, so scans skip dead slots.
	td := db.add("td", []Column{{"a", I}, {"b", S}, {"c", F}, {"d", I}}, 40, func(r int) []Cell {
		row := []Cell{i(int64(r)), s(fmt.Sprintf("b%d", r)), f(float64(r) + 0.5), i(int64(r % 6))}
		if r%5 == 0 {
			row[1] = n
		}
		if r%7 == 0 {
			row[2] = n
		}
		return row
	})
	td.Script = append(td.Script, "DELETE FROM td WHERE a = 0 OR a = 3 OR a = 6 OR a = 9 OR a = 12 OR a = 15 OR a = 18 OR a = 39")
	td.Rows = slices.DeleteFunc(td.Rows, func(r []Cell) bool { return (r[0].I < 19 && r[0].I%3 == 0) || r[0].I == 39 })
	const lo, hi = 1 << 53, 1<<53 + 1
	db.add("ka", []Column{{"k", I}, {"v", I}}, 300, func(r int) []Cell { return []Cell{i(hi), i(int64(r))} })
	db.add("kb", []Column{{"k", I}, {"w", I}}, 300, func(r int) []Cell { return []Cell{i(lo), i(int64(r))} })
	db.fixed("kg", []Column{{"k", I}, {"v", I}}, [][]Cell{{i(lo), i(1)}, {i(hi), i(10)}, {i(lo), i(2)}, {i(hi), i(20)}, {i(hi), i(30)}})
	pv := &View{Name: "pv"}
	pcols := []Column{{"pk", I}, {"grp", I}, {"amt", I}, {"name", S}}
	for m := 0; m < 4; m++ {
		name := fmt.Sprintf("p%d", m)
		t := db.add(name, pcols, 50, func(r int) []Cell {
			pk := m*100 + 2*r
			row := []Cell{i(int64(pk)), i(int64(pk % 6)), i(int64(pk * 7 % 50)), s(fmt.Sprintf("m%d", pk%4))}
			if pk%9 == 0 {
				row[2] = n
			}
			return row
		})
		t.Check = fmt.Sprintf("pk >= %d AND pk < %d", m*100, (m+1)*100)
		t.Script[0] = createSQL(t)
		pv.Members = append(pv.Members, name)
	}
	db.addView(pv)
	return db
}

// add makes an n-row table from a row function.
func (db *DB) add(name string, cols []Column, n int, row func(r int) []Cell) *Table {
	rows := make([][]Cell, n)
	for r := range rows {
		rows[r] = row(r)
	}
	return db.fixed(name, cols, rows)
}

// fixed makes a table of the given rows.
func (db *DB) fixed(name string, cols []Column, rows [][]Cell) *Table {
	t := &Table{Name: name, Cols: cols, Rows: rows}
	t.Script = []string{createSQL(t)}
	for lo := 0; lo < len(rows); lo += 100 {
		vals := make([]string, 0, 100)
		for _, r := range rows[lo:min(lo+100, len(rows))] {
			lits := make([]string, len(r))
			for j, c := range r {
				lits[j] = c.literal()
			}
			vals = append(vals, "("+strings.Join(lits, ", ")+")")
		}
		t.Script = append(t.Script, "INSERT INTO "+name+" VALUES "+strings.Join(vals, ", "))
	}
	db.Tables = append(db.Tables, t)
	db.byName[name] = t
	return t
}

func (db *DB) addView(v *View) {
	u := &Table{Name: v.Name, Cols: db.Table(v.Members[0]).Cols}
	for _, m := range v.Members {
		u.Rows = append(u.Rows, db.Table(m).Rows...)
	}
	db.Views = append(db.Views, v)
	db.byName[v.Name] = u
}

func createSQL(t *Table) string {
	defs := make([]string, len(t.Cols))
	for i, c := range t.Cols {
		defs[i] = c.Name + " " + map[Kind]string{Int: "INT", Float: "FLOAT", Str: "VARCHAR(16)", Bit: "BIT", Date: "DATE"}[c.K]
	}
	if t.Check != "" {
		defs[0] += " NOT NULL CHECK (" + t.Check + ")"
	}
	return "CREATE TABLE " + t.Name + " (" + strings.Join(defs, ", ") + ")"
}

// Families are the shape families the generator draws, each with the
// plan operators at least one of its drawn plans must contain over local
// tables.
var Families = []struct {
	Name    string
	Targets []string
}{
	{"filter", []string{"Filter"}},
	{"project", []string{"Compute"}},
	{"join", []string{"HashJoin", "LoopJoin"}},
	{"subquery", []string{"LoopJoin"}},
	{"group", []string{"HashAgg", "StreamAgg"}},
	{"top", []string{"Sort", "TopN"}},
	{"union", []string{"Concat", "StartupFilter"}},
}

// Cases returns the fixed cases followed by perFamily statements drawn per
// family from seed.
func (db *DB) Cases(seed int64, perFamily int) []*Stmt {
	cases := Seeds()
	g := &gen{r: rand.New(rand.NewSource(seed)), db: db}
	for _, fam := range Families {
		for k := 0; k < perFamily; k++ {
			cases = append(cases, g.draw(fam.Name))
		}
	}
	return cases
}

// DrawExpr draws one statement for expression fuzzing from seed: computed
// columns and a nested search condition over one table, which may also
// compare a computed value.
func (db *DB) DrawExpr(seed int64) *Stmt {
	g := &gen{r: rand.New(rand.NewSource(seed)), db: db}
	t := g.pick("fact", "t1", "t3", "td")
	q := &Select{From: Ref{t.Name, "a"}, Where: g.pred("a", t, 3)}
	for k := 1 + g.r.Intn(3); k > 0; k-- {
		q.Items = append(q.Items, Item{E: g.arith("a", t)})
	}
	q.Items = append(q.Items, g.items("a", t, 2)...)
	if g.r.Intn(2) == 0 {
		c := Cmp{g.op(), g.arith("a", t), Lit{IntCell(int64(g.r.Intn(9)))}}
		if g.r.Intn(2) == 0 {
			q.Where = And{q.Where, c}
		} else {
			q.Where = Or{c, q.Where}
		}
	}
	return &Stmt{Family: "expr", Arms: []*Select{q}}
}

type gen struct {
	r  *rand.Rand
	db *DB
}

func (g *gen) pick(names ...string) *Table { return g.db.Table(names[g.r.Intn(len(names))]) }

// cols lists t's columns of the given kinds (any kind when none is given).
func cols(t *Table, kinds ...Kind) []Column {
	var out []Column
	for _, c := range t.Cols {
		if len(kinds) == 0 || slices.Contains(kinds, c.K) {
			out = append(out, c)
		}
	}
	return out
}

func (g *gen) col(q string, t *Table, kinds ...Kind) Col {
	cs := cols(t, kinds...)
	return Col{q, cs[g.r.Intn(len(cs))].Name}
}

// items draws 1..max distinct plain columns of t.
func (g *gen) items(q string, t *Table, max int) []Item {
	var out []Item
	for _, j := range g.r.Perm(len(t.Cols))[:1+g.r.Intn(min(max, len(t.Cols)))] {
		out = append(out, Item{E: Col{q, t.Cols[j].Name}})
	}
	return out
}

// sample draws a value of column name from t's rows, a non-NULL one when
// there is any.
func (g *gen) sample(t *Table, name string) Cell {
	j := slices.IndexFunc(t.Cols, func(c Column) bool { return c.Name == name })
	for try := 0; try < 8 && len(t.Rows) > 0; try++ {
		if v := t.Rows[g.r.Intn(len(t.Rows))][j]; v.K != Null {
			return v
		}
	}
	switch t.Cols[j].K {
	case Str:
		return StrCell("x")
	case Date:
		return DateCell(0)
	}
	return IntCell(1)
}

var cmpOps = []string{"=", "<>", "<", "<=", ">", ">="}

func (g *gen) op() string { return cmpOps[g.r.Intn(len(cmpOps))] }

// pred draws a search condition over alias q of t, nesting connectives up
// to depth.
func (g *gen) pred(q string, t *Table, depth int) Pred {
	if depth > 0 && g.r.Intn(3) == 0 {
		switch g.r.Intn(3) {
		case 0:
			return And{g.pred(q, t, depth-1), g.pred(q, t, depth-1)}
		case 1:
			return Or{g.pred(q, t, depth-1), g.pred(q, t, depth-1)}
		default:
			return Not{g.pred(q, t, depth-1)}
		}
	}
	return g.atom(q, t)
}

// atom draws one comparison, IS [NOT] NULL or LIKE prefix. A BIT column
// compares to the INT 0 or 1, a DATE column to a date literal.
func (g *gen) atom(q string, t *Table) Pred {
	c := g.col(q, t)
	kind := t.Cols[slices.IndexFunc(t.Cols, func(x Column) bool { return x.Name == c.Name })].K
	switch {
	case g.r.Intn(6) == 0:
		return IsNull{c, g.r.Intn(2) == 0}
	case kind == Str && g.r.Intn(2) == 0:
		v := g.sample(t, c.Name).S
		return Like{c, v[:1+g.r.Intn(min(2, len(v)))]}
	case kind == Str || kind == Date:
		return Cmp{g.op(), c, Lit{g.sample(t, c.Name)}}
	case kind == Bit:
		return Cmp{g.op(), c, Lit{IntCell(int64(g.r.Intn(2)))}}
	}
	v := g.sample(t, c.Name)
	switch g.r.Intn(4) {
	case 0: // across kinds: an INT column against a FLOAT, or back
		if v.K == Int {
			v = FloatCell(float64(v.I) + 0.5)
		} else {
			v = IntCell(int64(v.F))
		}
	case 1: // two columns of the row
		return Cmp{g.op(), c, g.col(q, t, Int, Float)}
	}
	return Cmp{g.op(), c, Lit{v}}
}

// arith draws a computed numeric expression over q's columns.
func (g *gen) arith(q string, t *Table) Expr {
	ops := []string{"+", "-", "*"}
	var r Expr = Lit{IntCell(int64(g.r.Intn(5)))}
	switch g.r.Intn(3) {
	case 0:
		r = g.col(q, t, Int, Float)
	case 1:
		r = Lit{FloatCell(float64(g.r.Intn(8)) / 2)}
	}
	return Arith{ops[g.r.Intn(3)], g.col(q, t, Int, Float), r}
}

// joinPairs are the equi-joinable pairs: table, key, table, key.
var joinPairs = [][4]string{
	{"fact", "k1", "dim1", "k"}, {"fact", "k2", "dim2", "k"}, {"dim1", "k", "dim2", "k"},
	{"t1", "a", "t2", "k"}, {"t3", "i", "t2", "k"}, {"td", "d", "t2", "k"}, {"fact", "k2", "t1", "a"},
	{"dim2", "k", "dim1", "k"}, {"t2", "k", "dim1", "k"}, {"dim1", "k", "fact", "k1"},
	{"dim2", "k", "fact", "k2"},
}

func (g *gen) draw(family string) *Stmt {
	st := &Stmt{Family: family}
	q := &Select{From: Ref{Alias: "a"}}
	st.Arms = []*Select{q}
	switch family {
	case "filter":
		t := g.pick("fact", "t1", "t3", "td", "dim1")
		q.From.Table, q.Items, q.Where = t.Name, g.items("a", t, 3), g.pred("a", t, 2)
	case "project":
		t := g.pick("fact", "t1", "t3", "td")
		for k := 1 + g.r.Intn(3); k > 0; k-- {
			q.Items = append(q.Items, Item{E: g.arith("a", t)})
		}
		if g.r.Intn(3) == 0 {
			q.Items = append(q.Items, g.items("a", t, 1)...)
		}
		if bd := cols(t, Bit, Date); len(bd) > 0 {
			q.Items = append(q.Items, Item{E: Col{"a", bd[g.r.Intn(len(bd))].Name}})
		}
		q.From.Table = t.Name
		if g.r.Intn(2) == 0 {
			q.Where = g.atom("a", t)
		}
	case "join":
		p := joinPairs[g.r.Intn(len(joinPairs))]
		lt, rt := g.db.Table(p[0]), g.db.Table(p[2])
		var on Pred = Cmp{"=", Col{"a", p[1]}, Col{"b", p[3]}}
		if g.r.Intn(2) == 0 {
			on = And{on, Cmp{g.op(), g.col("b", rt, Int, Float), g.col("a", lt, Int, Float)}}
		}
		q.From.Table = lt.Name
		q.Joins = []Join{{Ref: Ref{rt.Name, "b"}, Left: g.r.Intn(2) == 0, On: on}}
		q.Items = append(g.items("a", lt, 2), g.items("b", rt, 2)...)
		if g.r.Intn(3) == 0 {
			q.Where = g.atom("a", lt)
		}
	case "subquery":
		p := joinPairs[g.r.Intn(len(joinPairs))]
		lt, rt := g.db.Table(p[0]), g.db.Table(p[2])
		sub := &Select{From: Ref{rt.Name, "x"}}
		if g.r.Intn(2) == 0 {
			sub.Where = g.atom("x", rt)
		}
		var w Pred
		if g.r.Intn(3) == 0 {
			sub.Items = []Item{{E: Col{"x", p[3]}}}
			w = In{Col{"a", p[1]}, sub}
		} else {
			corr := Cmp{"=", Col{"x", p[3]}, Col{"a", p[1]}}
			if sub.Where == nil {
				sub.Where = corr
			} else {
				sub.Where = And{corr, sub.Where}
			}
			w = Exists{g.r.Intn(2) == 0, sub}
		}
		if g.r.Intn(3) == 0 {
			w = And{w, g.atom("a", lt)}
		}
		q.From.Table, q.Items, q.Where = lt.Name, g.items("a", lt, 2), w
	case "group":
		g.group(q)
	case "top":
		t := g.pick("fact", "t3", "dim1", "td")
		q.From.Table, q.Items = t.Name, g.items("a", t, 3)
		if g.r.Intn(3) == 0 {
			q.Items = append(q.Items, Item{E: g.arith("a", t)})
		}
		if g.r.Intn(3) == 0 {
			q.Where = g.atom("a", t)
		}
		q.Top = 1 + g.r.Intn(15)
		switch g.r.Intn(4) {
		case 0: // a partial order, no TOP
			q.Top, q.Order = 0, []Order{{g.r.Intn(len(q.Items)), g.r.Intn(2) == 0}}
			return st
		case 1: // TOP alone: any q.Top of the rows
			return st
		}
		for _, j := range g.r.Perm(len(q.Items)) {
			q.Order = append(q.Order, Order{j, g.r.Intn(2) == 0})
		}
	case "union":
		if g.r.Intn(2) == 0 {
			lo := g.r.Intn(350)
			st.Params = map[string]Cell{"lo": IntCell(int64(lo)), "hi": IntCell(int64(lo + 1 + g.r.Intn(150)))}
			t := g.db.Table("pv")
			q.From.Table, q.Items = "pv", g.items("a", t, 3)
			q.Where = And{Cmp{">=", Col{"a", "pk"}, Param{"lo"}}, Cmp{"<", Col{"a", "pk"}, Param{"hi"}}}
			if g.r.Intn(2) == 0 {
				q.Where = And{q.Where, g.atom("a", t)}
			}
			break
		}
		// Arms over different tables, one INT column and sometimes a
		// VARCHAR beside it.
		withStr := g.r.Intn(2) == 0
		st.Arms = nil
		for k := 2 + g.r.Intn(2); k > 0; k-- {
			t := g.pick("fact", "dim1", "t1", "t3", "td", "p1")
			arm := &Select{From: Ref{t.Name, "a"}, Items: []Item{{E: g.col("a", t, Int)}}}
			if withStr {
				arm.Items = append(arm.Items, Item{E: g.col("a", t, Str)})
			}
			if g.r.Intn(2) == 0 {
				arm.Where = g.atom("a", t)
			}
			st.Arms = append(st.Arms, arm)
		}
	default:
		panic("oracle: family " + family)
	}
	return st
}

// group draws an aggregate over fact, sometimes joined to a dimension,
// grouped by up to two columns (none: a scalar aggregate).
func (g *gen) group(q *Select) {
	fact := g.db.Table("fact")
	q.From.Table = "fact"
	keys := []Expr{Col{"a", "k2"}, Col{"a", "s"}, Col{"a", "v"}, Col{"a", "k1"}, Col{"a", "bt"}, Col{"a", "dt"}}
	if g.r.Intn(3) == 0 {
		q.Joins = []Join{{Ref: Ref{"dim1", "b"}, On: Cmp{"=", Col{"a", "k1"}, Col{"b", "k"}}}}
		keys = append(keys, Col{"b", "name"}, Col{"b", "w"})
	}
	for _, j := range g.r.Perm(len(keys))[:g.r.Intn(3)] {
		q.Group = append(q.Group, keys[j])
		q.Items = append(q.Items, Item{E: keys[j]})
	}
	aggs := []*Agg{
		{Fn: "COUNT"}, {Fn: "COUNT", Arg: Col{"a", "v"}}, {Fn: "SUM", Arg: Col{"a", "v"}}, {Fn: "SUM", Arg: Col{"a", "f"}},
		{Fn: "AVG", Arg: Col{"a", "v"}}, {Fn: "AVG", Arg: Col{"a", "f"}}, {Fn: "MIN", Arg: Col{"a", "s"}},
		{Fn: "MAX", Arg: Col{"a", "f"}}, {Fn: "MIN", Arg: Col{"a", "v"}}, {Fn: "MAX", Arg: Col{"a", "id"}},
		{Fn: "COUNT", Arg: Col{"a", "k2"}, Distinct: true}, {Fn: "COUNT", Arg: Col{"a", "s"}, Distinct: true},
		{Fn: "SUM", Arg: Arith{"*", Col{"a", "v"}, Lit{IntCell(2)}}},
		{Fn: "MAX", Arg: Col{"a", "dt"}}, {Fn: "MIN", Arg: Col{"a", "dt"}}, {Fn: "COUNT", Arg: Col{"a", "bt"}},
	}
	for _, j := range g.r.Perm(len(aggs))[:1+g.r.Intn(3)] {
		q.Items = append(q.Items, Item{Agg: aggs[j]})
	}
	if g.r.Intn(2) == 0 {
		q.Where = g.atom("a", fact)
	}
}
