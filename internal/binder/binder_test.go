package binder

import (
	"dhqp/internal/rowset"
	"fmt"
	"strings"
	"testing"

	"dhqp/internal/algebra"
	"dhqp/internal/constraint"
	"dhqp/internal/expr"
	"dhqp/internal/parser"
	"dhqp/internal/schema"
	"dhqp/internal/sqltypes"
)

// fakeCatalog serves a fixed set of tables and views.
type fakeCatalog struct {
	tables map[string]*schema.Table // key: lower(name)
	views  map[string]string
	remote map[string]bool // table name -> lives on server "remote0"
}

func newFakeCatalog() *fakeCatalog {
	return &fakeCatalog{
		tables: map[string]*schema.Table{
			"customer": {
				Catalog: "tpch", Schema: "dbo", Name: "customer",
				Columns: []schema.Column{
					{Name: "c_custkey", Kind: sqltypes.KindInt},
					{Name: "c_name", Kind: sqltypes.KindString},
					{Name: "c_nationkey", Kind: sqltypes.KindInt},
					{Name: "c_acctbal", Kind: sqltypes.KindFloat},
				},
			},
			"nation": {
				Catalog: "tpch", Schema: "dbo", Name: "nation",
				Columns: []schema.Column{
					{Name: "n_nationkey", Kind: sqltypes.KindInt},
					{Name: "n_name", Kind: sqltypes.KindString},
				},
			},
			"orders": {
				Catalog: "tpch", Schema: "dbo", Name: "orders",
				Columns: []schema.Column{
					{Name: "o_orderkey", Kind: sqltypes.KindInt},
					{Name: "o_custkey", Kind: sqltypes.KindInt},
					{Name: "o_orderdate", Kind: sqltypes.KindDate},
				},
			},
		},
		views:  map[string]string{},
		remote: map[string]bool{},
	}
}

func (f *fakeCatalog) ResolveObject(parts []string) (*Resolved, error) {
	name := strings.ToLower(parts[len(parts)-1])
	if v, ok := f.views[name]; ok {
		return &Resolved{ViewText: v}, nil
	}
	t, ok := f.tables[name]
	if !ok {
		return nil, fmt.Errorf("object %s not found", name)
	}
	server := ""
	if len(parts) == 4 {
		server = parts[0]
	}
	return &Resolved{Source: &algebra.Source{
		Server: server, Catalog: t.Catalog, Schema: t.Schema, Table: t.Name, Def: t,
	}}, nil
}

func (f *fakeCatalog) PassThroughSource(server, query string) (*algebra.Source, error) {
	return &algebra.Source{
		Kind: algebra.SourcePassThrough, Server: server, Table: "q", Query: query,
		Def: &schema.Table{Name: "q", Columns: []schema.Column{{Name: "path", Kind: sqltypes.KindString}}},
	}, nil
}

func (f *fakeCatalog) AdHocSource(provider, datasource, query string) (*algebra.Source, error) {
	return &algebra.Source{
		Kind: algebra.SourcePassThrough, Server: "adhoc:" + provider, Table: "q", Query: query,
		Def: &schema.Table{Name: "q", Columns: []schema.Column{{Name: "path", Kind: sqltypes.KindString}}},
	}, nil
}

func (f *fakeCatalog) MakeTableSource(provider, path, table string) (*algebra.Source, error) {
	return &algebra.Source{
		Kind: algebra.SourceMailTVF, Server: "mail", Path: path, Table: "messages",
		Def: &schema.Table{Name: "messages", Columns: []schema.Column{
			{Name: "msgid", Kind: sqltypes.KindInt},
			{Name: "inreplyto", Kind: sqltypes.KindInt, Nullable: true},
			{Name: "subject", Kind: sqltypes.KindString},
		}},
	}, nil
}

func bind(t *testing.T, sql string) *Bound {
	t.Helper()
	st, err := parser.Parse(sql)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	b := New(newFakeCatalog())
	bound, err := b.BindSelect(st.(*parser.SelectStmt))
	if err != nil {
		t.Fatalf("bind(%q): %v", sql, err)
	}
	return bound
}

func bindErr(t *testing.T, sql string) error {
	t.Helper()
	st, err := parser.Parse(sql)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	b := New(newFakeCatalog())
	_, err = b.BindSelect(st.(*parser.SelectStmt))
	if err == nil {
		t.Fatalf("bind(%q) should fail", sql)
	}
	return err
}

func planOps(n *algebra.Node) []string {
	out := []string{n.Op.OpName()}
	for _, k := range n.Kids {
		out = append(out, planOps(k)...)
	}
	return out
}

func hasOp(n *algebra.Node, name string) bool {
	for _, op := range planOps(n) {
		if op == name {
			return true
		}
	}
	return false
}

func TestBindSimpleSelect(t *testing.T) {
	b := bind(t, "SELECT c_name FROM customer WHERE c_custkey > 10")
	if len(b.ResultCols) != 1 || b.ResultCols[0].Name != "c_name" {
		t.Errorf("result cols = %v", b.ResultCols)
	}
	ops := planOps(b.Root)
	want := []string{"Project", "Select", "Get"}
	if len(ops) != 3 {
		t.Fatalf("ops = %v", ops)
	}
	for i, w := range want {
		if ops[i] != w {
			t.Errorf("op %d = %s, want %s", i, ops[i], w)
		}
	}
}

func TestBindStar(t *testing.T) {
	b := bind(t, "SELECT * FROM customer")
	if len(b.ResultCols) != 4 {
		t.Errorf("star expansion = %v", b.ResultCols)
	}
	b2 := bind(t, "SELECT c.* , n.n_name FROM customer c, nation n")
	if len(b2.ResultCols) != 5 {
		t.Errorf("qualified star = %v", b2.ResultCols)
	}
}

func TestBindFourPartNameTagsServer(t *testing.T) {
	b := bind(t, "SELECT c_name FROM remote0.tpch.dbo.customer")
	var get *algebra.Get
	var walk func(*algebra.Node)
	walk = func(n *algebra.Node) {
		if g, ok := n.Op.(*algebra.Get); ok {
			get = g
		}
		for _, k := range n.Kids {
			walk(k)
		}
	}
	walk(b.Root)
	if get == nil || get.Src.Server != "remote0" {
		t.Fatalf("get = %+v", get)
	}
}

func TestBindCrossJoinAndAliases(t *testing.T) {
	b := bind(t, `SELECT c.c_name, n.n_name FROM customer c, nation n WHERE c.c_nationkey = n.n_nationkey`)
	if !hasOp(b.Root, "Join") {
		t.Error("no join in plan")
	}
	if len(b.ResultCols) != 2 {
		t.Errorf("cols = %v", b.ResultCols)
	}
}

func TestBindExplicitJoin(t *testing.T) {
	b := bind(t, `SELECT c.c_name FROM customer c INNER JOIN nation n ON c.c_nationkey = n.n_nationkey`)
	foundOn := false
	var walk func(*algebra.Node)
	walk = func(n *algebra.Node) {
		if j, ok := n.Op.(*algebra.Join); ok && j.On != nil {
			foundOn = true
		}
		for _, k := range n.Kids {
			walk(k)
		}
	}
	walk(b.Root)
	if !foundOn {
		t.Error("join ON condition lost")
	}
}

func TestBindAmbiguousAndUnknownColumns(t *testing.T) {
	bindErr(t, "SELECT c_custkey FROM customer c1, customer c2")
	bindErr(t, "SELECT nope FROM customer")
	bindErr(t, "SELECT x.c_name FROM customer c")
}

func TestBindAggregation(t *testing.T) {
	b := bind(t, `SELECT c_nationkey, COUNT(*) AS cnt, SUM(c_acctbal) AS total
		FROM customer GROUP BY c_nationkey HAVING COUNT(*) > 5`)
	if !hasOp(b.Root, "GroupBy") {
		t.Fatal("no GroupBy")
	}
	if b.ResultCols[1].Name != "cnt" || b.ResultCols[1].Kind != sqltypes.KindInt {
		t.Errorf("cnt col = %+v", b.ResultCols[1])
	}
	if b.ResultCols[2].Kind != sqltypes.KindFloat {
		t.Errorf("sum kind = %v", b.ResultCols[2].Kind)
	}
	// HAVING becomes a Select above GroupBy.
	if b.Root.Kids[0].Op.OpName() != "Select" {
		t.Errorf("plan = %v", planOps(b.Root))
	}
}

func TestBindAggregationErrors(t *testing.T) {
	bindErr(t, "SELECT c_name, COUNT(*) FROM customer GROUP BY c_nationkey")
	bindErr(t, "SELECT c_name FROM customer HAVING COUNT(*) > 1")
	bindErr(t, "SELECT * FROM customer WHERE COUNT(*) > 1")
}

func TestBindScalarAggregate(t *testing.T) {
	b := bind(t, "SELECT COUNT(*) AS n, AVG(c_acctbal) AS a FROM customer")
	gb := findGroupBy(b.Root)
	if gb == nil || len(gb.GroupCols) != 0 || len(gb.Aggs) != 2 {
		t.Fatalf("groupby = %+v", gb)
	}
	if b.ResultCols[1].Kind != sqltypes.KindFloat {
		t.Error("avg should be float")
	}
}

func findGroupBy(n *algebra.Node) *algebra.GroupBy {
	if g, ok := n.Op.(*algebra.GroupBy); ok {
		return g
	}
	for _, k := range n.Kids {
		if g := findGroupBy(k); g != nil {
			return g
		}
	}
	return nil
}

func TestBindOrderByAndTop(t *testing.T) {
	b := bind(t, "SELECT TOP 5 c_name, c_acctbal FROM customer ORDER BY c_acctbal DESC")
	if b.Root.Op.OpName() != "Top" {
		t.Fatalf("root = %s", b.Root.Op.OpName())
	}
	top := b.Root.Op.(*algebra.Top)
	if top.N != 5 || len(top.Ordering) != 1 || !top.Ordering[0].Desc {
		t.Errorf("top = %+v", top)
	}
	if len(b.RequiredOrder) != 1 {
		t.Errorf("required order = %v", b.RequiredOrder)
	}
	// ORDER BY by select alias.
	b2 := bind(t, "SELECT c_acctbal AS bal FROM customer ORDER BY bal")
	if len(b2.RequiredOrder) != 1 {
		t.Error("alias ordering failed")
	}
	bindErr(t, "SELECT c_name FROM customer ORDER BY c_acctbal")
}

func TestBindDateCoercion(t *testing.T) {
	b := bind(t, "SELECT o_orderkey FROM orders WHERE o_orderdate >= '1995-01-01'")
	var sel *algebra.Select
	var walk func(*algebra.Node)
	walk = func(n *algebra.Node) {
		if s, ok := n.Op.(*algebra.Select); ok {
			sel = s
		}
		for _, k := range n.Kids {
			walk(k)
		}
	}
	walk(b.Root)
	if sel == nil {
		t.Fatal("no select")
	}
	cmp := sel.Filter.(*expr.Binary)
	c := cmp.R.(*expr.Const)
	if c.Val.Kind() != sqltypes.KindDate {
		t.Errorf("literal kind = %v, want DATE", c.Val.Kind())
	}
}

func TestBindBetweenDesugars(t *testing.T) {
	b := bind(t, "SELECT o_orderkey FROM orders WHERE o_orderdate BETWEEN '1995-01-01' AND '1995-12-31'")
	found := false
	var walk func(*algebra.Node)
	walk = func(n *algebra.Node) {
		if s, ok := n.Op.(*algebra.Select); ok {
			if len(expr.SplitConjuncts(s.Filter)) == 2 {
				found = true
			}
		}
		for _, k := range n.Kids {
			walk(k)
		}
	}
	walk(b.Root)
	if !found {
		t.Error("BETWEEN did not desugar into two conjuncts")
	}
}

func TestBindExistsBecomesSemiJoin(t *testing.T) {
	b := bind(t, `SELECT c_name FROM customer c WHERE EXISTS (
		SELECT * FROM orders o WHERE o.o_custkey = c.c_custkey AND o.o_orderkey > 100)`)
	var semi *algebra.Join
	var walk func(*algebra.Node)
	walk = func(n *algebra.Node) {
		if j, ok := n.Op.(*algebra.Join); ok && j.Type == algebra.SemiJoin {
			semi = j
		}
		for _, k := range n.Kids {
			walk(k)
		}
	}
	walk(b.Root)
	if semi == nil {
		t.Fatal("no semi join")
	}
	if semi.On == nil {
		t.Error("correlated predicate not lifted into join condition")
	}
	// Uncorrelated conjunct stays inside the subquery.
	if !hasOp(b.Root, "Select") {
		t.Error("inner filter lost")
	}
}

func TestBindNotExistsBecomesAntiJoin(t *testing.T) {
	// The §2.4 shape: NOT EXISTS with correlation.
	b := bind(t, `SELECT m1.subject FROM MakeTable(Mail, 'd:\m.mmf') m1
		WHERE NOT EXISTS (SELECT * FROM MakeTable(Mail, 'd:\m.mmf') m2 WHERE m1.msgid = m2.inreplyto)`)
	found := false
	var walk func(*algebra.Node)
	walk = func(n *algebra.Node) {
		if j, ok := n.Op.(*algebra.Join); ok && j.Type == algebra.AntiJoin {
			found = true
		}
		for _, k := range n.Kids {
			walk(k)
		}
	}
	walk(b.Root)
	if !found {
		t.Error("NOT EXISTS did not become anti join")
	}
}

func TestBindInSubquery(t *testing.T) {
	b := bind(t, `SELECT c_name FROM customer WHERE c_custkey IN (SELECT o_custkey FROM orders)`)
	found := false
	var walk func(*algebra.Node)
	walk = func(n *algebra.Node) {
		if j, ok := n.Op.(*algebra.Join); ok && j.Type == algebra.SemiJoin && j.On != nil {
			found = true
		}
		for _, k := range n.Kids {
			walk(k)
		}
	}
	walk(b.Root)
	if !found {
		t.Error("IN subquery did not become semi join with equality")
	}
	bindErr(t, `SELECT c_name FROM customer WHERE c_custkey NOT IN (SELECT o_custkey, o_orderkey FROM orders)`)
}

func TestBindUnionAll(t *testing.T) {
	b := bind(t, `SELECT c_custkey FROM customer UNION ALL SELECT n_nationkey FROM nation`)
	u, ok := b.Root.Op.(*algebra.UnionAll)
	if !ok {
		t.Fatalf("root = %s", b.Root.Op.OpName())
	}
	if len(b.Root.Kids) != 2 || len(u.InMaps) != 2 {
		t.Errorf("union shape = %+v", u)
	}
	bindErr(t, `SELECT c_custkey, c_name FROM customer UNION ALL SELECT n_nationkey FROM nation`)
}

func TestBindViewExpansion(t *testing.T) {
	cat := newFakeCatalog()
	cat.views["rich"] = "SELECT c_name, c_acctbal FROM customer WHERE c_acctbal > 1000"
	st, _ := parser.Parse("SELECT c_name FROM rich WHERE c_acctbal < 5000")
	b := New(cat)
	bound, err := b.BindSelect(st.(*parser.SelectStmt))
	if err != nil {
		t.Fatal(err)
	}
	if !hasOp(bound.Root, "Get") {
		t.Error("view did not expand to base table")
	}
	// Cyclic views fail.
	cat.views["v1"] = "SELECT * FROM v2"
	cat.views["v2"] = "SELECT * FROM v1"
	st2, _ := parser.Parse("SELECT * FROM v1")
	if _, err := New(cat).BindSelect(st2.(*parser.SelectStmt)); err == nil {
		t.Error("cyclic view accepted")
	}
}

func TestBindDerivedTable(t *testing.T) {
	b := bind(t, `SELECT d.bal FROM (SELECT c_acctbal AS bal FROM customer) AS d WHERE d.bal > 0`)
	if len(b.ResultCols) != 1 || b.ResultCols[0].Name != "bal" {
		t.Errorf("cols = %v", b.ResultCols)
	}
}

func TestBindOpenQueryAndOpenRowset(t *testing.T) {
	b := bind(t, `SELECT q.path FROM OPENQUERY(ftsrv, 'whatever') q`)
	if len(b.ResultCols) != 1 {
		t.Errorf("cols = %v", b.ResultCols)
	}
	b2 := bind(t, `SELECT FS.path FROM OpenRowset('MSIDXS','cat';'';'', 'q') AS FS`)
	if len(b2.ResultCols) != 1 {
		t.Errorf("cols = %v", b2.ResultCols)
	}
}

func TestBindContains(t *testing.T) {
	b := bind(t, `SELECT c_name FROM customer WHERE CONTAINS(c_name, 'smith OR jones')`)
	var sel *algebra.Select
	var walk func(*algebra.Node)
	walk = func(n *algebra.Node) {
		if s, ok := n.Op.(*algebra.Select); ok {
			sel = s
		}
		for _, k := range n.Kids {
			walk(k)
		}
	}
	walk(b.Root)
	if sel == nil {
		t.Fatal("no select")
	}
	if _, ok := sel.Filter.(*expr.Contains); !ok {
		t.Errorf("filter = %T", sel.Filter)
	}
}

func TestBindSelectWithoutFrom(t *testing.T) {
	b := bind(t, "SELECT 1 + 2 AS three")
	if len(b.ResultCols) != 1 || b.ResultCols[0].Name != "three" {
		t.Errorf("cols = %v", b.ResultCols)
	}
	if !hasOp(b.Root, "Values") {
		t.Error("no Values leaf")
	}
}

func TestCheckDomains(t *testing.T) {
	def := &schema.Table{
		Name: "lineitem_92",
		Columns: []schema.Column{
			{Name: "l_orderkey", Kind: sqltypes.KindInt},
			{Name: "l_commitdate", Kind: sqltypes.KindDate},
		},
		Checks: []string{"l_commitdate >= '1992-01-01' AND l_commitdate < '1993-01-01'"},
	}
	cols := []algebra.OutCol{
		{ID: 7, Name: "l_orderkey", Kind: sqltypes.KindInt},
		{ID: 8, Name: "l_commitdate", Kind: sqltypes.KindDate},
	}
	m := CheckDomains(def, cols)
	if m == nil {
		t.Fatal("no domains derived")
	}
	d := m.DomainOf(8)
	in92, _ := sqltypes.ParseDate("1992-06-15")
	in93, _ := sqltypes.ParseDate("1993-06-15")
	if !d.Contains(in92) || d.Contains(in93) {
		t.Errorf("domain = %v", d)
	}
	if _, ok := m[7]; ok {
		t.Error("unconstrained column gained a domain")
	}
	if CheckDomains(&schema.Table{Name: "t"}, nil) != nil {
		t.Error("no-check table should derive nil")
	}
}

func TestCheckPredicate(t *testing.T) {
	def := &schema.Table{
		Name: "part",
		Columns: []schema.Column{
			{Name: "k", Kind: sqltypes.KindInt},
		},
		Checks: []string{"k >= 10 AND k < 20"},
	}
	checks, err := CheckPredicate(def)
	if err != nil {
		t.Fatal(err)
	}
	if len(checks) != 1 {
		t.Fatalf("checks = %d", len(checks))
	}
	bad, err := expr.FirstRejected(checks[0].Pred, []rowset.Row{{sqltypes.NewInt(15)}})
	if err != nil || bad >= 0 {
		t.Errorf("in-range row rejected: %v %v", bad, err)
	}
	bad, _ = expr.FirstRejected(checks[0].Pred, []rowset.Row{{sqltypes.NewInt(25)}})
	if bad < 0 {
		t.Error("out-of-range row accepted")
	}
	_ = constraint.FullDomain() // keep import for doc parity
}
