package parser

import (
	"fmt"
	"strings"
	"testing"
)

func mustParse(t *testing.T, sql string) Statement {
	t.Helper()
	st, err := Parse(sql)
	if err != nil {
		t.Fatalf("Parse(%q): %v", sql, err)
	}
	return st
}

func mustSelect(t *testing.T, sql string) *SelectStmt {
	t.Helper()
	st := mustParse(t, sql)
	sel, ok := st.(*SelectStmt)
	if !ok {
		t.Fatalf("Parse(%q) = %T, want *SelectStmt", sql, st)
	}
	return sel
}

// The paper's §2.1 example: four-part names via linked servers.
func TestFourPartName(t *testing.T) {
	sel := mustSelect(t, "SELECT * FROM DeptSQLSrvr.Northwind.dbo.Employees")
	if len(sel.Items) != 1 || !sel.Items[0].Star {
		t.Fatalf("items = %+v", sel.Items)
	}
	nt, ok := sel.From[0].(*NamedTable)
	if !ok {
		t.Fatalf("from = %T", sel.From[0])
	}
	want := []string{"DeptSQLSrvr", "Northwind", "dbo", "Employees"}
	if len(nt.Parts) != 4 {
		t.Fatalf("parts = %v", nt.Parts)
	}
	for i, w := range want {
		if nt.Parts[i] != w {
			t.Errorf("part %d = %q, want %q", i, nt.Parts[i], w)
		}
	}
}

// The paper's Example 1 (§4.1.2).
func TestPaperExample1(t *testing.T) {
	sel := mustSelect(t, `
		SELECT c.c_name, c.c_address, c.c_phone
		FROM remote0.tpch10g.dbo.customer c,
		     remote0.tpch10g.dbo.supplier s,
		     nation n
		WHERE c.c_nationkey = n.n_nationkey
		  AND n.n_nationkey = s.s_nationkey`)
	if len(sel.From) != 3 {
		t.Fatalf("from = %d entries", len(sel.From))
	}
	if len(sel.Items) != 3 {
		t.Fatalf("items = %d", len(sel.Items))
	}
	c := sel.From[0].(*NamedTable)
	if c.Alias != "c" || len(c.Parts) != 4 {
		t.Errorf("customer ref = %+v", c)
	}
	n := sel.From[2].(*NamedTable)
	if n.Alias != "n" || len(n.Parts) != 1 {
		t.Errorf("nation ref = %+v", n)
	}
	and, ok := sel.Where.(*BinExpr)
	if !ok || and.Op != "AND" {
		t.Fatalf("where = %+v", sel.Where)
	}
}

// The paper's §2.2 OPENROWSET full-text example.
func TestOpenRowset(t *testing.T) {
	sel := mustSelect(t, `SELECT FS.path FROM OpenRowset('MSIDXS','DQLiterature';'';'',
		'Select Path, size from SCOPE() where CONTAINS(''"Parallel database" OR "heterogeneous query"'')') AS FS`)
	or, ok := sel.From[0].(*OpenRowset)
	if !ok {
		t.Fatalf("from = %T", sel.From[0])
	}
	if or.Provider != "MSIDXS" || or.DataSource != "DQLiterature" || or.Alias != "FS" {
		t.Errorf("openrowset = %+v", or)
	}
	if or.Query == "" || or.Query[:6] != "Select" {
		t.Errorf("query = %q", or.Query)
	}
}

func TestOpenQuery(t *testing.T) {
	sel := mustSelect(t, `SELECT * FROM OPENQUERY(ftsrv, 'database NEAR optimization') q`)
	oq, ok := sel.From[0].(*OpenQuery)
	if !ok || oq.Server != "ftsrv" || oq.Alias != "q" {
		t.Fatalf("openquery = %+v", sel.From[0])
	}
}

// The paper's §2.4 MakeTable mail example (simplified argument shapes).
func TestMakeTable(t *testing.T) {
	sel := mustSelect(t, `SELECT m1.subject FROM MakeTable(Mail, 'd:\mail\smith.mmf') m1`)
	mt, ok := sel.From[0].(*MakeTable)
	if !ok {
		t.Fatalf("from = %T", sel.From[0])
	}
	if mt.Provider != "Mail" || mt.Path != `d:\mail\smith.mmf` || mt.Alias != "m1" {
		t.Errorf("maketable = %+v", mt)
	}
	sel2 := mustSelect(t, `SELECT c.Address FROM MakeTable(Access, 'd:\access\Enterprise.mdb', Customers) c`)
	mt2 := sel2.From[0].(*MakeTable)
	if mt2.Table != "Customers" {
		t.Errorf("maketable table = %+v", mt2)
	}
}

func TestJoinSyntax(t *testing.T) {
	sel := mustSelect(t, `SELECT a.x FROM t1 a INNER JOIN t2 b ON a.k = b.k LEFT OUTER JOIN t3 c ON b.j = c.j`)
	jr, ok := sel.From[0].(*JoinRef)
	if !ok || jr.Kind != JoinLeftOuter {
		t.Fatalf("outer join ref = %+v", sel.From[0])
	}
	inner, ok := jr.Left.(*JoinRef)
	if !ok || inner.Kind != JoinInner {
		t.Fatalf("inner join ref = %+v", jr.Left)
	}
}

func TestGroupByHavingOrderTop(t *testing.T) {
	sel := mustSelect(t, `SELECT TOP 10 c_nationkey, COUNT(*) AS cnt, SUM(c_acctbal) total
		FROM customer WHERE c_acctbal > 0
		GROUP BY c_nationkey HAVING COUNT(*) > 5
		ORDER BY cnt DESC, c_nationkey`)
	if sel.Top != 10 {
		t.Errorf("top = %d", sel.Top)
	}
	if len(sel.GroupBy) != 1 || sel.Having == nil {
		t.Error("group by / having")
	}
	if len(sel.OrderBy) != 2 || !sel.OrderBy[0].Desc || sel.OrderBy[1].Desc {
		t.Errorf("order by = %+v", sel.OrderBy)
	}
	if sel.Items[1].Alias != "cnt" || sel.Items[2].Alias != "total" {
		t.Errorf("aliases = %+v", sel.Items)
	}
	f := sel.Items[1].E.(*FuncExpr)
	if f.Name != "count" || !f.Star {
		t.Errorf("count(*) = %+v", f)
	}
}

func TestUnionAll(t *testing.T) {
	sel := mustSelect(t, `SELECT a FROM t1 UNION ALL SELECT a FROM t2 UNION ALL SELECT a FROM t3`)
	n := 1
	for u := sel.Union; u != nil; u = u.Union {
		n++
	}
	if n != 3 {
		t.Errorf("union chain length = %d", n)
	}
	if _, err := Parse(`SELECT a FROM t UNION SELECT a FROM u`); err == nil {
		t.Error("plain UNION accepted")
	}
}

func TestSubqueries(t *testing.T) {
	sel := mustSelect(t, `SELECT * FROM t WHERE EXISTS (SELECT * FROM u WHERE u.k = t.k)`)
	ex, ok := sel.Where.(*ExistsExpr)
	if !ok || ex.Sel == nil {
		t.Fatalf("where = %+v", sel.Where)
	}
	sel2 := mustSelect(t, `SELECT * FROM t WHERE k IN (SELECT k FROM u)`)
	in, ok := sel2.Where.(*InExpr)
	if !ok || in.Sel == nil {
		t.Fatalf("where = %+v", sel2.Where)
	}
	sel3 := mustSelect(t, `SELECT * FROM t WHERE NOT EXISTS (SELECT * FROM u)`)
	un, ok := sel3.Where.(*UnExpr)
	if !ok || un.Op != "NOT" {
		t.Fatalf("where = %+v", sel3.Where)
	}
}

func TestPredicates(t *testing.T) {
	sel := mustSelect(t, `SELECT * FROM t WHERE a BETWEEN 1 AND 10 AND b NOT LIKE 'x%'
		AND c IS NOT NULL AND d NOT IN (1, 2) AND e <> 3`)
	conj := 0
	var count func(e Expr)
	count = func(e Expr) {
		if b, ok := e.(*BinExpr); ok && b.Op == "AND" {
			count(b.L)
			count(b.R)
			return
		}
		conj++
	}
	count(sel.Where)
	if conj != 5 {
		t.Errorf("conjuncts = %d", conj)
	}
}

func TestContains(t *testing.T) {
	sel := mustSelect(t, `SELECT * FROM docs WHERE CONTAINS(body, '"parallel database" OR run')`)
	ct, ok := sel.Where.(*ContainsExpr)
	if !ok || ct.Col.Column() != "body" {
		t.Fatalf("contains = %+v", sel.Where)
	}
	sel2 := mustSelect(t, `SELECT * FROM docs WHERE CONTAINS(*, 'word')`)
	ct2 := sel2.Where.(*ContainsExpr)
	if ct2.Col != nil {
		t.Error("star contains should have nil col")
	}
}

func TestArithmeticPrecedence(t *testing.T) {
	sel := mustSelect(t, `SELECT 1 + 2 * 3 - 4 / 2 AS v`)
	// ((1 + (2*3)) - (4/2))
	top := sel.Items[0].E.(*BinExpr)
	if top.Op != "-" {
		t.Fatalf("top op = %s", top.Op)
	}
	add := top.L.(*BinExpr)
	if add.Op != "+" {
		t.Fatalf("left op = %s", add.Op)
	}
	if add.R.(*BinExpr).Op != "*" {
		t.Error("mul should bind tighter")
	}
}

func TestNegativeLiterals(t *testing.T) {
	sel := mustSelect(t, `SELECT date(today(), -2) AS d`)
	f := sel.Items[0].E.(*FuncExpr)
	if f.Name != "date" || len(f.Args) != 2 {
		t.Fatalf("func = %+v", f)
	}
	if lit, ok := f.Args[1].(*IntLit); !ok || lit.V != -2 {
		t.Errorf("arg = %+v", f.Args[1])
	}
}

func TestInsert(t *testing.T) {
	st := mustParse(t, `INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')`).(*InsertStmt)
	if len(st.Columns) != 2 || len(st.Rows) != 2 {
		t.Errorf("insert = %+v", st)
	}
	st2 := mustParse(t, `INSERT INTO remote0.db.dbo.t SELECT a, b FROM u`).(*InsertStmt)
	if st2.Sel == nil || len(st2.Table.Parts) != 4 {
		t.Errorf("insert-select = %+v", st2)
	}
}

func TestUpdateDelete(t *testing.T) {
	up := mustParse(t, `UPDATE t SET a = a + 1, b = 'x' WHERE k = @id`).(*UpdateStmt)
	if len(up.Set) != 2 || up.Where == nil {
		t.Errorf("update = %+v", up)
	}
	if _, ok := up.Where.(*BinExpr).R.(*ParamExpr); !ok {
		t.Error("param not parsed")
	}
	del := mustParse(t, `DELETE FROM t WHERE k < 5`).(*DeleteStmt)
	if del.Where == nil {
		t.Error("delete where missing")
	}
}

// The paper's §4.1.5 partitioned-table DDL shape.
func TestCreateTableWithCheck(t *testing.T) {
	st := mustParse(t, `CREATE TABLE lineitem_92 (
		l_orderkey BIGINT NOT NULL,
		l_commitdate DATE NOT NULL CHECK (l_commitdate >= '1992-01-01' AND l_commitdate < '1993-01-01'),
		l_quantity FLOAT,
		PRIMARY KEY (l_orderkey)
	)`).(*CreateTableStmt)
	if len(st.Columns) != 3 {
		t.Fatalf("columns = %d", len(st.Columns))
	}
	if st.Columns[0].TypeName != "int" || !st.Columns[0].NotNull {
		t.Errorf("col0 = %+v", st.Columns[0])
	}
	if st.Columns[1].TypeName != "date" {
		t.Errorf("col1 = %+v", st.Columns[1])
	}
	if len(st.Checks) != 1 || len(st.CheckTexts) != 1 {
		t.Fatalf("checks = %d", len(st.Checks))
	}
	if st.CheckTexts[0] == "" || st.CheckTexts[0][0] != 'l' {
		t.Errorf("check text = %q", st.CheckTexts[0])
	}
	if len(st.PrimaryKey) != 1 || st.PrimaryKey[0] != "l_orderkey" {
		t.Errorf("pk = %v", st.PrimaryKey)
	}
}

func TestCreateTableInlinePKAndLength(t *testing.T) {
	st := mustParse(t, `CREATE TABLE t (id INT PRIMARY KEY, name VARCHAR(25) NOT NULL)`).(*CreateTableStmt)
	if len(st.PrimaryKey) != 1 || st.PrimaryKey[0] != "id" {
		t.Errorf("pk = %v", st.PrimaryKey)
	}
	if !st.Columns[0].NotNull {
		t.Error("pk column should be NOT NULL")
	}
}

func TestCreateIndex(t *testing.T) {
	st := mustParse(t, `CREATE INDEX ix_nation ON customer (c_nationkey, c_custkey)`).(*CreateIndexStmt)
	if st.Name != "ix_nation" || len(st.Columns) != 2 || st.Unique {
		t.Errorf("index = %+v", st)
	}
	st2 := mustParse(t, `CREATE UNIQUE INDEX pk ON t (id)`).(*CreateIndexStmt)
	if !st2.Unique {
		t.Error("unique flag")
	}
}

func TestCreateView(t *testing.T) {
	st := mustParse(t, `CREATE VIEW all_lineitems AS
		SELECT * FROM server1.fed.dbo.lineitem_92
		UNION ALL
		SELECT * FROM server2.fed.dbo.lineitem_93`).(*CreateViewStmt)
	if st.Sel == nil || st.Sel.Union == nil {
		t.Error("partitioned view select chain missing")
	}
	if st.Text == "" || st.Text[:6] != "SELECT" {
		t.Errorf("text = %q", st.Text)
	}
}

func TestExecLinkedServer(t *testing.T) {
	st := mustParse(t, `EXEC sp_addlinkedserver 'remote0', 'SQLOLEDB', 'host-a'`).(*ExecStmt)
	if st.Proc != "sp_addlinkedserver" || len(st.Args) != 3 {
		t.Errorf("exec = %+v", st)
	}
}

func TestQuotedIdentifiersAndComments(t *testing.T) {
	sel := mustSelect(t, `SELECT [select] FROM "order details" -- trailing comment
		WHERE /* block */ [select] > 1`)
	if sel.Items[0].E.(*NameExpr).Column() != "select" {
		t.Error("bracket identifier")
	}
	if sel.From[0].(*NamedTable).Name() != "order details" {
		t.Error("quoted table name")
	}
}

func TestStringEscapes(t *testing.T) {
	sel := mustSelect(t, `SELECT * FROM t WHERE name = 'O''Brien'`)
	cmp := sel.Where.(*BinExpr)
	if cmp.R.(*StrLit).V != "O'Brien" {
		t.Errorf("escaped string = %q", cmp.R.(*StrLit).V)
	}
}

func TestDerivedTable(t *testing.T) {
	sel := mustSelect(t, `SELECT d.x FROM (SELECT a AS x FROM t) AS d WHERE d.x > 1`)
	dt, ok := sel.From[0].(*DerivedTable)
	if !ok || dt.Alias != "d" {
		t.Fatalf("derived = %+v", sel.From[0])
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"", "SELECT", "SELECT * FROM", "SELECT * FROM t WHERE",
		"SELECT * FROM a.b.c.d.e", "FROB x", "SELECT * FROM t extra garbage (",
		"CREATE TABLE t (a NOTATYPE)", "INSERT INTO t", "SELECT 'unterminated",
		"SELECT * FROM (SELECT a FROM t)", // derived table needs alias
		"SELECT CASE WHEN 1 THEN 2 END",
	}
	for _, sql := range bad {
		if _, err := Parse(sql); err == nil {
			t.Errorf("Parse(%q) should fail", sql)
		}
	}
}

func TestParseExprStandalone(t *testing.T) {
	e, err := ParseExpr(`l_commitdate >= '1992-01-01' AND l_commitdate < '1993-01-01'`)
	if err != nil {
		t.Fatal(err)
	}
	if b, ok := e.(*BinExpr); !ok || b.Op != "AND" {
		t.Errorf("expr = %+v", e)
	}
	if _, err := ParseExpr("a >"); err == nil {
		t.Error("bad expr accepted")
	}
	if _, err := ParseExpr("a > 1 garbage"); err == nil {
		t.Error("trailing garbage accepted")
	}
}

func TestSemicolonTolerated(t *testing.T) {
	mustSelect(t, "SELECT 1 AS one;")
}

// BenchmarkParseInsert1000 parses one 1 000-row INSERT … VALUES text, the
// shape every bulk load in the repository benchmark sends.
func BenchmarkParseInsert1000(b *testing.B) {
	var sb strings.Builder
	sb.WriteString("INSERT INTO orders VALUES ")
	for i := 0; i < 1000; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d, %d, %d)", i, i%977, i%5, i*37%1000)
	}
	sql := sb.String()
	b.ReportAllocs()
	b.SetBytes(int64(len(sql)))
	for i := 0; i < b.N; i++ {
		if _, err := Parse(sql); err != nil {
			b.Fatal(err)
		}
	}
}
