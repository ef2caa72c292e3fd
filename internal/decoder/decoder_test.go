package decoder

import (
	"errors"
	"strconv"
	"strings"
	"testing"

	"dhqp/internal/algebra"
	"dhqp/internal/expr"
	"dhqp/internal/oledb"
	"dhqp/internal/rowset"
	"dhqp/internal/schema"
	"dhqp/internal/sqltypes"
)

func fullCaps() oledb.Capabilities {
	return oledb.Capabilities{
		SQLSupport:    oledb.SQLFull,
		NestedSelects: true,
		Profile:       expr.FullRemotable(),
	}
}

func customerDef() *schema.Table {
	return &schema.Table{
		Catalog: "tpch10g", Schema: "dbo", Name: "customer",
		Columns: []schema.Column{
			{Name: "c_custkey", Kind: sqltypes.KindInt},
			{Name: "c_name", Kind: sqltypes.KindString},
			{Name: "c_nationkey", Kind: sqltypes.KindInt},
		},
	}
}

func supplierDef() *schema.Table {
	return &schema.Table{
		Catalog: "tpch10g", Schema: "dbo", Name: "supplier",
		Columns: []schema.Column{
			{Name: "s_suppkey", Kind: sqltypes.KindInt},
			{Name: "s_nationkey", Kind: sqltypes.KindInt},
		},
	}
}

func custGet() *algebra.Node {
	return algebra.NewNode(&algebra.Get{
		Src: &algebra.Source{Server: "remote0", Catalog: "tpch10g", Schema: "dbo", Table: "customer", Def: customerDef()},
		Cols: []algebra.OutCol{
			{ID: 1, Name: "c_custkey", Kind: sqltypes.KindInt},
			{ID: 2, Name: "c_name", Kind: sqltypes.KindString},
			{ID: 3, Name: "c_nationkey", Kind: sqltypes.KindInt},
		},
	})
}

func suppGet() *algebra.Node {
	return algebra.NewNode(&algebra.Get{
		Src: &algebra.Source{Server: "remote0", Catalog: "tpch10g", Schema: "dbo", Table: "supplier", Def: supplierDef()},
		Cols: []algebra.OutCol{
			{ID: 10, Name: "s_suppkey", Kind: sqltypes.KindInt},
			{ID: 11, Name: "s_nationkey", Kind: sqltypes.KindInt},
		},
	})
}

func TestDecodeSimpleGet(t *testing.T) {
	r, err := Decode(custGet(), fullCaps())
	if err != nil {
		t.Fatal(err)
	}
	want := "SELECT t0.c_custkey AS c1, t0.c_name AS c2, t0.c_nationkey AS c3 FROM tpch10g.dbo.customer AS t0"
	if r.SQL != want {
		t.Errorf("SQL = %q\nwant  %q", r.SQL, want)
	}
	if len(r.Cols) != 3 || r.Cols[0].ID != 1 {
		t.Errorf("Cols = %v", r.Cols)
	}
}

func TestDecodeSelectUsesUnderlyingRefs(t *testing.T) {
	n := algebra.NewNode(&algebra.Select{
		Filter: expr.NewBinary(expr.OpGt, expr.NewColRef(1, "c_custkey"), expr.NewConst(sqltypes.NewInt(50))),
	}, custGet())
	r, err := Decode(n, fullCaps())
	if err != nil {
		t.Fatal(err)
	}
	checkLifted(t, r, "WHERE (t0.c_custkey > @__k0)", "WHERE (t0.c_custkey > 50)", sqltypes.NewInt(50))
}

func TestDecodeJoinPaperExample(t *testing.T) {
	// Figure 4(a): Customer JOIN Supplier ON nationkey pushed to remote0.
	on := expr.NewBinary(expr.OpEq, expr.NewColRef(3, "c_nationkey"), expr.NewColRef(11, "s_nationkey"))
	n := algebra.NewNode(&algebra.Join{Type: algebra.InnerJoin, On: on}, custGet(), suppGet())
	r, err := Decode(n, fullCaps())
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{
		"INNER JOIN", "tpch10g.dbo.customer", "tpch10g.dbo.supplier",
		"ON (t0.c_nationkey = t1.s_nationkey)",
	} {
		if !strings.Contains(r.SQL, frag) {
			t.Errorf("SQL missing %q: %q", frag, r.SQL)
		}
	}
	if strings.Contains(r.SQL, "remote0") {
		t.Errorf("server name leaked into remote SQL: %q", r.SQL)
	}
	if len(r.Cols) != 5 {
		t.Errorf("Cols = %v", r.Cols)
	}
}

func TestDecodeJoinRequiresODBCCore(t *testing.T) {
	caps := fullCaps()
	caps.SQLSupport = oledb.SQLMinimum
	n := algebra.NewNode(&algebra.Join{Type: algebra.InnerJoin}, custGet(), suppGet())
	_, err := Decode(n, caps)
	var nr *ErrNotRemotable
	if !errors.As(err, &nr) {
		t.Fatalf("want ErrNotRemotable, got %v", err)
	}
}

func TestDecodeSemiAntiJoinAsExists(t *testing.T) {
	on := expr.NewBinary(expr.OpEq, expr.NewColRef(3, "c_nationkey"), expr.NewColRef(11, "s_nationkey"))
	semi := algebra.NewNode(&algebra.Join{Type: algebra.SemiJoin, On: on}, custGet(), suppGet())
	r, err := Decode(semi, fullCaps())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.SQL, "EXISTS (SELECT 1") ||
		!strings.Contains(r.SQL, "(t0.c_nationkey = t1.s_nationkey)") {
		t.Errorf("SQL = %q", r.SQL)
	}
	if len(r.Cols) != 3 {
		t.Errorf("semi join output = %v", r.Cols)
	}
	anti := algebra.NewNode(&algebra.Join{Type: algebra.AntiJoin, On: on}, custGet(), suppGet())
	r2, err := Decode(anti, fullCaps())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r2.SQL, "NOT EXISTS (SELECT 1") {
		t.Errorf("SQL = %q", r2.SQL)
	}
	// Without nested selects the shape is not remotable.
	caps := fullCaps()
	caps.NestedSelects = false
	if _, err := Decode(semi, caps); err == nil {
		t.Error("semi join decoded without nested-select capability")
	}
	// Inner filters on the subquery side fold into the EXISTS condition.
	filtered := algebra.NewNode(&algebra.Join{Type: algebra.SemiJoin, On: on},
		custGet(),
		algebra.NewNode(&algebra.Select{
			Filter: expr.NewBinary(expr.OpGt, expr.NewColRef(10, "s_suppkey"), expr.NewConst(sqltypes.NewInt(5))),
		}, suppGet()))
	r3, err := Decode(filtered, fullCaps())
	if err != nil {
		t.Fatal(err)
	}
	checkLifted(t, r3, "WHERE (t1.s_suppkey > @__k0) AND (t0.c_nationkey = t1.s_nationkey))",
		"WHERE (t1.s_suppkey > 5) AND (t0.c_nationkey = t1.s_nationkey))", sqltypes.NewInt(5))
}

func TestDecodeGroupBy(t *testing.T) {
	gb := algebra.NewNode(&algebra.GroupBy{
		GroupCols: []algebra.OutCol{{ID: 3, Name: "c_nationkey", Kind: sqltypes.KindInt}},
		Aggs: []algebra.AggSpec{
			{Out: algebra.OutCol{ID: 50, Name: "cnt", Kind: sqltypes.KindInt}, Func: algebra.AggCount},
			{Out: algebra.OutCol{ID: 51, Name: "maxk", Kind: sqltypes.KindInt}, Func: algebra.AggMax, Arg: expr.NewColRef(1, "c_custkey")},
		},
	}, custGet())
	r, err := Decode(gb, fullCaps())
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"GROUP BY t0.c_nationkey", "COUNT(*) AS c50", "MAX(t0.c_custkey) AS c51"} {
		if !strings.Contains(r.SQL, frag) {
			t.Errorf("SQL missing %q: %q", frag, r.SQL)
		}
	}
	caps := fullCaps()
	caps.SQLSupport = oledb.SQLODBCCore
	if _, err := Decode(gb, caps); err == nil {
		t.Error("GROUP BY decoded at ODBC Core level")
	}
}

func TestDecodeSelectOverGroupByWrapsDerivedTable(t *testing.T) {
	gb := algebra.NewNode(&algebra.GroupBy{
		GroupCols: []algebra.OutCol{{ID: 3, Name: "c_nationkey", Kind: sqltypes.KindInt}},
		Aggs:      []algebra.AggSpec{{Out: algebra.OutCol{ID: 50, Name: "cnt", Kind: sqltypes.KindInt}, Func: algebra.AggCount}},
	}, custGet())
	sel := algebra.NewNode(&algebra.Select{
		Filter: expr.NewBinary(expr.OpGt, expr.NewColRef(50, "cnt"), expr.NewConst(sqltypes.NewInt(10))),
	}, gb)
	r, err := Decode(sel, fullCaps())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.SQL, "FROM (SELECT") {
		t.Errorf("SQL = %q", r.SQL)
	}
	checkLifted(t, r, "WHERE (d1.c50 > @__k0)", "WHERE (d1.c50 > 10)", sqltypes.NewInt(10))
	// Without nested selects the same shape must fail.
	caps := fullCaps()
	caps.NestedSelects = false
	if _, err := Decode(sel, caps); err == nil {
		t.Error("derived table emitted without NestedSelects")
	}
}

func TestDecodeTopWithOrder(t *testing.T) {
	n := algebra.NewNode(&algebra.Top{
		N:        5,
		Ordering: algebra.Ordering{{Col: 1, Desc: true}},
	}, custGet())
	r, err := Decode(n, fullCaps())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(r.SQL, "SELECT TOP 5 ") || !strings.Contains(r.SQL, "ORDER BY t0.c_custkey DESC") {
		t.Errorf("SQL = %q", r.SQL)
	}
}

func TestDecodeProjectComputesExpressions(t *testing.T) {
	up, _ := expr.NewFuncCall("upper", []expr.Expr{expr.NewColRef(2, "c_name")})
	n := algebra.NewNode(&algebra.Project{
		Exprs: []algebra.ProjExpr{
			{Out: algebra.OutCol{ID: 60, Name: "uname", Kind: sqltypes.KindString}, E: up},
		},
	}, custGet())
	r, err := Decode(n, fullCaps())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.SQL, "upper(t0.c_name) AS c60") {
		t.Errorf("SQL = %q", r.SQL)
	}
	// Function not in the remote profile: not remotable.
	caps := fullCaps()
	caps.Profile.Funcs = nil
	if _, err := Decode(n, caps); err == nil {
		t.Error("non-profile function decoded")
	}
}

func TestDecodeParameters(t *testing.T) {
	n := algebra.NewNode(&algebra.Select{
		Filter: expr.NewBinary(expr.OpEq, expr.NewColRef(1, "c_custkey"), expr.NewParam("p0")),
	}, custGet())
	r, err := Decode(n, fullCaps())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.SQL, "= @p0") {
		t.Errorf("SQL = %q", r.SQL)
	}
	if len(r.Params) != 1 || r.Params[0] != "p0" {
		t.Errorf("Params = %v", r.Params)
	}
	caps := fullCaps()
	caps.Profile.Params = false
	if _, err := Decode(n, caps); err == nil {
		t.Error("params decoded without param capability")
	}
}

func TestDecodeDateFormatProperty(t *testing.T) {
	n := algebra.NewNode(&algebra.Select{
		Filter: expr.NewBinary(expr.OpGe, expr.NewColRef(1, "c_custkey"), expr.NewConst(sqltypes.NewDate(1992, 1, 1))),
	}, custGet())
	caps := fullCaps()
	caps.DateFormat = "{d '2006-01-02'}"
	r, err := Decode(n, caps)
	if err != nil {
		t.Fatal(err)
	}
	date := sqltypes.NewDate(1992, 1, 1)
	checkLifted(t, r, "(t0.c_custkey >= @__k0)", "(t0.c_custkey >= {d '1992-01-01'})", date)
	// Default format.
	r2, _ := Decode(n, fullCaps())
	checkLifted(t, r2, "(t0.c_custkey >= @__k0)", "(t0.c_custkey >= '1992-01-01')", date)
	// A dialect without parameters ships the formatted literal itself.
	caps.Profile.Params = false
	r3, err := Decode(n, caps)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r3.SQL, "(t0.c_custkey >= {d '1992-01-01'})") || len(r3.Binds) != 0 {
		t.Errorf("SQL = %q, binds %v", r3.SQL, r3.Binds)
	}
}

func TestDecodeLikeInNullNot(t *testing.T) {
	pred := expr.Conjoin([]expr.Expr{
		&expr.Like{E: expr.NewColRef(2, "c_name"), Pattern: expr.NewConst(sqltypes.NewString("A%"))},
		&expr.InList{E: expr.NewColRef(1, "c_custkey"), List: []expr.Expr{expr.NewConst(sqltypes.NewInt(1)), expr.NewConst(sqltypes.NewInt(2))}},
		&expr.IsNull{E: expr.NewColRef(3, "c_nationkey"), Negate: true},
		expr.NewNot(expr.NewBinary(expr.OpEq, expr.NewColRef(1, "k"), expr.NewConst(sqltypes.NewInt(9)))),
	})
	n := algebra.NewNode(&algebra.Select{Filter: pred}, custGet())
	r, err := Decode(n, fullCaps())
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"LIKE 'A%'", "IS NOT NULL", "NOT ("} {
		if !strings.Contains(r.SQL, frag) {
			t.Errorf("SQL missing %q: %q", frag, r.SQL)
		}
	}
	// The LIKE pattern stays literal; the IN items and the comparison lift.
	checkLifted(t, r, "IN (@__k0, @__k1))) AND (t0.c_nationkey IS NOT NULL)) AND (NOT (t0.c_custkey = @__k2))",
		"IN (1, 2))) AND (t0.c_nationkey IS NOT NULL)) AND (NOT (t0.c_custkey = 9))",
		sqltypes.NewInt(1), sqltypes.NewInt(2), sqltypes.NewInt(9))
	caps := fullCaps()
	caps.Profile.Like = false
	if _, err := Decode(n, caps); err == nil {
		t.Error("LIKE decoded without capability")
	}
}

func TestDecodeContainsNeverRemotable(t *testing.T) {
	ct, _ := expr.NewContains(expr.NewColRef(2, "c_name"), "database")
	n := algebra.NewNode(&algebra.Select{Filter: ct}, custGet())
	if _, err := Decode(n, fullCaps()); err == nil {
		t.Error("CONTAINS decoded to SQL")
	}
}

func TestDecodeNonBaseSourceFails(t *testing.T) {
	n := algebra.NewNode(&algebra.Get{
		Src:  &algebra.Source{Kind: algebra.SourceFullText, Table: "docs", Query: "x"},
		Cols: []algebra.OutCol{{ID: 1, Name: "k"}},
	})
	if _, err := Decode(n, fullCaps()); err == nil {
		t.Error("full-text source decoded as SQL")
	}
}

func TestDecodeQuoting(t *testing.T) {
	def := &schema.Table{
		Catalog: "db", Name: "order details",
		Columns: []schema.Column{{Name: "id", Kind: sqltypes.KindInt}},
	}
	n := algebra.NewNode(&algebra.Get{
		Src:  &algebra.Source{Server: "r", Catalog: "db", Table: "order details", Def: def},
		Cols: []algebra.OutCol{{ID: 1, Name: "id", Kind: sqltypes.KindInt}},
	})
	caps := fullCaps()
	caps.QuoteChar = "["
	r, err := Decode(n, caps)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.SQL, "[order details]") {
		t.Errorf("SQL = %q", r.SQL)
	}
	caps.QuoteChar = `"`
	r2, _ := Decode(n, caps)
	if !strings.Contains(r2.SQL, `"order details"`) {
		t.Errorf("SQL = %q", r2.SQL)
	}
}

func TestDecodeUnionAllNotSupported(t *testing.T) {
	n := algebra.NewNode(&algebra.UnionAll{
		OutColsList: []algebra.OutCol{{ID: 1, Name: "k"}},
		InMaps:      [][]expr.ColumnID{{1}, {10}},
	}, custGet(), suppGet())
	var nr *ErrNotRemotable
	_, err := Decode(n, fullCaps())
	if !errors.As(err, &nr) {
		t.Errorf("want ErrNotRemotable for UnionAll, got %v", err)
	}
}

// TestDecodeParamInList covers the batched key-lookup shape: an IN list
// whose members are parameter slots renders in full dialects and is
// refused (ErrNotRemotable) by profiles without IN-list support, so the
// optimizer falls back to serial parameterization.
func TestDecodeParamInList(t *testing.T) {
	inlist := &expr.InList{E: expr.NewColRef(1, "c_custkey"), List: []expr.Expr{
		expr.NewParam("b7_0_0"), expr.NewParam("b7_0_1"), expr.NewParam("b7_0_2"),
	}}
	n := algebra.NewNode(&algebra.Select{Filter: inlist}, custGet())
	r, err := Decode(n, fullCaps())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.SQL, "IN (@b7_0_0, @b7_0_1, @b7_0_2)") {
		t.Errorf("SQL = %q", r.SQL)
	}
	if len(r.Params) != 3 {
		t.Errorf("Params = %v, want the three IN slots", r.Params)
	}

	limited := fullCaps()
	limited.Profile.InList = false
	if _, err := Decode(n, limited); err == nil {
		t.Fatal("IN list decoded under a profile without IN-list support")
	} else {
		var nr *ErrNotRemotable
		if !errors.As(err, &nr) {
			t.Errorf("want ErrNotRemotable, got %v", err)
		}
	}
}

// literalSQL is r's reported form: its binds written back as literals.
func literalSQL(r *Result) string {
	return (&algebra.RemoteQuery{SQL: r.SQL, Binds: r.Binds}).LiteralSQL()
}

// checkLifted asserts the shipped text contains shipped, the binds carry
// want in order under the generated names, and the literal form — the text
// diagnostics report — contains literal.
func checkLifted(t *testing.T, r *Result, shipped, literal string, want ...sqltypes.Value) {
	t.Helper()
	if !strings.Contains(r.SQL, shipped) {
		t.Errorf("shipped SQL missing %q: %q", shipped, r.SQL)
	}
	if len(r.Binds) != len(want) {
		t.Fatalf("binds = %v, want %d", r.Binds, len(want))
	}
	for i, b := range r.Binds {
		if b.Name != liftPrefix+strconv.Itoa(i) || b.Val.Kind() != want[i].Kind() || sqltypes.Compare(b.Val, want[i]) != 0 {
			t.Errorf("bind %d = %s %v, want %s%d %v", i, b.Name, b.Val, liftPrefix, i, want[i])
		}
	}
	if lit := literalSQL(r); !strings.Contains(lit, literal) || strings.Contains(lit, "@"+liftPrefix) {
		t.Errorf("literal SQL missing %q: %q", literal, lit)
	}
}

// TestDecodeLiftsOnlyPredicateConstants: WHERE, ON and EXISTS constants
// lift; NULL, the select list, GROUP BY, ORDER BY and TOP stay literal; and
// the literal form is byte-identical to what a dialect without parameters
// receives.
func TestDecodeLiftsOnlyPredicateConstants(t *testing.T) {
	plus := expr.NewBinary(expr.OpAdd, expr.NewColRef(1, "c_custkey"), expr.NewConst(sqltypes.NewInt(100)))
	proj := algebra.NewNode(&algebra.Project{Exprs: []algebra.ProjExpr{
		{Out: algebra.OutCol{ID: 70, Name: "k", Kind: sqltypes.KindInt}, E: plus},
		{Out: algebra.OutCol{ID: 3, Name: "c_nationkey", Kind: sqltypes.KindInt}, E: expr.NewColRef(3, "c_nationkey")},
	}}, algebra.NewNode(&algebra.Select{Filter: expr.Conjoin([]expr.Expr{
		expr.NewBinary(expr.OpEq, expr.NewColRef(2, "c_name"), expr.NewConst(sqltypes.NewString("it's"))),
		expr.NewBinary(expr.OpEq, expr.NewColRef(3, "c_nationkey"), expr.NewConst(sqltypes.Null)),
	})}, custGet()))
	on := expr.Conjoin([]expr.Expr{
		expr.NewBinary(expr.OpEq, expr.NewColRef(3, "c_nationkey"), expr.NewColRef(11, "s_nationkey")),
		expr.NewBinary(expr.OpLt, expr.NewColRef(10, "s_suppkey"), expr.NewConst(sqltypes.NewInt(1<<60))),
	})
	join := algebra.NewNode(&algebra.Join{Type: algebra.InnerJoin, On: on}, custGet(), suppGet())
	top := algebra.NewNode(&algebra.Top{N: 7, Ordering: algebra.Ordering{{Col: 70}}}, proj)
	for _, tc := range []struct {
		name            string
		n               *algebra.Node
		shipped, litFrg string
		want            []sqltypes.Value
	}{
		{"select list and NULL literal", top,
			"SELECT TOP 7 (t0.c_custkey + 100) AS c70, t0.c_nationkey AS c3 FROM tpch10g.dbo.customer AS t0 WHERE ((t0.c_name = @__k0) AND (t0.c_nationkey = NULL)) ORDER BY c70",
			"WHERE ((t0.c_name = 'it''s') AND (t0.c_nationkey = NULL))",
			[]sqltypes.Value{sqltypes.NewString("it's")}},
		{"join condition", join,
			"ON ((t0.c_nationkey = t1.s_nationkey) AND (t1.s_suppkey < @__k0))",
			"(t1.s_suppkey < 1152921504606846976)",
			[]sqltypes.Value{sqltypes.NewInt(1 << 60)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, err := Decode(tc.n, fullCaps())
			if err != nil {
				t.Fatal(err)
			}
			checkLifted(t, r, tc.shipped, tc.litFrg, tc.want...)
			off := fullCaps()
			off.Profile.Params = false
			plain, err := Decode(tc.n, off)
			if err != nil {
				t.Fatal(err)
			}
			if len(plain.Binds) != 0 || plain.SQL != literalSQL(r) {
				t.Errorf("literal form %q\ndiffers from the parameterless decode %q", literalSQL(r), plain.SQL)
			}
		})
	}
}

// TestDecodeLiftedNamesAvoidStatementParams: a statement parameter named
// like a lifted one moves the generated names out of its way, so the text
// never names one parameter for two values.
func TestDecodeLiftedNamesAvoidStatementParams(t *testing.T) {
	pred := expr.Conjoin([]expr.Expr{
		expr.NewBinary(expr.OpGt, expr.NewColRef(1, "c_custkey"), expr.NewConst(sqltypes.NewInt(3))),
		expr.NewBinary(expr.OpEq, expr.NewColRef(3, "c_nationkey"), expr.NewParam("__k0")),
	})
	r, err := Decode(algebra.NewNode(&algebra.Select{Filter: pred}, custGet()), fullCaps())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Params) != 1 || r.Params[0] != "__k0" {
		t.Errorf("Params = %v", r.Params)
	}
	if len(r.Binds) != 1 || r.Binds[0].Name != "___k0" {
		t.Fatalf("binds = %v, want one named ___k0", r.Binds)
	}
	if !strings.Contains(r.SQL, "((t0.c_custkey > @___k0) AND (t0.c_nationkey = @__k0))") {
		t.Errorf("SQL = %q", r.SQL)
	}
	if lit := literalSQL(r); !strings.Contains(lit, "((t0.c_custkey > 3) AND (t0.c_nationkey = @__k0))") {
		t.Errorf("literal SQL = %q", lit)
	}
}

// TestDecodeWrite pins the write texts: INSERT VALUES keeps every constant
// literal (a FLOAT keeps its decimal point whatever its magnitude), UPDATE
// and DELETE print through the scalar writer, statement parameters are
// reported, and a level that cannot express the write refuses it.
func TestDecodeWrite(t *testing.T) {
	def := &schema.Table{Catalog: "db", Schema: "dbo", Name: "order lines", Columns: []schema.Column{
		{Name: "id", Kind: sqltypes.KindInt}, {Name: "f", Kind: sqltypes.KindFloat}, {Name: "s", Kind: sqltypes.KindString},
	}}
	src := &algebra.Source{Server: "srv", Catalog: "db", Schema: "dbo", Table: "order lines", Def: def}
	id, f := expr.BoundColRef(1, "id", 0), expr.BoundColRef(2, "f", 1)
	caps := fullCaps()
	caps.QuoteChar = "["
	for _, c := range []struct {
		w    Write
		want string
	}{
		{Write{Kind: Insert, Table: src, Rows: []rowset.Row{
			{sqltypes.NewInt(1), sqltypes.NewFloat(1e21), sqltypes.NewString("O'Brien")},
			{sqltypes.NewInt(2), sqltypes.NewFloat(1e-7), sqltypes.Null},
		}}, "INSERT INTO db.dbo.[order lines] VALUES (1, 1000000000000000000000.0, 'O''Brien'), (2, 0.0000001, NULL)"},
		{Write{Kind: Update, Table: src,
			Set:   []Assign{{Col: 1, E: expr.NewBinary(expr.OpDiv, id, expr.NewConst(sqltypes.NewFloat(2)))}},
			Where: expr.NewBinary(expr.OpEq, id, expr.NewParam("id"))},
			"UPDATE db.dbo.[order lines] SET f = (id / 2.0) WHERE (id = @id)"},
		{Write{Kind: Delete, Table: src, Where: expr.NewBinary(expr.OpGt, f, expr.NewConst(sqltypes.NewFloat(1.5)))},
			"DELETE FROM db.dbo.[order lines] WHERE (f > 1.5)"},
		{Write{Kind: Delete, Table: src}, "DELETE FROM db.dbo.[order lines]"},
	} {
		res, err := DecodeWrite(&c.w, caps)
		if err != nil {
			t.Fatal(err)
		}
		if res.SQL != c.want {
			t.Errorf("got  %s\nwant %s", res.SQL, c.want)
		}
		if len(res.Binds) != 0 {
			t.Errorf("%s lifted binds %v", res.SQL, res.Binds)
		}
	}
	up := &Write{Kind: Update, Table: src, Set: []Assign{{Col: 2, E: expr.NewParam("s")}},
		Where: expr.NewBinary(expr.OpEq, id, expr.NewParam("id"))}
	res, err := DecodeWrite(up, caps)
	if err != nil || strings.Join(res.Params, ",") != "s,id" {
		t.Errorf("params = %v, err %v; want [s id]", res.Params, err)
	}
	var nr *ErrNotRemotable
	noParams := fullCaps()
	noParams.Profile.Params = false
	if _, err := DecodeWrite(up, noParams); !errors.As(err, &nr) {
		t.Errorf("a parameter without Profile.Params: err = %v, want ErrNotRemotable", err)
	}
	for _, level := range []oledb.SQLSupport{oledb.SQLNone, oledb.SQLProprietary} {
		c := fullCaps()
		c.SQLSupport = level
		if _, err := DecodeWrite(&Write{Kind: Delete, Table: src}, c); !errors.As(err, &nr) {
			t.Errorf("%s: err = %v, want ErrNotRemotable", level, err)
		}
	}
}
