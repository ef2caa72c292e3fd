package engine

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"dhqp/internal/algebra"
	"dhqp/internal/binder"
	"dhqp/internal/decoder"
	"dhqp/internal/netsim"
	"dhqp/internal/oledb"
	"dhqp/internal/parser"
	"dhqp/internal/providers/sqlful"
	"dhqp/internal/schema"
	"dhqp/internal/shardmap"
	"dhqp/internal/sqltypes"
)

// floatCols is an elastic layout with a FLOAT payload.
func floatCols() []schema.Column {
	return []schema.Column{
		{Name: "o_id", Kind: sqltypes.KindInt},
		{Name: "f", Kind: sqltypes.KindFloat, Nullable: true},
	}
}

// TestForwardedUpdateKeepsFloat: a FLOAT constant in a forwarded UPDATE
// keeps its decimal point, so i / 2.0 divides in FLOAT on the member, both
// through a four-part name and through a one-arm view over it.
func TestForwardedUpdateKeepsFloat(t *testing.T) {
	local, remote, _ := linkTwo(t)
	remote.MustExec(`CREATE TABLE ft (i INT, f FLOAT)`)
	local.InvalidateRemoteSchema("remote0")
	local.MustExec(`CREATE VIEW fv AS SELECT i, f FROM remote0.salesdb.dbo.ft`)
	for _, target := range []string{"remote0.salesdb.dbo.ft", "fv"} {
		remote.MustExec(`DELETE FROM ft`)
		remote.MustExec(`INSERT INTO ft VALUES (3, 0.0)`)
		if _, err := local.Exec(`UPDATE ` + target + ` SET f = i / 2.0`); err != nil {
			t.Fatalf("%s: %v", target, err)
		}
		if got := q(t, remote, `SELECT f FROM ft`).Rows[0][0]; got.Kind() != sqltypes.KindFloat || got.Float() != 1.5 {
			t.Errorf("UPDATE %s SET f = i / 2.0 stored %v, want 1.5", target, got)
		}
	}
}

// TestFloatExtremesReachRemoteMembers: FLOATs whose shortest form has an
// exponent survive every forwarded write — a view INSERT onto remote
// members, an INSERT … SELECT onto a four-part name, and a rebalance that
// copies a local shard onto a remote server.
func TestFloatExtremesReachRemoteMembers(t *testing.T) {
	head, _ := buildElasticHead(t, 3)
	err := head.CreateElasticView("fl", "o_id", floatCols(), []ShardPlacement{
		{Server: "", Lo: shardmap.NoLowerBound, Hi: 10},
		{Server: "server1", Lo: 10, Hi: 20},
		{Server: "server2", Lo: 20, Hi: shardmap.NoUpperBound},
	})
	if err != nil {
		t.Fatal(err)
	}
	const big, tiny = 1e21, 1e-7
	head.MustExec(`INSERT INTO fl VALUES (1, 1000000000000000000000.0), (11, 1000000000000000000000.0), (21, 0.0000001)`)
	for _, c := range []struct {
		id   int
		want float64
	}{{1, big}, {11, big}, {21, tiny}} {
		res := q(t, head, fmt.Sprintf(`SELECT f FROM fl WHERE o_id = %d`, c.id))
		if len(res.Rows) != 1 || res.Rows[0][0].Float() != c.want {
			t.Errorf("o_id %d reads back %v, want %g", c.id, res.Rows, c.want)
		}
	}

	head.MustExec(`CREATE TABLE src (o_id INT, f FLOAT)`)
	head.MustExec(`INSERT INTO src VALUES (30, 1000000000000000000000.0)`)
	head.MustExec(`CREATE TABLE server3.fed.dbo.ft (o_id INT, f FLOAT)`)
	head.InvalidateRemoteSchema("server3")
	if _, err := head.Exec(`INSERT INTO server3.fed.dbo.ft SELECT o_id, f FROM src`); err != nil {
		t.Fatalf("INSERT … SELECT of 1e21 onto a remote table: %v", err)
	}
	if got := q(t, head, `SELECT f FROM server3.fed.dbo.ft`).Rows[0][0].Float(); got != big {
		t.Errorf("remote copy = %g, want %g", got, big)
	}

	dump := func() string { return fmt.Sprint(q(t, head, `SELECT o_id, f FROM fl ORDER BY o_id`).Rows) }
	before := dump()
	if err := head.RebalanceShard("fl", 1, ShardPlacement{Server: "server3"}); err != nil {
		t.Fatalf("rebalancing a shard holding 1e21 onto a remote server: %v", err)
	}
	if after := dump(); after != before {
		t.Errorf("rebalance changed the view:\nbefore %s\nafter  %s", before, after)
	}
}

// linkCalls sums the calls every link has taken.
func linkCalls(links []*netsim.Link) (total int64, reached int) {
	for _, l := range links {
		if c := l.Stats().Calls; c > 0 {
			total += c
			reached++
		}
	}
	return total, reached
}

func resetLinks(links []*netsim.Link) {
	for _, l := range links {
		l.Reset()
	}
}

// TestViewWritePrunesByParameter is the count gate of parameter pruning: on
// a 32-member elastic view, a keyed UPDATE or DELETE calls exactly the one
// member that owns @id, a window calls the members that own it, and a NULL
// @id calls none.
func TestViewWritePrunesByParameter(t *testing.T) {
	const members, width = 32, 10
	head, links := buildElasticHead(t, members)
	var places []ShardPlacement
	for i := 0; i < members; i++ {
		places = append(places, ShardPlacement{Server: "server" + itoa(i+1), Lo: int64(i * width), Hi: int64((i + 1) * width)})
	}
	if err := head.CreateElasticView("orders", "o_id", orderCols(), places); err != nil {
		t.Fatal(err)
	}
	seedElastic(t, head, "orders", members*width)
	id := func(v int64) map[string]sqltypes.Value { return map[string]sqltypes.Value{"id": sqltypes.NewInt(v)} }
	const update = `UPDATE orders SET amount = amount + 1 WHERE o_id = @id`
	const del = `DELETE FROM orders WHERE o_id = @id`
	for _, k := range []int64{5, 137, 319} {
		for _, sql := range []string{update, del} {
			resetLinks(links)
			n, err := head.ExecParams(sql, id(k))
			if err != nil {
				t.Fatal(err)
			}
			if n != 1 {
				t.Errorf("%s @id=%d affected %d rows, want 1", sql, k, n)
			}
			if calls, reached := linkCalls(links); calls != 1 || links[k/width].Stats().Calls != 1 {
				t.Errorf("%s @id=%d made %d link calls on %d members, want 1 on server%d", sql, k, calls, reached, k/width+1)
			}
		}
	}
	resetLinks(links)
	n, err := head.ExecParams(`UPDATE orders SET amount = 0 WHERE o_id >= @lo AND o_id < @hi`,
		map[string]sqltypes.Value{"lo": sqltypes.NewInt(95), "hi": sqltypes.NewInt(125)})
	if err != nil {
		t.Fatal(err)
	}
	if n != 30 {
		t.Errorf("window [95,125) updated %d rows, want 30", n)
	}
	for i, l := range links {
		want := int64(0)
		if i >= 9 && i <= 12 {
			want = 1
		}
		if got := l.Stats().Calls; got != want {
			t.Errorf("window [95,125): server%d took %d calls, want %d", i+1, got, want)
		}
	}
	resetLinks(links)
	for _, sql := range []string{update, del} {
		n, err := head.ExecParams(sql, map[string]sqltypes.Value{"id": sqltypes.Null})
		if err != nil || n != 0 {
			t.Errorf("%s @id=NULL: affected %d, err %v; want 0, nil", sql, n, err)
		}
	}
	if calls, _ := linkCalls(links); calls != 0 {
		t.Errorf("@id = NULL made %d link calls, want 0", calls)
	}
}

// TestViewUpdateRefusesPartitionKey: an UPDATE that SETs a view's
// partitioning column fails with ErrPartitionKeyUpdate before any member
// is called, on an elastic view (where it used to leave the row in a member
// that no longer owns its key) and on a CHECK-partitioned one (where it
// used to fail half-way, in phase two).
func TestViewUpdateRefusesPartitionKey(t *testing.T) {
	head, links := buildElasticHead(t, 2)
	err := head.CreateElasticView("orders", "o_id", orderCols(), []ShardPlacement{
		{Server: "", Lo: shardmap.NoLowerBound, Hi: 40},
		{Server: "server1", Lo: 40, Hi: 80},
		{Server: "server2", Lo: 80, Hi: shardmap.NoUpperBound},
	})
	if err != nil {
		t.Fatal(err)
	}
	seedElastic(t, head, "orders", 120)
	count, sum := elasticChecksum(t, head, "orders")
	resetLinks(links)
	_, err = head.Exec(`UPDATE orders SET o_id = o_id + 50 WHERE o_id = 5`)
	if !errors.Is(err, ErrPartitionKeyUpdate) {
		t.Errorf("elastic key-moving UPDATE: err = %v, want ErrPartitionKeyUpdate", err)
	}
	if calls, _ := linkCalls(links); calls != 0 {
		t.Errorf("refused UPDATE made %d link calls", calls)
	}
	if c, s := elasticChecksum(t, head, "orders"); c != count || s != sum {
		t.Errorf("refused UPDATE changed the view: %d/%d, want %d/%d", c, s, count, sum)
	}
	if res := q(t, head, `SELECT o_id FROM orders WHERE o_id = 5`); len(res.Rows) != 1 {
		t.Errorf("point read of o_id 5 = %v", res.Rows)
	}

	fed, members, fedLinks := buildFederation(t)
	q(t, fed, `SELECT COUNT(*) FROM all_sales`) // fetches the members' schemas
	resetLinks(fedLinks)
	_, err = fed.Exec(`UPDATE all_sales SET y = y + 1, amount = 0 WHERE amount < 1010`)
	if !errors.Is(err, ErrPartitionKeyUpdate) {
		t.Fatalf("static key-moving UPDATE: err = %v, want ErrPartitionKeyUpdate", err)
	}
	if calls, _ := linkCalls(fedLinks); calls != 0 {
		t.Errorf("refused UPDATE made %d link calls", calls)
	}
	for i, m := range members {
		if got := q(t, m, `SELECT MIN(amount) AS m FROM sales`).Rows[0][0].Int(); got != 1000 {
			t.Errorf("member %d min amount = %d after a refused UPDATE, want 1000", i+1, got)
		}
	}
}

// TestDecodeWriteRoundTrip prints every scalar that binds against a table
// through the decoder's write entry point at SQL-92 full, ODBC core and
// SQL-Minimum, then re-parses and re-binds the text: the result is the
// bound expression it started from, or the level refuses the write with
// ErrNotRemotable.
func TestDecodeWriteRoundTrip(t *testing.T) {
	def := &schema.Table{Catalog: "db", Schema: "dbo", Name: "t", Columns: []schema.Column{
		{Name: "a", Kind: sqltypes.KindInt}, {Name: "b", Kind: sqltypes.KindInt},
		{Name: "name", Kind: sqltypes.KindString}, {Name: "price", Kind: sqltypes.KindFloat},
		{Name: "d", Kind: sqltypes.KindDate},
	}}
	src := &algebra.Source{Server: "srv", Catalog: "db", Schema: "dbo", Table: "t", Def: def}
	cases := []string{
		`a + 1`,
		`(a * 2) - (b / 3)`,
		`a % 5`,
		`name = 'O''Brien'`,
		`a BETWEEN 1 AND 10`,
		`a NOT BETWEEN 1 AND 10`,
		`name LIKE 'x%'`,
		`name NOT LIKE 'x%'`,
		`a IN (1, 2, 3)`,
		`a NOT IN (1)`,
		`a IS NULL`,
		`a IS NOT NULL`,
		`NOT a = 1`,
		`-a`,
		`upper(name)`,
		`date(today(), -2)`,
		`count(*)`,
		`sum(DISTINCT a)`,
		`a = @p`,
		`NULL`,
		`price > 1.5`,
		`price = 1000000000000000000000.0`,
		`price < 0.0000001`,
		`a / 2.0`,
		`t.a = u.b AND (x OR y = 2)`,
		`d = '2024-02-29'`,
	}
	levels := []struct {
		name string
		caps oledb.Capabilities
	}{
		{"sql92-full", sqlful.FullSQLCapabilities()},
		{"odbc-core", sqlful.ODBCCoreCapabilities()},
		{"sql-minimum", sqlful.MinimalSQLCapabilities()},
	}
	bound, printed := 0, 0
	for _, text := range cases {
		ast, err := parser.ParseExpr(text)
		if err != nil {
			t.Fatalf("%s: %v", text, err)
		}
		e, err := binder.BindTableScalar(def, ast)
		if err != nil {
			continue // not a table scalar
		}
		bound++
		for _, lv := range levels {
			w := &decoder.Write{Kind: decoder.Update, Table: src, Set: []decoder.Assign{{Col: 1, E: e}}, Where: e}
			res, err := decoder.DecodeWrite(w, lv.caps)
			var refused *decoder.ErrNotRemotable
			if errors.As(err, &refused) {
				continue
			}
			if err != nil {
				t.Fatalf("%s at %s: %v", text, lv.name, err)
			}
			printed++
			st, err := parser.Parse(res.SQL)
			if err != nil {
				t.Fatalf("%s at %s: %q does not re-parse: %v", text, lv.name, res.SQL, err)
			}
			up := st.(*parser.UpdateStmt)
			if got := up.Table.Name(); got != "t" || len(up.Set) != 1 || up.Set[0].Column != "b" {
				t.Fatalf("%s at %s: %q names the wrong target", text, lv.name, res.SQL)
			}
			for _, back := range []parser.Expr{up.Set[0].E, up.Where} {
				re, err := binder.BindTableScalar(def, back)
				if err != nil {
					t.Fatalf("%s at %s: %q does not re-bind: %v", text, lv.name, res.SQL, err)
				}
				if re.String() != e.String() {
					t.Errorf("%s at %s: %q re-binds to %s, want %s", text, lv.name, res.SQL, re, e)
				}
			}
		}
	}
	if bound < 20 || printed < 2*bound {
		t.Errorf("%d of %d cases bound and %d printed: the round trip covers too little", bound, len(cases), printed)
	}

	// IN (SELECT …) is still refused, and the member is not called.
	local, remote, link := linkTwo(t)
	local.MustExec(`CREATE TABLE picks (id INT)`)
	local.MustExec(`INSERT INTO picks VALUES (1)`)
	q(t, local, `SELECT s_id FROM remote0.salesdb.dbo.supplier`)
	link.Reset()
	if _, err := local.Exec(`DELETE FROM remote0.salesdb.dbo.supplier WHERE s_id IN (SELECT id FROM picks)`); err == nil {
		t.Error("DELETE … IN (SELECT …) forwarded")
	}
	if link.Stats().Calls != 0 {
		t.Errorf("refused DELETE made %d link calls", link.Stats().Calls)
	}
	if n := q(t, remote, `SELECT COUNT(*) FROM supplier`).Rows[0][0].Int(); n != 4 {
		t.Errorf("supplier has %d rows after a refused DELETE, want 4", n)
	}
}

// addElasticTwin copies table from into a 4-member elastic view named view,
// keyed on id: one member local, three behind sqlful on their own servers.
func addElasticTwin(t *testing.T, s *Server, view, from string) {
	t.Helper()
	var cols []schema.Column
	for i := 0; i < 3; i++ {
		m := NewServer("twin"+itoa(i+1), "fed")
		m.MustExec(`CREATE TABLE bootstrap (x INT)`)
		link := netsim.LAN()
		if err := s.AddLinkedServer("twin"+itoa(i+1), sqlful.New(m, link, sqlful.FullSQLCapabilities()), link); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range q(t, s, `SELECT * FROM `+from+` WHERE id < 0`).Cols {
		cols = append(cols, schema.Column{Name: c.Name, Kind: c.Kind, Nullable: !strings.EqualFold(c.Name, "id")})
	}
	err := s.CreateElasticView(view, "id", cols, []ShardPlacement{
		{Server: "", Catalog: "fed", Lo: shardmap.NoLowerBound, Hi: 50},
		{Server: "twin1", Catalog: "fed", Lo: 50, Hi: 100},
		{Server: "twin2", Catalog: "fed", Lo: 100, Hi: 150},
		{Server: "twin3", Catalog: "fed", Lo: 150, Hi: shardmap.NoUpperBound},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.MustExec(`INSERT INTO ` + view + ` SELECT * FROM ` + from)
}

// keyedTable creates t (id INT PRIMARY KEY, k INT, v INT) holding n rows,
// k = id % 10, v = 0.
func keyedTable(t *testing.T, s *Server, n int) {
	t.Helper()
	s.MustExec(`CREATE TABLE t (id INT PRIMARY KEY, k INT, v INT)`)
	var b strings.Builder
	for id := 0; id < n; id++ {
		if id > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%d, %d, 0)", id, id%10)
	}
	s.MustExec(`INSERT INTO t VALUES ` + b.String())
}

// TestWritePlanIsCached pins the cached write plan: a parameterized keyed
// UPDATE or DELETE compiles once per text, DDL and a topology cutover each
// make the next execution recompile against what changed, and a cached
// plan of one kind does not answer a statement of the other.
func TestWritePlanIsCached(t *testing.T) {
	s := NewServer("local", "db")
	keyedTable(t, s, 100)
	for _, sql := range []string{`UPDATE t SET v = v + 1 WHERE id = @id`, `DELETE FROM t WHERE id = @id`} {
		before := s.PlanCacheStats()
		for i := 0; i < 50; i++ {
			if n, err := s.ExecParams(sql, map[string]sqltypes.Value{"id": sqltypes.NewInt(int64(i))}); err != nil || n != 1 {
				t.Fatalf("%s with @id = %d: %d rows, err %v", sql, i, n, err)
			}
		}
		after := s.PlanCacheStats()
		if m, h := after.Misses-before.Misses, after.Hits-before.Hits; m != 1 || h != 49 {
			t.Errorf("50 executions of %s: %d misses and %d hits, want 1 and 49", sql, m, h)
		}
	}

	// DDL: the same text seeks once an index can serve it.
	examined := s.Metrics().Counter("dhqp_dml_rows_examined_total", "")
	byK := func() int64 {
		t.Helper()
		e0 := examined.Value()
		n, err := s.ExecParams(`UPDATE t SET v = v + 1 WHERE k = @k`, map[string]sqltypes.Value{"k": sqltypes.NewInt(3)})
		if err != nil || n != 5 {
			t.Fatalf("UPDATE … WHERE k = 3: %d rows, err %v; want 5", n, err)
		}
		return examined.Value() - e0
	}
	if e := byK(); e != 50 {
		t.Errorf("without an index on k the UPDATE examined %d rows, want all 50", e)
	}
	s.MustExec(`CREATE INDEX t_k ON t (k)`)
	if e := byK(); e != 5 {
		t.Errorf("after CREATE INDEX the cached UPDATE examined %d rows, want the 5 it changes", e)
	}

	// A cached plan of the other kind: the statement fails as an uncached
	// one does.
	fresh := NewServer("fresh", "db")
	keyedTable(t, fresh, 1)
	const upd, sel = `UPDATE t SET v = 1 WHERE id = @id`, `SELECT v FROM t WHERE id = @id`
	id := map[string]sqltypes.Value{"id": sqltypes.NewInt(60)}
	_, want := fresh.Query(upd, id)
	if _, err := s.ExecParams(upd, id); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Query(upd, id); err == nil || err.Error() != want.Error() {
		t.Errorf("Query of a cached UPDATE: %v, want %v", err, want)
	}
	_, want = fresh.ExecParams(sel, id)
	if _, err := s.Query(sel, id); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ExecParams(sel, id); err == nil || err.Error() != want.Error() {
		t.Errorf("Exec of a cached SELECT: %v, want %v", err, want)
	}

	// A topology cutover: after the split, the cached UPDATE reaches the
	// key on its new member.
	head, _ := buildElasticHead(t, 1)
	if err := head.CreateElasticView("orders", "o_id", orderCols(), []ShardPlacement{{Server: "", Lo: 0, Hi: 100}}); err != nil {
		t.Fatal(err)
	}
	seedElastic(t, head, "orders", 100)
	const move = `UPDATE orders SET amount = @a WHERE o_id = @id`
	set := func(a int64) {
		t.Helper()
		n, err := head.ExecParams(move, map[string]sqltypes.Value{"a": sqltypes.NewInt(a), "id": sqltypes.NewInt(70)})
		if err != nil || n != 1 {
			t.Fatalf("%s with @a = %d: %d rows, err %v", move, a, n, err)
		}
	}
	set(-1)
	if err := head.SplitShard("orders", 50, ShardPlacement{Server: "server1"}); err != nil {
		t.Fatal(err)
	}
	set(-2)
	if got := q(t, head, `SELECT amount FROM orders WHERE o_id = 70`).Rows; len(got) != 1 || got[0][0].Int() != -2 {
		t.Errorf("o_id 70 after the split and the cached UPDATE: %v, want amount -2", got)
	}
}

// TestCachedWritesUnderDDLAndConfigure: eight goroutines run one cached
// UPDATE text and one cached DELETE text on disjoint keys while another
// creates indexes, flips a planning field and grows the table past its
// plans' resize threshold, so plans recompile under them. The table ends
// as a serial run leaves it.
func TestCachedWritesUnderDDLAndConfigure(t *testing.T) {
	const workers, rows = 8, 400
	// grow inserts 700 rows with keys no worker touches.
	grow := func(s *Server, i int) error {
		var vals []string
		for id := rows + 700*i; id < rows+700*(i+1); id++ {
			vals = append(vals, fmt.Sprintf("(%d, %d, 0)", id, id%10))
		}
		_, err := s.Exec(`INSERT INTO t VALUES ` + strings.Join(vals, ", "))
		return err
	}
	const upd, del = `UPDATE t SET v = v + @d WHERE id = @id`, `DELETE FROM t WHERE id = @id`
	// run updates worker w's keys four times, then updates or deletes them.
	run := func(s *Server, w int) error {
		for pass := 0; pass < 5; pass++ {
			for id := w; id < rows; id += workers {
				p := map[string]sqltypes.Value{"id": sqltypes.NewInt(int64(id)), "d": sqltypes.NewInt(int64(id % 7))}
				sql := upd
				if pass == 4 && id%5 == 0 {
					sql = del
				}
				if n, err := s.ExecParams(sql, p); err != nil || n != 1 {
					return fmt.Errorf("%s with @id = %d: %d rows, err %v", sql, id, n, err)
				}
			}
		}
		return nil
	}
	serial := NewServer("serial", "db")
	keyedTable(t, serial, rows)
	for w := 0; w < workers; w++ {
		if err := run(serial, w); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if err := grow(serial, i); err != nil {
			t.Fatal(err)
		}
	}

	s := NewServer("local", "db")
	keyedTable(t, s, rows)
	errs := make(chan error, workers+1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- run(s, w)
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i, col := range []string{"k", "v", "k, v"} {
			if err := grow(s, i); err != nil {
				errs <- err
				return
			}
			if _, err := s.Exec(fmt.Sprintf(`CREATE INDEX t_%d ON t (%s)`, i, col)); err != nil {
				errs <- err
				return
			}
			s.Configure(func(c *Config) { c.DisableSpool = !c.DisableSpool })
		}
		errs <- nil
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got, want := dumpKeyed(t, s), dumpKeyed(t, serial); got != want {
		t.Fatalf("concurrent run left\n%s\nthe serial run\n%s", got, want)
	}
}

func dumpKeyed(t *testing.T, s *Server) string {
	t.Helper()
	return fmt.Sprint(q(t, s, `SELECT id, k, v FROM t ORDER BY id`).Rows)
}

// TestContainsWriteOnIndexedColumn: a write whose WHERE is a CONTAINS over
// a full-text indexed column finds its rows by scan — the search-and-fetch
// plan a SELECT takes cannot hand back bookmarks — and changes exactly the
// matching rows.
func TestContainsWriteOnIndexedColumn(t *testing.T) {
	s := NewServer("local", "db")
	s.MustExec(`CREATE TABLE docs (id INT PRIMARY KEY, body VARCHAR(100), v INT)`)
	var vals []string
	for i := 0; i < 500; i++ {
		body := "lazy dogs sleep"
		if i%50 == 0 {
			body = "the quick brown fox"
		}
		vals = append(vals, fmt.Sprintf("(%d, '%s', 0)", i, body))
	}
	s.MustExec(`INSERT INTO docs VALUES ` + strings.Join(vals, ", "))
	if err := s.CreateFullTextIndex("ftdocs", "docs", "body"); err != nil {
		t.Fatal(err)
	}
	if plan, _, _, err := s.Plan(`SELECT id FROM docs WHERE CONTAINS(body, 'fox')`); err != nil || !strings.Contains(plan.String(), "RemoteFetch") {
		t.Fatalf("the SELECT does not search the index (err %v):\n%s", err, plan)
	}
	if n, err := s.Exec(`UPDATE docs SET v = id WHERE CONTAINS(body, 'fox')`); err != nil || n != 10 {
		t.Fatalf("UPDATE: %d rows, err %v; want 10", n, err)
	}
	if got := q(t, s, `SELECT SUM(v) FROM docs`).Rows[0][0].Int(); got != 2250 {
		t.Fatalf("SUM(v) = %d after the UPDATE, want 2250", got)
	}
	if n, err := s.Exec(`DELETE FROM docs WHERE CONTAINS(body, 'fox')`); err != nil || n != 10 {
		t.Fatalf("DELETE: %d rows, err %v; want 10", n, err)
	}
}

// TestWritePlanRecompilesAsTableGrows: a keyed UPDATE first compiled on an
// empty table, where a scan is cheapest, recompiles once the table has
// grown and then seeks instead of scanning every row.
func TestWritePlanRecompilesAsTableGrows(t *testing.T) {
	s := NewServer("local", "db")
	s.MustExec(`CREATE TABLE t (id INT PRIMARY KEY, k INT, v INT)`)
	const upd = `UPDATE t SET v = v + 1 WHERE id = @id`
	examined := s.Metrics().Counter("dhqp_dml_rows_examined_total", "")
	exec := func(id int64) int64 {
		t.Helper()
		e0 := examined.Value()
		if _, err := s.ExecParams(upd, map[string]sqltypes.Value{"id": sqltypes.NewInt(id)}); err != nil {
			t.Fatal(err)
		}
		return examined.Value() - e0
	}
	exec(1)
	var vals []string
	for id := 0; id < 10000; id++ {
		vals = append(vals, fmt.Sprintf("(%d, %d, 0)", id, id%10))
	}
	s.MustExec(`INSERT INTO t VALUES ` + strings.Join(vals, ", "))
	if e := exec(5000); e != 1 {
		t.Errorf("after 10 000 inserts the keyed UPDATE examined %d rows, want 1", e)
	}
}

// TestHistogramOfEmptyTableRebuilt: a histogram built while its table was
// empty estimates every predicate at 0 rows, so the first rows written make
// the next compile rebuild it.
func TestHistogramOfEmptyTableRebuilt(t *testing.T) {
	s := NewServer("local", "db")
	s.MustExec(`CREATE TABLE h (id INT, g INT)`)
	if _, _, _, err := s.Plan(`SELECT id FROM h WHERE g = 3`); err != nil {
		t.Fatal(err)
	}
	var vals []string
	for id := 0; id < 300; id++ {
		vals = append(vals, fmt.Sprintf("(%d, %d)", id, id%10))
	}
	s.MustExec(`INSERT INTO h VALUES ` + strings.Join(vals, ", "))
	_, _, report, err := s.Plan(`SELECT id FROM h WHERE g = 4`)
	if err != nil {
		t.Fatal(err)
	}
	if est := report.RootCard; est < 20 || est > 40 {
		t.Errorf("g = 4 over 300 rows with 10 values of g estimated at %.1f rows, want about 30", est)
	}
}

// TestLiteralWritesStayUncached: an UPDATE or DELETE whose WHERE names no
// parameter compiles on every execution outside the plan cache, as INSERT
// does, so ad-hoc literal writes cannot evict cached SELECT plans.
func TestLiteralWritesStayUncached(t *testing.T) {
	s := NewServer("local", "db")
	keyedTable(t, s, 100)
	s.SetPlanCacheCapacity(1)
	sel := func() {
		t.Helper()
		if _, err := s.Query(`SELECT v FROM t WHERE id = @id`, map[string]sqltypes.Value{"id": sqltypes.NewInt(1)}); err != nil {
			t.Fatal(err)
		}
	}
	sel()
	before := s.PlanCacheStats()
	for id := 0; id < 20; id++ {
		s.MustExec(fmt.Sprintf(`UPDATE t SET v = %d WHERE id = %d`, id, id))
		s.MustExec(fmt.Sprintf(`DELETE FROM t WHERE id = %d`, id+50))
	}
	sel()
	after := s.PlanCacheStats()
	if after.Misses != before.Misses || after.Evictions != before.Evictions || after.Hits != before.Hits+1 {
		t.Errorf("plan cache %+v after 40 literal writes and the SELECT again, was %+v: want only one more hit", after, before)
	}
}
