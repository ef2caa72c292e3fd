package engine

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"dhqp/internal/netsim"
	"dhqp/internal/providers/sqlful"
	"dhqp/internal/sqltypes"
)

// dmlTwin builds the same 200 rows in ti (a primary key on id, an index on
// the nullable duplicate-heavy k, a composite one on (g, id), one on the
// string s and one on the float f) and in tu, which has no index at all, so
// every DML on tu scans.
func dmlTwin(t *testing.T, seed int64) *Server {
	t.Helper()
	s := NewServer("local", "db")
	s.MustExec(`CREATE TABLE ti (id INT PRIMARY KEY, k INT, g INT, s VARCHAR(8), f FLOAT, v INT)`)
	s.MustExec(`CREATE INDEX ti_k ON ti (k)`)
	s.MustExec(`CREATE INDEX ti_g_id ON ti (g, id)`)
	s.MustExec(`CREATE INDEX ti_s ON ti (s)`)
	s.MustExec(`CREATE INDEX ti_f ON ti (f)`)
	s.MustExec(`CREATE TABLE tu (id INT, k INT, g INT, s VARCHAR(8), f FLOAT, v INT)`)
	rng := rand.New(rand.NewSource(seed))
	var b strings.Builder
	for id := 0; id < 200; id++ {
		if id > 0 {
			b.WriteString(", ")
		}
		k := fmt.Sprint(rng.Intn(12))
		if rng.Intn(8) == 0 {
			k = "NULL"
		}
		fmt.Fprintf(&b, "(%d, %s, %d, 's%d', %d.5, %d)", id, k, rng.Intn(5), rng.Intn(9), rng.Intn(6), rng.Intn(100))
	}
	s.MustExec(`INSERT INTO ti VALUES ` + b.String())
	s.MustExec(`INSERT INTO tu VALUES ` + b.String())
	return s
}

func dumpTable(t *testing.T, s *Server, table string) string {
	t.Helper()
	res, err := s.Query(`SELECT id, k, g, s, f, v FROM `+table+` ORDER BY id`, nil)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, r := range res.Rows {
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestDMLIndexedEqualsUnindexed is the differential test of the DML access
// path and the write path: whatever the WHERE, a statement on the indexed
// table, the same statement on its index-free twin and on a 4-member
// elastic view of the same rows (one member local, three remote) report the
// same affected count (or all fail) and leave identical tables.
func TestDMLIndexedEqualsUnindexed(t *testing.T) {
	s := dmlTwin(t, 7)
	addElasticTwin(t, s, "te", "tu")
	p := func(kv ...any) map[string]sqltypes.Value {
		m := map[string]sqltypes.Value{}
		for i := 0; i < len(kv); i += 2 {
			m[kv[i].(string)] = kv[i+1].(sqltypes.Value)
		}
		return m
	}
	type stmt struct {
		sql    string
		params map[string]sqltypes.Value
	}
	stmts := []stmt{
		// Equality, open and closed ranges on a leading column.
		{`UPDATE %s SET v = v + 1 WHERE k = 5`, nil},
		{`UPDATE %s SET v = v + 1 WHERE 5 = k`, nil},
		{`UPDATE %s SET v = v + 2 WHERE k > 9`, nil},
		{`UPDATE %s SET v = v + 3 WHERE k <= 1`, nil},
		{`UPDATE %s SET v = v + 4 WHERE k >= 2 AND k < 6`, nil},
		{`UPDATE %s SET v = v + 5 WHERE 3 < k AND 7 >= k`, nil},
		{`UPDATE %s SET v = 0 WHERE id = 17`, nil},
		{`UPDATE %s SET v = 1 WHERE id >= 190`, nil},
		// Non-leading column of the composite index; composite prefix.
		{`UPDATE %s SET v = v + 6 WHERE g = 2`, nil},
		{`UPDATE %s SET v = v + 7 WHERE g = 2 AND id > 100`, nil},
		{`UPDATE %s SET v = v + 8 WHERE g >= 3 AND k = 4`, nil},
		// NULL keys, = NULL, and ranges that must skip the NULL-keyed rows.
		{`UPDATE %s SET v = v + 9 WHERE k = NULL`, nil},
		{`UPDATE %s SET v = v + 9 WHERE k = @p`, p("p", sqltypes.Null)},
		{`UPDATE %s SET v = v + 9 WHERE k < @p`, p("p", sqltypes.Null)},
		{`UPDATE %s SET v = v + 10 WHERE k < 3`, nil},
		{`UPDATE %s SET v = v + 11 WHERE k IS NULL`, nil},
		// Literals and parameters of another kind than the key column.
		{`UPDATE %s SET v = v + 12 WHERE k = '4'`, nil},
		{`UPDATE %s SET v = v + 12 WHERE k > '4'`, nil},
		{`UPDATE %s SET v = v + 13 WHERE k = 4.0`, nil},
		{`UPDATE %s SET v = v + 14 WHERE k < 4.5`, nil},
		{`UPDATE %s SET v = v + 14 WHERE k >= 4.5`, nil},
		{`UPDATE %s SET v = v + 15 WHERE f = 2`, nil},
		{`UPDATE %s SET v = v + 15 WHERE f > 2 AND f <= 4.5`, nil},
		{`UPDATE %s SET v = v + 16 WHERE s = 5`, nil},
		{`UPDATE %s SET v = v + 16 WHERE s >= 's7'`, nil},
		{`UPDATE %s SET v = v + 17 WHERE k = @p`, p("p", sqltypes.NewInt(6))},
		{`UPDATE %s SET v = v + 17 WHERE k = @p`, p("p", sqltypes.NewString("6"))},
		{`UPDATE %s SET v = v + 17 WHERE k = @p`, p("p", sqltypes.NewFloat(6))},
		{`UPDATE %s SET v = v + 17 WHERE k <= @p`, p("p", sqltypes.NewFloat(6.5))},
		{`UPDATE %s SET v = v + 17 WHERE k >= @lo AND k < @hi`, p("lo", sqltypes.NewInt(2), "hi", sqltypes.NewInt(4))},
		{`UPDATE %s SET v = v + 17 WHERE k = @missing`, nil},
		// Residual conjuncts, and predicates with nothing sargable.
		{`UPDATE %s SET v = v + 18 WHERE k = 3 AND v > 40`, nil},
		{`UPDATE %s SET v = v + 19 WHERE k >= 2 AND s <> 's1' AND g < 4`, nil},
		{`UPDATE %s SET v = v + 20 WHERE k = 3 OR k = 8`, nil},
		{`UPDATE %s SET v = v + 21 WHERE k + 1 = 4`, nil},
		{`UPDATE %s SET v = v + 22`, nil},
		// SET that moves the key the range was opened on.
		{`UPDATE %s SET k = k + 100 WHERE k < 3`, nil},
		{`UPDATE %s SET k = k - 100 WHERE k >= 100`, nil},
		{`UPDATE %s SET k = NULL WHERE k = 5`, nil},
		{`UPDATE %s SET k = 5 WHERE k IS NULL AND g = 1`, nil},
		{`UPDATE %s SET g = 9, s = 'moved' WHERE g = 2 AND id < 50`, nil},
		{`UPDATE %s SET f = f + 1 WHERE f >= 4.5`, nil},
		{`UPDATE %s SET f = v / 2.0 WHERE g = 1`, nil},
		{`UPDATE %s SET k = '7' WHERE k = 6`, nil},
		// Deletes through each path.
		{`DELETE FROM %s WHERE id = 3`, nil},
		{`DELETE FROM %s WHERE k = 7 AND v < 50`, nil},
		{`DELETE FROM %s WHERE k > 10`, nil},
		{`DELETE FROM %s WHERE g = 9`, nil},
		{`DELETE FROM %s WHERE s = 's3' AND k = NULL`, nil},
		{`DELETE FROM %s WHERE id >= @lo AND id < @hi`, p("lo", sqltypes.NewInt(150), "hi", sqltypes.NewInt(160))},
		{`DELETE FROM %s WHERE k = @p`, p("p", sqltypes.NewString("x"))},
	}
	// A generated tail on top of the hand-picked shapes.
	rng := rand.New(rand.NewSource(11))
	ops := []string{"=", "<", "<=", ">", ">="}
	cols := []string{"k", "g", "id", "f"}
	for i := 0; i < 60; i++ {
		col, op := cols[rng.Intn(len(cols))], ops[rng.Intn(len(ops))]
		where := fmt.Sprintf("%s %s %d", col, op, rng.Intn(14))
		if rng.Intn(2) == 0 {
			where += fmt.Sprintf(" AND v %s %d", ops[rng.Intn(len(ops))], rng.Intn(120))
		}
		switch rng.Intn(4) {
		case 0:
			stmts = append(stmts, stmt{`DELETE FROM %s WHERE ` + where + ` AND id > 120`, nil})
		case 1:
			stmts = append(stmts, stmt{`UPDATE %s SET k = g + 1 WHERE ` + where, nil})
		default:
			stmts = append(stmts, stmt{`UPDATE %s SET v = v + 1 WHERE ` + where, nil})
		}
	}
	for _, st := range stmts {
		ni, erri := s.ExecParams(fmt.Sprintf(st.sql, "ti"), st.params)
		nu, erru := s.ExecParams(fmt.Sprintf(st.sql, "tu"), st.params)
		if (erri == nil) != (erru == nil) {
			t.Fatalf("%s: indexed err %v, unindexed err %v", st.sql, erri, erru)
		}
		if ni != nu {
			t.Fatalf("%s: indexed affected %d, unindexed %d", st.sql, ni, nu)
		}
		if di, du := dumpTable(t, s, "ti"), dumpTable(t, s, "tu"); di != du {
			t.Fatalf("%s: tables diverged\nindexed:\n%s\nunindexed:\n%s", st.sql, di, du)
		}
		ne, erre := s.ExecParams(fmt.Sprintf(st.sql, "te"), st.params)
		if (erre == nil) != (erru == nil) || ne != nu {
			t.Fatalf("%s: elastic view affected %d (err %v), table %d (err %v)", st.sql, ne, erre, nu, erru)
		}
		if de, du := dumpTable(t, s, "te"), dumpTable(t, s, "tu"); de != du {
			t.Fatalf("%s: elastic view diverged\nview:\n%s\ntable:\n%s", st.sql, de, du)
		}
	}
}

// TestDMLTakesTheIndex pins the access path itself through the counters
// the statement leaves: a keyed statement examines the rows it affects, a
// statement with nothing sargable examines the table. The index orders keys
// as predicates compare them, so a bound of another kind ('4', 4.0, a
// parameter of either) seeks like any other.
func TestDMLTakesTheIndex(t *testing.T) {
	s := dmlTwin(t, 3)
	examined := s.Metrics().Counter("dhqp_dml_rows_examined_total", "")
	affected := s.Metrics().Counter("dhqp_dml_rows_affected_total", "")
	for _, tc := range []struct {
		sql    string
		params map[string]sqltypes.Value
		seeks  bool
	}{
		{`UPDATE ti SET v = v + 1 WHERE id = 42`, nil, true},
		{`UPDATE ti SET v = v + 1 WHERE k = 4`, nil, true},
		{`UPDATE ti SET v = v + 1 WHERE k = 4.0`, nil, true},
		{`DELETE FROM ti WHERE id >= 10 AND id < 20`, nil, true},
		{`UPDATE ti SET v = v + 1 WHERE g = 1 AND id < 0`, nil, true}, // the empty pk range
		{`UPDATE ti SET v = v + 1 WHERE k = '4'`, nil, true},          // no INT key compares equal to '4'
		// One cached plan, two kinds of parameter value.
		{`UPDATE ti SET v = v + 1 WHERE k = @p`, map[string]sqltypes.Value{"p": sqltypes.NewString("4")}, true},
		{`UPDATE ti SET v = v + 1 WHERE k = @p`, map[string]sqltypes.Value{"p": sqltypes.NewFloat(4)}, true},
		{`UPDATE ti SET v = v + 1 WHERE v = 4`, nil, false},
		{`UPDATE tu SET v = v + 1 WHERE id = 42`, nil, false},
	} {
		table := "ti"
		if strings.Contains(tc.sql, " tu ") {
			table = "tu"
		}
		rows := int64(len(q(t, s, `SELECT id FROM `+table).Rows))
		e0, a0 := examined.Value(), affected.Value()
		n, err := s.ExecParams(tc.sql, tc.params)
		if err != nil {
			t.Fatalf("%s: %v", tc.sql, err)
		}
		e, a := examined.Value()-e0, affected.Value()-a0
		if a != n {
			t.Errorf("%s: affected counter moved by %d, statement reported %d", tc.sql, a, n)
		}
		if tc.seeks && e >= rows/2 {
			t.Errorf("%s: examined %d of %d rows, want an index range", tc.sql, e, rows)
		}
		if !tc.seeks && e != rows {
			t.Errorf("%s: examined %d rows, want the full scan of %d", tc.sql, e, rows)
		}
	}
}

// TestLocalDMLKeepsRemoteStatistics: a local DML forgets the statistics of
// the table it wrote and nothing else, so the next compile over a remote
// table makes as many link calls as a compile with no DML before it did —
// none, where it used to refetch the cardinality and the histogram.
func TestLocalDMLKeepsRemoteStatistics(t *testing.T) {
	member := NewServer("m", "fed")
	member.MustExec(`CREATE TABLE orders (o_id INT PRIMARY KEY, amount INT)`)
	member.MustExec(`INSERT INTO orders VALUES (1, 10), (2, 20), (3, 30)`)
	head := NewServer("head", "fed")
	link := &netsim.Link{}
	if err := head.AddLinkedServer("server1", sqlful.New(member, link, sqlful.FullSQLCapabilities()), link); err != nil {
		t.Fatal(err)
	}
	head.MustExec(`CREATE TABLE t1 (id INT PRIMARY KEY, v INT)`)
	head.MustExec(`CREATE TABLE t2 (id INT PRIMARY KEY, v INT)`)
	head.MustExec(`INSERT INTO t1 VALUES (1, 1)`)
	head.MustExec(`INSERT INTO t2 VALUES (1, 1), (2, 2)`)
	compile := func(i int) int64 {
		t.Helper()
		before := link.Stats().Calls
		// A fresh literal each time, so the plan cache cannot answer.
		if _, _, _, err := head.Plan(fmt.Sprintf(`SELECT o_id FROM server1.fed.dbo.orders WHERE amount > %d`, i)); err != nil {
			t.Fatal(err)
		}
		return link.Stats().Calls - before
	}
	cold, warm := compile(0), compile(1)
	if cold == 0 {
		t.Fatal("the first compile fetched no remote metadata; the test measures nothing")
	}
	q(t, head, `SELECT COUNT(*) FROM t2 WHERE v > 0`) // caches t2's statistics
	local := func() string {
		head.mu.Lock()
		defer head.mu.Unlock()
		var keys []string
		for k := range head.cardCache {
			if strings.HasPrefix(k, "|") {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		return strings.Join(keys, " ")
	}
	if got := local(); !strings.Contains(got, "|fed|t2") {
		t.Fatalf("t2's cardinality is not cached before the DML: %q", got)
	}
	for _, dml := range []string{
		`INSERT INTO t1 VALUES (2, 2)`, `UPDATE t1 SET v = 5 WHERE id = 1`, `DELETE FROM t1 WHERE id = 2`,
	} {
		head.MustExec(dml)
		if after := compile(2); after != warm {
			t.Errorf("%s: next remote compile made %d link calls, %d without the DML", dml, after, warm)
		}
		if got := local(); strings.Contains(got, "|fed|t1") || !strings.Contains(got, "|fed|t2") {
			t.Errorf("%s: local cardinalities cached afterwards: %q, want t2's kept and t1's dropped", dml, got)
		}
		q(t, head, `SELECT COUNT(*) FROM t1 WHERE v > 0`) // re-cache t1 for the next round
	}
	if n := q(t, head, `SELECT COUNT(*) FROM t1`).Rows[0][0].Int(); n != 1 {
		t.Fatalf("t1 has %d rows, want 1", n)
	}
}
