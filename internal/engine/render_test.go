package engine

import (
	"strings"
	"testing"

	"dhqp/internal/parser"
)

func TestRenderStatements(t *testing.T) {
	ct := mustParseT(t, `CREATE TABLE srv.db.dbo.p (k INT NOT NULL CHECK (k >= 0), v VARCHAR(8), PRIMARY KEY (k))`).(*parser.CreateTableStmt)
	text := renderCreateTable(ct)
	for _, frag := range []string{"CREATE TABLE db.dbo.p", "k INT NOT NULL", "PRIMARY KEY (k)", "CHECK (k >= 0)"} {
		if !strings.Contains(text, frag) {
			t.Errorf("ddl text missing %q: %q", frag, text)
		}
	}
	// Rendered DDL re-parses.
	if _, err := parser.Parse(text); err != nil {
		t.Errorf("rendered DDL does not reparse: %v", err)
	}
}

func mustParseT(t *testing.T, sql string) parser.Statement {
	t.Helper()
	st, err := parser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestInsertWithColumnListAndDefaults(t *testing.T) {
	s := NewServer("local", "db")
	s.MustExec(`CREATE TABLE t (a INT, b VARCHAR(8), c INT)`)
	if _, err := s.Exec(`INSERT INTO t (c, a) VALUES (30, 1)`); err != nil {
		t.Fatal(err)
	}
	res := q(t, s, `SELECT a, b, c FROM t`)
	r := res.Rows[0]
	if r[0].Int() != 1 || !r[1].IsNull() || r[2].Int() != 30 {
		t.Errorf("row = %v", r)
	}
	if _, err := s.Exec(`INSERT INTO t (nope) VALUES (1)`); err == nil {
		t.Error("unknown column accepted")
	}
	if _, err := s.Exec(`INSERT INTO t (a, b) VALUES (1)`); err == nil {
		t.Error("arity mismatch accepted")
	}
}

func TestInsertSelectIntoRemote(t *testing.T) {
	local, remote, _ := linkTwo(t)
	local.MustExec(`CREATE TABLE picks (id INT)`)
	local.MustExec(`INSERT INTO picks VALUES (1), (99)`)
	n, err := local.Exec(`INSERT INTO remote0.salesdb.dbo.supplier SELECT id, id FROM picks WHERE id > 1`)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("inserted = %d", n)
	}
	res := q(t, remote, `SELECT COUNT(*) AS n FROM supplier WHERE s_id = 99`)
	if res.Rows[0][0].Int() != 1 {
		t.Errorf("remote row missing: %v", res.Rows[0][0])
	}
}

func TestExecProcErrors(t *testing.T) {
	s := NewServer("local", "db")
	if _, err := s.Exec(`EXEC sp_addlinkedserver 'x'`); err == nil {
		t.Error("short arg list accepted")
	}
	if _, err := s.Exec(`EXEC sp_addlinkedserver 'x', 'NOPROVIDER', 'ds'`); err == nil {
		t.Error("unknown provider accepted")
	}
	if _, err := s.Exec(`EXEC sp_unknown 'a'`); err == nil {
		t.Error("unknown proc accepted")
	}
}

func TestMustExecPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustExec did not panic on bad SQL")
		}
	}()
	NewServer("x", "db").MustExec(`FROB`)
}
