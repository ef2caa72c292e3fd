package server

import (
	"context"
	"testing"

	"dhqp/internal/engine"
	"dhqp/internal/sqltypes"
)

// TestLateEndStatementSparesNextStatement replays the CANCELLED race as a
// fixed interleaving: statement A releases its slot before its outcome
// frame, the client begins B, and only then does A's deferred release run.
// B must keep its slot and its context.
func TestLateEndStatementSparesNextStatement(t *testing.T) {
	sess := &session{}
	_, cancelA := context.WithCancel(context.Background())
	a, ok := sess.beginStatement("A", 1, cancelA)
	if !ok {
		t.Fatal("A could not claim an idle session")
	}
	sess.endStatement(a)
	ctxB, cancelB := context.WithCancel(context.Background())
	defer cancelB()
	b, ok := sess.beginStatement("B", 2, cancelB)
	if !ok {
		t.Fatal("B could not claim the slot A released")
	}
	sess.endStatement(a) // A's deferred release, late
	if err := ctxB.Err(); err != nil {
		t.Fatalf("late release of A cancelled B: %v", err)
	}
	if !sess.active || sess.sql != "B" || sess.queryID != 2 {
		t.Fatalf("late release of A cleared B's slot: active=%v sql=%q qid=%d", sess.active, sess.sql, sess.queryID)
	}
	if _, ok := sess.beginStatement("C", 3, func() {}); ok {
		t.Fatal("a third statement claimed the slot B still owns")
	}
	sess.endStatement(b)
	if sess.active || ctxB.Err() == nil {
		t.Fatalf("B's own release left active=%v ctx err=%v", sess.active, ctxB.Err())
	}
}

// TestBackToBackStatementsOneSession sends statements on one session as
// fast as the outcome frames return, the pattern that used to lose about
// one statement in 1e5 to a CANCELLED error from its predecessor's cleanup.
func TestBackToBackStatementsOneSession(t *testing.T) {
	eng := engine.NewServer("s", "db")
	eng.MustExec(`CREATE TABLE t (id INT PRIMARY KEY, v INT)`)
	eng.MustExec(`INSERT INTO t VALUES (1, 10)`)
	srv, addr := startServer(t, eng, Options{})
	defer srv.Close()
	c := dial(t, addr)
	defer c.Close()
	n := 5000
	if testing.Short() {
		n = 500
	}
	params := map[string]sqltypes.Value{"id": sqltypes.NewInt(1)}
	for i := 0; i < n; i++ {
		res, err := c.Query(`SELECT v FROM t WHERE id = @id`, params)
		if err != nil {
			t.Fatalf("statement %d: %v", i, err)
		}
		if len(res.Rows) != 1 {
			t.Fatalf("statement %d: %d rows, want 1", i, len(res.Rows))
		}
		if i%10 == 0 {
			if _, err := c.Exec(`UPDATE t SET v = @v WHERE id = @id`,
				map[string]sqltypes.Value{"id": sqltypes.NewInt(1), "v": sqltypes.NewInt(int64(i))}); err != nil {
				t.Fatalf("update %d: %v", i, err)
			}
		}
	}
}
