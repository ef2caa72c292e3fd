package engine

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestCheckBindingFollowsDefinition drops a table and recreates it under
// the same name and columns with the opposite CHECK: the bound constraints
// are cached per definition, and the recreated table's rule — not the
// dropped one's — decides which rows it admits.
func TestCheckBindingFollowsDefinition(t *testing.T) {
	s := NewServer("s", "db")
	s.MustExec(`CREATE TABLE t (k INT, v INT, CHECK (k >= 0))`)
	s.MustExec(`INSERT INTO t VALUES (5, 1)`)
	if _, err := s.Exec(`INSERT INTO t VALUES (-1, 1)`); err == nil || !strings.Contains(err.Error(), "CHECK") {
		t.Fatalf("k = -1 under CHECK (k >= 0): %v", err)
	}
	db, _ := s.Store().Database("db")
	if err := db.DropTable("t"); err != nil {
		t.Fatal(err)
	}
	s.MustExec(`CREATE TABLE t (k INT, v INT, CHECK (k < 0))`)
	s.MustExec(`INSERT INTO t VALUES (-1, 1)`)
	if _, err := s.Exec(`INSERT INTO t VALUES (5, 1)`); err == nil || !strings.Contains(err.Error(), "CHECK") {
		t.Fatalf("k = 5 under the recreated CHECK (k < 0): %v", err)
	}
	if got := q(t, s, `SELECT k FROM t`).Rows; len(got) != 1 || got[0][0].Int() != -1 {
		t.Fatalf("recreated table holds %v, want the one row k = -1", got)
	}
}

// TestCheckedInsertAllocs holds a CHECK's cost on a write to its evaluation:
// a one-row INSERT under CHECK (k >= 0 AND k < 1000000) allocates within 10
// objects of the same INSERT into a table without the CHECK, because the
// constraint is parsed and bound once per definition, not once per row.
func TestCheckedInsertAllocs(t *testing.T) {
	s := NewServer("s", "db")
	s.MustExec(`CREATE TABLE plain (k INT, v INT)`)
	s.MustExec(`CREATE TABLE checked (k INT, v INT, CHECK (k >= 0 AND k < 1000000))`)
	insert := func(table string) float64 {
		s.MustExec(`INSERT INTO ` + table + ` VALUES (7, 1)`) // warm
		return testing.AllocsPerRun(200, func() { s.MustExec(`INSERT INTO ` + table + ` VALUES (7, 1)`) })
	}
	plain, checked := insert("plain"), insert("checked")
	if checked > plain+10 {
		t.Errorf("a one-row INSERT allocates %.0f objects under a CHECK and %.0f without; the gate is 10 more", checked, plain)
	}
	t.Logf("one-row INSERT: %.0f objects with the CHECK, %.0f without", checked, plain)
}

// TestCheckCacheConcurrentWriters writes into one CHECK-constrained table
// from several goroutines while others compile a query whose plan the
// CHECK prunes: all of them share the one bound form, and each write is
// still admitted or refused by its own row.
func TestCheckCacheConcurrentWriters(t *testing.T) {
	s := NewServer("s", "db")
	s.MustExec(`CREATE TABLE t (k INT, v INT, CHECK (k >= 0 AND k < 1000))`)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := g*500 + i - 600 // goroutines 0 and 1 write outside the CHECK
				_, err := s.Exec(fmt.Sprintf("INSERT INTO t VALUES (%d, %d)", k, g))
				if (err == nil) != (k >= 0 && k < 1000) {
					t.Errorf("INSERT k = %d: %v", k, err)
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				plan, _, _, err := s.Plan(fmt.Sprintf("SELECT v FROM t WHERE k < %d", -1-i))
				if err != nil || !strings.Contains(plan.String(), "EmptyScan") {
					t.Errorf("k < %d: CHECK (k >= 0) should prune the scan: %v\n%v", -1-i, err, plan)
				}
			}
		}()
	}
	wg.Wait()
	if got := q(t, s, `SELECT k FROM t`).Rows; len(got) != 100 {
		t.Errorf("%d rows admitted, want the 100 inside the CHECK", len(got))
	}
}
