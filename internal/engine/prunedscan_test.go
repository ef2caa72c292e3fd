package engine

import (
	"context"
	"fmt"
	"io"
	"strings"
	"testing"

	"dhqp/internal/algebra"
	"dhqp/internal/exec"
	"dhqp/internal/providers/native"
)

// prunedServer is vecServer plus td, a table whose slot array has holes:
// every third row is deleted after the load, so a scan must skip dead
// slots on both fill paths.
func prunedServer(t *testing.T) *Server {
	t.Helper()
	s := vecServer(t)
	s.MustExec(`CREATE TABLE td (a INT, b VARCHAR(8), c FLOAT, d INT)`)
	var vals []string
	for i := 0; i < 40; i++ {
		b, c := fmt.Sprintf("'b%d'", i), fmt.Sprintf("%d.5", i)
		if i%5 == 0 {
			b = "NULL"
		}
		if i%7 == 0 {
			c = "NULL"
		}
		vals = append(vals, fmt.Sprintf("(%d, %s, %s, %d)", i, b, c, i%6))
	}
	s.MustExec(`INSERT INTO td VALUES ` + strings.Join(vals, ", "))
	s.MustExec(`DELETE FROM td WHERE a = 0 OR a = 3 OR a = 6 OR a = 9 OR a = 12 OR a = 15 OR a = 18 OR a = 39`)
	return s
}

// prunedQueries read non-prefix, reordered and single-column projections
// through a bare scan, a filter over a scan, and join inputs.
var prunedQueries = []string{
	`SELECT s, i FROM t3`,
	`SELECT d FROM t3`,
	`SELECT bt, f FROM t3 WHERE i > 2`,
	`SELECT s FROM t3 WHERE d >= '2024-01-02'`,
	`SELECT t3.s, t2.v FROM t3, t2 WHERE t3.i = t2.k`,
	`SELECT t2.v, t3.d FROM t2 LEFT JOIN t3 ON t2.k = t3.i`,
	`SELECT c, a FROM td`,
	`SELECT d FROM td`,
	`SELECT c, a FROM td WHERE d > 2`,
	`SELECT td.c, t2.v FROM td, t2 WHERE td.d = t2.k`,
}

// countPrunedScans counts the plan's table scans whose output is not an
// identity prefix of the table's columns — the scans that used to leave
// the columnar path.
func countPrunedScans(n *algebra.Node) int {
	count := 0
	if ts, ok := n.Op.(*algebra.TableScan); ok && ts.Src.Def != nil {
		for i, c := range ts.Cols {
			if ts.Src.Def.ColumnIndex(c.Name) != i {
				count++
				break
			}
		}
	}
	for _, k := range n.Kids {
		count += countPrunedScans(k)
	}
	return count
}

// TestPrunedScanEquivalence extends the batch-size grid to pruned scans:
// every projection that is not a prefix of its table must come back the
// same at batch sizes 1, 3 and 1024 — over the
// NULL-heavy mixed-kind table, over a table with deleted slots, and at a
// historical snapshot, where a commit has landed after the statement's
// snapshot was taken and the scan reads the rewritten rows from the undo
// tail. No statement writes into the image of a table it reads, and the
// DML and merges replace images without writing into them either.
func TestPrunedScanEquivalence(t *testing.T) {
	s := prunedServer(t)
	defer holdImages(t, s).check(t)
	for _, sql := range prunedQueries {
		plan, _, _, err := s.Plan(sql)
		if err != nil {
			t.Fatalf("plan %s: %v", sql, err)
		}
		if countPrunedScans(plan) == 0 {
			t.Errorf("%s: no pruned scan in the plan, the query tests nothing", sql)
		}
	}
	checkBatchGrid(t, s, prunedQueries, func(sql string) (*Result, error) { return s.Query(sql, nil) })

	// The answers as of now, one row a batch.
	s.Configure(func(c *Config) { c.BatchSize = 1 })
	before := map[string][]string{}
	for _, sql := range prunedQueries {
		res, err := s.Query(sql, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Compared as multisets: a scan returns the rows rewritten since
		// the table's main image after main's, so a snapshot read of the
		// same rows may order them differently.
		before[sql] = canonical(res, false)
	}
	snap := s.store.AcquireSnapshot()
	defer snap.Release()
	s.MustExec(`UPDATE td SET c = c + 100, d = 5 WHERE a < 20`)
	s.MustExec(`DELETE FROM td WHERE a = 22`)
	s.MustExec(`INSERT INTO td VALUES (100, 'late', 1.0, 4)`)
	s.MustExec(`UPDATE t3 SET s = 'late', i = 2 WHERE f = 1.5`)
	s.MustExec(`DELETE FROM t3 WHERE i = 11`)
	atSnapshot := func(sql string) (*Result, error) {
		plan, cols, _, err := s.Plan(sql)
		if err != nil {
			return nil, err
		}
		cfg := s.cfg.Load()
		ctx := &exec.Context{
			RT:        &runtime{s: s, local: s.nativeSess.(*native.Session).AtSnapshot(snap.CSN())},
			BatchSize: cfg.BatchSize, Ctx: context.Background(), Stats: s.newRecord(false),
		}
		run, err := exec.Open(plan, ctx)
		if err != nil {
			return nil, err
		}
		defer run.Close()
		res := &Result{Cols: cols}
		for {
			b, err := run.Pull()
			if err == io.EOF {
				return res, nil
			}
			if err != nil {
				return nil, err
			}
			for i := 0; i < b.Len(); i++ {
				res.Rows = append(res.Rows, b.RowAt(i, nil))
			}
		}
	}
	checkBatchGrid(t, s, prunedQueries, atSnapshot)
	for _, sql := range prunedQueries {
		res, err := atSnapshot(sql)
		if err != nil {
			t.Fatal(err)
		}
		now, err := s.Query(sql, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := canonical(res, false); strings.Join(got, "\n") != strings.Join(before[sql], "\n") {
			t.Errorf("%s at the snapshot:\n%s\nwant what it returned before the commits:\n%s", sql, strings.Join(got, "\n"), strings.Join(before[sql], "\n"))
		}
		if got := canonical(now, false); strings.Join(got, "\n") == strings.Join(before[sql], "\n") {
			t.Errorf("%s: the commits changed nothing it reads, the snapshot read tests nothing", sql)
		}
	}
}

// TestPrunedScanAllocatesPerBatch pins that a pruned scan of a local table
// no longer allocates per row: a 4 000-row `SELECT amount, o_id` costs a
// number of allocations on the order of its four batches, not its rows.
func TestPrunedScanAllocatesPerBatch(t *testing.T) {
	const rows = 4000
	s := NewServer("local", "db")
	s.MustExec(`CREATE TABLE orders (o_id INT PRIMARY KEY, o_cust INT, o_region INT, amount INT)`)
	for lo := 0; lo < rows; lo += 1000 {
		var vals []string
		for i := lo; i < lo+1000; i++ {
			vals = append(vals, fmt.Sprintf("(%d, %d, %d, %d)", i, i%97, i%5, i%1000))
		}
		s.MustExec(`INSERT INTO orders VALUES ` + strings.Join(vals, ", "))
	}
	const sql = `SELECT amount, o_id FROM orders`
	run := func() {
		res, err := s.Query(sql, nil)
		if err != nil || len(res.Rows) != rows || res.Rows[7][0].Int() != 7 || res.Rows[7][1].Int() != 7 {
			t.Fatalf("%d rows, err %v", len(res.Rows), err)
		}
	}
	run() // compile, build the columnar image
	if allocs := testing.AllocsPerRun(20, run); allocs > rows/10 {
		t.Errorf("pruned %d-row scan: %.0f allocations per statement, want O(batches)", rows, allocs)
	}
}
