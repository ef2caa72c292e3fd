package engine

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"dhqp/internal/algebra"
)

// vecServer builds a server whose tables exercise the edge cases the batch
// engine must preserve bit-for-bit: NULL join keys, NULL grouping keys,
// duplicate keys, strings, and an empty table.
func vecServer(t *testing.T) *Server {
	t.Helper()
	s := NewServer("local", "vdb")
	s.MustExec(`CREATE TABLE t1 (a INT, b INT, s VARCHAR(16))`)
	s.MustExec(`INSERT INTO t1 VALUES
		(0, 5, 'x0'), (1, NULL, 'x1'), (2, 5, 'y2'), (NULL, 5, 'x3'),
		(4, 4, 'y4'), (5, NULL, 'x5'), (6, 5, 'y6'), (NULL, NULL, 'x7'),
		(8, 8, 'y8'), (9, 5, 'x9'), (2, 5, 'y10'), (4, 1, 'x11')`)
	s.MustExec(`CREATE TABLE t2 (k INT, v INT)`)
	s.MustExec(`INSERT INTO t2 VALUES
		(0, 100), (2, 200), (2, 201), (4, 400), (NULL, 999), (6, 600), (12, 120)`)
	s.MustExec(`CREATE TABLE t0 (z INT)`)
	// t3 is the typed-vector torture table: every payload kind the Vec
	// representation specializes (int64, float64, string, date, bool), with
	// roughly half the cells NULL so validity-bitmap paths and NULL-skip
	// aggregate semantics get exercised on every query.
	s.MustExec(`CREATE TABLE t3 (i INT, f FLOAT, s VARCHAR(16), d DATE, bt BIT)`)
	s.MustExec(`INSERT INTO t3 VALUES
		(1, 1.5, 'aa', '2024-01-01', 1),
		(NULL, 2.5, NULL, '2024-01-02', 0),
		(3, NULL, 'cc', NULL, NULL),
		(4, 4.0, 'dd', '2024-01-04', 1),
		(NULL, NULL, NULL, NULL, NULL),
		(6, 1.5, 'aa', '2024-01-01', 0),
		(7, -7.25, 'gg', '2023-12-31', NULL),
		(NULL, 2.5, 'hh', NULL, 1),
		(9, NULL, NULL, '2024-01-09', 0),
		(3, 3.0, 'cc', '2024-01-03', NULL),
		(11, 11.5, 'kk', '2024-01-11', 1),
		(NULL, 1.5, 'aa', '2024-01-01', NULL)`)
	return s
}

// TestVectorizedRowEquivalence is the batch-size property test for the
// executor: a grid of plan shapes (filters, inner/outer/semi/anti joins,
// aggregates, sorts, computed projections, NULL keys, empty inputs) runs
// at batch sizes 1, 3 and 1024, and every size must return identical rows
// in identical order. One server serves all sizes — the knob is
// per-execution, so the same cached plans must honor every flip. The
// answers themselves are held to an independent evaluator by
// TestStatementOracle.
func TestVectorizedRowEquivalence(t *testing.T) {
	s := vecServer(t)
	queries := []string{
		`SELECT a, b, s FROM t1 WHERE a > 3`,
		`SELECT s FROM t1 WHERE a >= 1 AND b <= 5 AND s <> 'x9'`,
		`SELECT a FROM t1 WHERE a < 2 OR a > 7`,
		`SELECT s FROM t1 WHERE s LIKE 'x%'`,
		`SELECT s FROM t1 WHERE b IS NULL`,
		`SELECT a FROM t1 WHERE a IS NOT NULL AND b = 5`,
		`SELECT t1.s, t2.v FROM t1, t2 WHERE t1.a = t2.k`,
		`SELECT t1.s, t2.v FROM t1 LEFT JOIN t2 ON t1.a = t2.k`,
		`SELECT s FROM t1 WHERE EXISTS (SELECT * FROM t2 WHERE t2.k = t1.a)`,
		`SELECT s FROM t1 WHERE NOT EXISTS (SELECT * FROM t2 WHERE t2.k = t1.a)`,
		`SELECT b, COUNT(*) AS c, SUM(a) AS sa FROM t1 GROUP BY b`,
		`SELECT COUNT(*) AS c, SUM(z) AS sz, MIN(z) AS mz FROM t0`,
		`SELECT a + b AS ab, a * 2 AS a2 FROM t1`,
		`SELECT TOP 4 a, s FROM t1 ORDER BY a DESC, s`,
		`SELECT s FROM t1 ORDER BY s`,
		`SELECT t2.v, COUNT(*) AS n FROM t1, t2 WHERE t1.a = t2.k GROUP BY t2.v ORDER BY t2.v`,
		// Mixed-kind / NULL-heavy shapes over t3: float filters, cross-kind
		// compares, typed arithmetic, date compares, aggregates over float
		// and NULL grouping keys, UNION ALL mixing kinds, TOP N with ties.
		`SELECT i, f FROM t3 WHERE f > 2.0`,
		`SELECT i, s FROM t3 WHERE f = i`,
		`SELECT i + 1 AS i1, f * 2.0 AS f2, i + f AS mixed FROM t3`,
		`SELECT s, d FROM t3 WHERE d >= '2024-01-02'`,
		`SELECT i FROM t3 WHERE bt = 1`,
		`SELECT s FROM t3 WHERE f IS NULL OR i IS NULL`,
		`SELECT f, COUNT(*) AS n, SUM(i) AS si, AVG(f) AS af FROM t3 GROUP BY f`,
		`SELECT d, MIN(i) AS mi, MAX(f) AS mf FROM t3 GROUP BY d`,
		`SELECT a AS x FROM t1 UNION ALL SELECT i FROM t3`,
		`SELECT TOP 5 i, f, s FROM t3 ORDER BY f DESC, i`,
		`SELECT TOP 3 s FROM t3 ORDER BY s`,
		`SELECT t3.s, t2.v FROM t3, t2 WHERE t3.i = t2.k`,
		`SELECT COUNT(*) AS n, SUM(f) AS sf, MIN(d) AS md FROM t3`,
	}
	// The tables above are small enough that every join plans as a loop
	// join; the star tables are not. A star join into an aggregate, a LEFT
	// OUTER join whose ON clause leaves a residual beside the equi-key, and
	// an EXISTS with one put the hash join under the same grid.
	loadStarTables(s)
	hashShapes := []string{
		`SELECT sd1.name, sd2.w, COUNT(*) AS n, SUM(sf.val) AS sv, AVG(sf.fv) AS af FROM sf, sd1, sd2
			WHERE sf.d1 = sd1.k AND sf.d2 = sd2.k GROUP BY sd1.name, sd2.w`,
		`SELECT sf.id, sd2.w FROM sf LEFT JOIN sd2 ON sf.d2 = sd2.k AND sd2.w > sf.val`,
		`SELECT sf.id FROM sf WHERE EXISTS (SELECT * FROM sd2 WHERE sd2.k = sf.d2 AND sd2.w > sf.val)`,
	}
	for _, sql := range hashShapes {
		e, err := s.ExplainAnalyze(sql, nil)
		if err != nil {
			t.Fatal(err)
		}
		if e.FindOp("HashJoin") == nil {
			t.Errorf("no HashJoin in the plan of %s", sql)
		}
	}
	queries = append(queries, hashShapes...)
	checkBatchGrid(t, s, queries, func(sql string) (*Result, error) { return s.Query(sql, nil) })
}

// loadStarTables adds a 300-row fact table and two small dimensions with
// NULL and duplicate keys on both sides.
func loadStarTables(s *Server) {
	s.MustExec(`CREATE TABLE sf (id INT, d1 INT, d2 INT, val INT, fv FLOAT)`)
	s.MustExec(`CREATE TABLE sd1 (k INT, name VARCHAR(16))`)
	s.MustExec(`CREATE TABLE sd2 (k INT, w INT)`)
	var fact, dim []string
	for i := 0; i < 300; i++ {
		d1 := fmt.Sprint(i * 7 % 23)
		if i%17 == 0 {
			d1 = "NULL"
		}
		fact = append(fact, fmt.Sprintf("(%d, %s, %d, %d, %d.5)", i, d1, i*5%13, i%10, i%7))
	}
	for i := 0; i < 20; i++ {
		dim = append(dim, fmt.Sprintf("(%d, 'n%02d')", i, i%16))
	}
	s.MustExec(`INSERT INTO sf VALUES ` + strings.Join(fact, ", "))
	s.MustExec(`INSERT INTO sd1 VALUES ` + strings.Join(dim, ", ") + `, (NULL, 'nn'), (3, 'dup3')`)
	s.MustExec(`INSERT INTO sd2 VALUES (0, 3), (1, 5), (2, 7), (2, 2), (4, 9), (5, 1), (NULL, 4), (8, 6), (11, 5)`)
}

// checkBatchGrid runs every query through run at batch sizes 1, 3 and
// 1024 and requires each size to return the first size's rows in its
// order. The batch size is restored to its default afterwards.
func checkBatchGrid(t *testing.T, s *Server, queries []string, run func(sql string) (*Result, error)) {
	t.Helper()
	modes := []struct {
		name string
		size int
	}{{"batch-1", 1}, {"batch-3", 3}, {"batch-1024", 1024}}
	for qi, sql := range queries {
		var reference []string
		var refName string
		for _, mode := range modes {
			s.Configure(func(c *Config) { c.BatchSize = mode.size })
			res, err := run(sql)
			if err != nil {
				t.Fatalf("query %d under %s: %v", qi, mode.name, err)
			}
			got := canonical(res, true) // order must match exactly
			if reference == nil {
				reference, refName = got, mode.name
				continue
			}
			if len(got) != len(reference) {
				t.Errorf("query %d (%s): %s returned %d rows, %s returned %d",
					qi, sql, mode.name, len(got), refName, len(reference))
				continue
			}
			for i := range got {
				if got[i] != reference[i] {
					t.Errorf("query %d (%s): %s row %d = %q, %s = %q",
						qi, sql, mode.name, i, got[i], refName, reference[i])
					break
				}
			}
		}
	}
	s.Configure(func(c *Config) { c.BatchSize = 0 }) // restore the default
}

// TestVectorizedKnobFlipMidQuery flips Config.BatchSize and MaxDOP
// continuously while queries run on other goroutines; under -race this
// proves a statement reads them from the Config it loaded, never
// mid-execution flips.
func TestVectorizedKnobFlipMidQuery(t *testing.T) {
	s := vecServer(t)
	queries := []string{
		`SELECT t1.s, t2.v FROM t1, t2 WHERE t1.a = t2.k`,
		`SELECT b, COUNT(*) AS c, SUM(a) AS sa FROM t1 GROUP BY b`,
		`SELECT s FROM t1 WHERE a >= 1 AND b <= 5`,
	}
	stop := make(chan struct{})
	var flipper sync.WaitGroup
	flipper.Add(1)
	go func() {
		defer flipper.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%4 == 3 {
				s.Configure(func(c *Config) { c.BatchSize = 1 + i%2048 })
			} else {
				s.Configure(func(c *Config) { c.MaxDOP = i % 3 })
			}
		}
	}()
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				sql := queries[(g+i)%len(queries)]
				if _, err := s.Query(sql, nil); err != nil {
					errs <- fmt.Errorf("goroutine %d: %w", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	flipper.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestVectorizedExplainAnalyzeExact asserts per-batch telemetry never
// over- or under-counts: EXPLAIN ANALYZE actual row counts at four rows a
// batch must equal those at one row a batch, operator for operator, and
// match the known table cardinalities.
func TestVectorizedExplainAnalyzeExact(t *testing.T) {
	s := vecServer(t)
	sql := `SELECT b, COUNT(*) AS c FROM t1 WHERE a IS NOT NULL GROUP BY b`
	s.Configure(func(c *Config) { c.BatchSize = 4 }) // force multiple batches over 12 rows
	vec, err := s.ExplainAnalyze(sql, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.Configure(func(c *Config) { c.BatchSize = 1 })
	row, err := s.ExplainAnalyze(sql, nil)
	if err != nil {
		t.Fatal(err)
	}
	if scan := vec.FindOp("TableScan"); scan == nil || vec.Actual(scan) == nil {
		t.Fatal("no TableScan actuals in vectorized plan")
	} else if got := vec.Actual(scan).ActualRows(); got != 12 {
		t.Errorf("vectorized TableScan actual rows = %d, want 12", got)
	}
	if f := vec.FindOp("Filter"); f != nil && vec.Actual(f) != nil {
		if got := vec.Actual(f).ActualRows(); got != 10 {
			t.Errorf("vectorized Filter actual rows = %d, want 10 (two NULL a)", got)
		}
	}
	var walk func(nv, nr *algebra.Node)
	walk = func(nv, nr *algebra.Node) {
		if nv.Op.OpName() != nr.Op.OpName() {
			t.Fatalf("plan shape diverged: %s vs %s", nv.Op.OpName(), nr.Op.OpName())
		}
		sv, sr := vec.Actual(nv), row.Actual(nr)
		if (sv == nil) != (sr == nil) {
			t.Fatalf("op %s: actuals recorded in one mode only", nv.Op.OpName())
		}
		if sv != nil && sv.ActualRows() != sr.ActualRows() {
			t.Errorf("op %s: actual=%d at four rows a batch, %d at one",
				nv.Op.OpName(), sv.ActualRows(), sr.ActualRows())
		}
		for i := range nv.Kids {
			walk(nv.Kids[i], nr.Kids[i])
		}
	}
	walk(vec.Plan, row.Plan)
}
