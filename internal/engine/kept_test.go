package engine

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"dhqp/internal/oracle"
	"dhqp/internal/sqltypes"
)

// oracleParams converts a drawn statement's parameters.
func oracleParams(st *oracle.Stmt) map[string]sqltypes.Value {
	if st.Params == nil {
		return nil
	}
	params := map[string]sqltypes.Value{}
	for k, v := range st.Params {
		params[k] = engineValue(v)
	}
	return params
}

// cells converts a result into the oracle's value model.
func cells(res *Result) [][]oracle.Cell {
	got := make([][]oracle.Cell, len(res.Rows))
	for i, r := range res.Rows {
		got[i] = make([]oracle.Cell, len(r))
		for j, v := range r {
			got[i][j] = oracleCell(v)
		}
	}
	return got
}

// TestCachedPlansSeeCommits runs every seed-1 oracle statement in all three
// placements three times from the plan cache, on the operator trees kept
// from earlier executions, with the same parameters each time and a commit
// to every table before each run. Each answer must be the oracle's over
// the committed rows and equal an uncached compile of the statement at the
// same snapshot (its text made new to the cache): a kept tree that replayed
// a spool, a hash table or a remote answer of an earlier execution fails.
func TestCachedPlansSeeCommits(t *testing.T) {
	db := oracle.NewDB()
	cases := db.Cases(1, oraclePerFamily)
	places := oraclePlacements(t, db)
	for _, p := range places {
		p.s.SetPlanCacheCapacity(4096)
		for _, st := range cases { // compile, then keep a tree
			for range 2 {
				if _, err := p.s.Query(st.SQL(), oracleParams(st)); err != nil {
					t.Fatalf("%s: %s: %v", p.name, st.SQL(), err)
				}
			}
		}
	}
	failures := 0
	for run := 1; run <= 3; run++ {
		for _, tab := range db.Tables {
			if len(tab.Rows) == 0 {
				continue
			}
			sql := db.Insert(tab.Name, tab.Rows[(run*7)%len(tab.Rows)])
			for _, p := range places {
				if s := p.member; s != nil && tab.Name != headTable {
					s.MustExec(sql)
				} else {
					p.s.MustExec(sql)
				}
			}
		}
		for _, p := range places {
			for _, st := range cases {
				params := oracleParams(st)
				res, err := p.s.Query(st.SQL(), params)
				if err != nil {
					t.Fatalf("%s run %d: %s: %v", p.name, run, st.SQL(), err)
				}
				if !res.Stats.PlanCacheHit {
					t.Fatalf("%s run %d: %s missed the plan cache", p.name, run, st.SQL())
				}
				fresh, err := p.s.Query(st.SQL()+strings.Repeat(" ", run), params)
				if err != nil {
					t.Fatalf("%s run %d: uncached %s: %v", p.name, run, st.SQL(), err)
				}
				got := cells(res)
				if err = db.Check(st, got); err == nil {
					if err = oracle.Agree(st, got, cells(fresh)); err != nil {
						err = fmt.Errorf("against the uncached compile: %w", err)
					}
				}
				if err != nil {
					t.Errorf("%s run %d: %s\n  %v", p.name, run, st.SQL(), err)
					if failures++; failures > 10 {
						t.Fatal("too many failures")
					}
				}
			}
		}
	}
}

// keptCount is how many operator trees sql's cache entry keeps.
func keptCount(s *Server, sql string) int {
	s.mu.Lock()
	p, ok := s.planCache.Peek(sql)
	s.mu.Unlock()
	if !ok {
		return -1
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.kept)
}

// TestKeptTrees: a plan-cache miss keeps no tree, a hit keeps its tree for
// the next, an execution under stats collection neither takes nor keeps
// one, a batch size other than the tree's drops it, and concurrent
// executions of one statement each run on a tree of their own, at most
// keptTrees of which stay.
func TestKeptTrees(t *testing.T) {
	s := NewServer("k", "db")
	s.MustExec(`CREATE TABLE t (k INT, v INT)`)
	s.MustExec(`INSERT INTO t VALUES (1, 10), (2, 20), (3, 30), (4, 40)`)
	const sql = `SELECT k, SUM(v) FROM t WHERE v >= @lo GROUP BY k`
	read := func(lo int64) int {
		t.Helper()
		res, err := s.Query(sql, map[string]sqltypes.Value{"lo": sqltypes.NewInt(lo)})
		if err != nil {
			t.Fatal(err)
		}
		return len(res.Rows)
	}
	steps := []struct {
		what      string
		configure func(*Config)
		want      int
	}{
		{"a miss", nil, 0},
		{"a hit", nil, 1},
		{"the next hit", nil, 1},
		{"stats collection", func(c *Config) { c.CollectStats = true }, 1},
		{"another batch size", func(c *Config) { c.CollectStats, c.BatchSize = false, 2 }, 1},
	}
	for i, step := range steps {
		if step.configure != nil {
			s.Configure(step.configure)
		}
		if got := read(int64(i * 10)); got != 4-max(0, i-1) {
			t.Fatalf("%s: %d groups", step.what, got)
		}
		if got := keptCount(s, sql); got != step.want {
			t.Errorf("after %s: %d kept trees, want %d", step.what, got, step.want)
		}
	}
	s.Configure(func(c *Config) { c.BatchSize = 0 })
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				lo := int64((g + i) % 5 * 10)
				res, err := s.Query(sql, map[string]sqltypes.Value{"lo": sqltypes.NewInt(lo)})
				if err != nil {
					t.Error(err)
					return
				}
				var sum int64
				for _, r := range res.Rows {
					sum += r[1].Int()
				}
				if want := map[int64]int64{0: 100, 10: 100, 20: 90, 30: 70, 40: 40}[lo]; sum != want {
					t.Errorf("lo %d: sum %d, want %d", lo, sum, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := keptCount(s, sql); got < 1 || got > keptTrees {
		t.Errorf("after concurrent executions: %d kept trees, want 1 to %d", got, keptTrees)
	}
}

// TestKeptTreesHoldFewRows: a tree whose operators grew room for more
// than keptRows rows is dropped when its execution ends, so a cached entry
// holds no large hash build, group set or sort buffer between executions;
// a plan estimated to read more than keptReads rows keeps no tree, however
// little its operators hold; a small statement over the smaller table keeps
// its tree.
func TestKeptTreesHoldFewRows(t *testing.T) {
	s := NewServer("k", "db")
	fill := func(table string, rows int) {
		s.MustExec(`CREATE TABLE ` + table + ` (k INT, v INT)`)
		for lo := 0; lo < rows; lo += 1000 {
			var b strings.Builder
			b.WriteString("INSERT INTO " + table + " VALUES ")
			for i := lo; i < lo+1000; i++ {
				if i > lo {
					b.WriteString(", ")
				}
				fmt.Fprintf(&b, "(%d, %d)", i, i%7)
			}
			s.MustExec(b.String())
		}
	}
	const rows = (keptRows/1000 + 1) * 1000 // past keptRows
	fill("t", rows)
	fill("big", (keptReads/1000+1)*1000) // past keptReads
	for _, c := range []struct {
		sql    string
		groups int
		kept   int
	}{
		{`SELECT k, COUNT(v) FROM t WHERE v >= @lo GROUP BY k`, rows, 0},
		{`SELECT v, COUNT(k) FROM t WHERE v >= @lo GROUP BY v`, 7, 1},
		{`SELECT v, COUNT(k) FROM big WHERE v >= @lo GROUP BY v`, 7, 0},
	} {
		for range 3 {
			res, err := s.Query(c.sql, map[string]sqltypes.Value{"lo": sqltypes.NewInt(0)})
			if err != nil || len(res.Rows) != c.groups {
				t.Fatalf("%s: %d groups, %v", c.sql, len(res.Rows), err)
			}
		}
		if got := keptCount(s, c.sql); got != c.kept {
			t.Errorf("%s: %d kept trees, want %d", c.sql, got, c.kept)
		}
	}
}

// reexecAllocs returns the objects one cached re-execution of a member's
// pushed partial-aggregate statement allocates over rows rows.
func reexecAllocs(tb testing.TB, rows int) float64 {
	tb.Helper()
	s := NewServer("member", "fed")
	s.MustExec(`CREATE TABLE orders (o_id INT, o_cust INT, o_region INT, amount INT)`)
	for lo := 0; lo < rows; lo += 1000 {
		var b strings.Builder
		b.WriteString("INSERT INTO orders VALUES ")
		for i := lo; i < lo+1000 && i < rows; i++ {
			if i > lo {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "(%d, %d, %d, %d)", i, i%977, i%5, i*37%1000)
		}
		s.MustExec(b.String())
	}
	const sql = `SELECT o_region, COUNT(o_id), SUM(amount), AVG(amount) FROM orders WHERE amount >= @lo AND o_cust < @hi GROUP BY o_region`
	params := map[string]sqltypes.Value{"lo": sqltypes.NewInt(100), "hi": sqltypes.NewInt(5000)}
	run := func() {
		res, err := s.Query(sql, params)
		if err != nil || len(res.Rows) != 5 {
			tb.Fatalf("%d groups, %v", len(res.Rows), err)
		}
	}
	run() // compile
	run() // keep a tree
	return testing.AllocsPerRun(50, run)
}

// cachedReexecAllocGate bounds the objects a cached re-execution of the
// pushed partial aggregate allocates, the result's five boxed rows and the
// statement's record included: 15 measured on a kept tree, against 116 at
// 1 000 rows and 118 at 10 000 when every execution built its own.
const cachedReexecAllocGate = 24

// TestCachedReexecAllocs: re-executing a cached member statement on a kept
// operator tree allocates the same at 1 000 and 10 000 rows — nothing per
// batch, nothing regrown — and stays under a fixed gate.
func TestCachedReexecAllocs(t *testing.T) {
	small, large := reexecAllocs(t, 1000), reexecAllocs(t, 10000)
	if small != large || large > cachedReexecAllocGate {
		t.Errorf("allocations per re-execution: %.0f at 1 000 rows, %.0f at 10 000; want equal and at most %d", small, large, cachedReexecAllocGate)
	}
}

// BenchmarkCachedReexecAllocs reports TestCachedReexecAllocs' two counts
// and fails on the same gate.
func BenchmarkCachedReexecAllocs(b *testing.B) {
	for range b.N {
		small, large := reexecAllocs(b, 1000), reexecAllocs(b, 10000)
		b.ReportMetric(small, "allocs/1k-rows")
		b.ReportMetric(large, "allocs/10k-rows")
		if small != large || large > cachedReexecAllocGate {
			b.Errorf("allocations per re-execution: %.0f at 1 000 rows, %.0f at 10 000; want equal and at most %d", small, large, cachedReexecAllocGate)
		}
	}
}
