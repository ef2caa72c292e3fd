package engine

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"dhqp/internal/rules"
	"dhqp/internal/sqltypes"
	"dhqp/internal/storage"
)

// TestKnobFlipsDuringConcurrentQueries is the knob-audit regression: every
// Config field flips continuously through Configure while query, EXPLAIN
// ANALYZE and DML goroutines run, and the race detector must stay quiet. A
// statement reads its knobs from the one Config it loaded; a bare field
// read of shared state here is a -race failure, not a flake.
func TestKnobFlipsDuringConcurrentQueries(t *testing.T) {
	local, _, _ := linkTwo(t)
	local.MustExec(`CREATE TABLE knob_dates (id int, d date, PRIMARY KEY (id))`)
	queries := []string{
		`SELECT COUNT(*) AS n FROM nation`,
		`SELECT c_name FROM remote0.salesdb.dbo.customer WHERE c_id = 7`,
		`SELECT n.n_name, COUNT(*) AS c FROM remote0.salesdb.dbo.customer cu, nation n
			WHERE cu.c_nation = n.n_id GROUP BY n.n_name`,
	}
	for _, sql := range queries {
		q(t, local, sql)
	}
	phases := []rules.Phase{rules.PhaseTP, rules.PhaseQuick, rules.PhaseFull}
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
			local.Configure(func(c *Config) {
				c.OptConfig.MaxPhase = phases[i%3]
				c.OptConfig.ExploreBudget = 32 + i%64
				c.UseRemoteStatistics = i%2 == 0
				c.DisableSpool = i%3 == 0
				c.DisableParameterization = i%4 == 0
				c.DisableAggSplit = i%5 == 0
				c.RemoteBatchSize = 50 + i%50
				c.DisableRemoteBatching = i%6 == 0
				c.Today = sqltypes.NewDateDays(int64(19000 + i%100))
				c.CollectStats = i%2 == 1
				c.MaxDOP = i % 3
				c.BatchSize = 1 + i%2048
				c.QueryTimeout = time.Duration(i%2) * time.Minute
				c.PartialResults = i%2 == 0
				c.RemoteRetries = 1 + i%3
				c.RetryBackoff = time.Duration(i%3) * time.Millisecond
				c.SlowQueryThreshold = time.Duration(i % 2)
				c.SlowQueryWriter = io.Discard
				c.BreakerThreshold = 5 + i%5
				c.BreakerCooldown = time.Second
			})
			local.SetPlanCacheCapacity(2 + i%8)
			local.SetQueryStatsCapacity(2 + i%8)
		}
	}()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				sql := queries[(g+i)%len(queries)]
				if _, err := local.Query(sql, nil); err != nil {
					errs <- fmt.Errorf("goroutine %d: %w", g, err)
					return
				}
			}
		}(g)
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if _, err := local.ExplainAnalyze(queries[i%len(queries)], nil); err != nil {
				errs <- fmt.Errorf("explain: %w", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if _, err := local.Exec(fmt.Sprintf(`INSERT INTO knob_dates VALUES (%d, today())`, i)); err != nil {
				errs <- fmt.Errorf("insert: %w", err)
				return
			}
			if _, err := local.Exec(fmt.Sprintf(`UPDATE knob_dates SET d = today() WHERE id = %d`, i)); err != nil {
				errs <- fmt.Errorf("update: %w", err)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	flipper.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// The tiny plan-cache capacities above must have evicted plans; the
	// counters are how operators see that happening.
	if st := local.PlanCacheStats(); st.Size > st.Capacity {
		t.Errorf("plan cache size %d exceeds capacity %d", st.Size, st.Capacity)
	}
}

// TestDurabilityKnobFlipsDuringWrites extends the knob audit to the
// durability layer: SetDurability cycles through all three levels and the
// WAL detaches/attaches fresh directories while reader and writer
// goroutines run. The race detector must stay quiet, and no write may
// fail — the logging gate flips atomically, never half-configured.
func TestDurabilityKnobFlipsDuringWrites(t *testing.T) {
	local, _, _ := linkTwo(t)
	local.MustExec(`CREATE TABLE knob_scratch (id int, v varchar(20), PRIMARY KEY (id))`)
	walRoot := t.TempDir()
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
			local.SetDurability(storage.Durability(i % 3))
			if i%5 == 0 {
				if _, err := local.SetWALDir(""); err != nil {
					errsOnce(t, "detach", err)
					return
				}
				dir := filepath.Join(walRoot, fmt.Sprintf("w%d", i))
				if err := os.MkdirAll(dir, 0o755); err != nil {
					errsOnce(t, "mkdir", err)
					return
				}
				if _, err := local.SetWALDir(dir); err != nil {
					errsOnce(t, "attach", err)
					return
				}
			}
		}
	}()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				id := g*1000 + i
				if _, err := local.Exec(fmt.Sprintf(
					`INSERT INTO knob_scratch VALUES (%d, 'w%d')`, id, id)); err != nil {
					errs <- fmt.Errorf("writer %d: %w", g, err)
					return
				}
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if _, err := local.Query(`SELECT COUNT(*) AS n FROM knob_scratch`, nil); err != nil {
					errs <- fmt.Errorf("reader %d: %w", g, err)
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
	// Every write must have landed exactly once regardless of knob state.
	res := q(t, local, `SELECT COUNT(*) AS n FROM knob_scratch`)
	if n := res.Rows[0][0].Int(); n != 60 {
		t.Errorf("scratch table has %d rows, want 60", n)
	}
	if _, err := local.SetWALDir(""); err != nil {
		t.Fatalf("final detach: %v", err)
	}
}

// errsOnce reports a flipper-goroutine failure without racing t.
func errsOnce(t *testing.T, what string, err error) {
	t.Errorf("%s: %v", what, err)
}
