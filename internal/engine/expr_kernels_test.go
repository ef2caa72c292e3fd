package engine

import (
	"strings"
	"testing"

	"dhqp/internal/oracle"
)

// TestFloatModuloByZeroErrors: % truncates FLOAT operands to integers, so
// a divisor of 0.5 is a zero one. Each form — constant, column, WHERE —
// must fail the statement with the modulo-by-zero error, not panic.
func TestFloatModuloByZeroErrors(t *testing.T) {
	s := NewServer("local", "db")
	s.MustExec(`CREATE TABLE t (id INT, v FLOAT)`)
	s.MustExec(`INSERT INTO t VALUES (1, 0.5), (2, 0.5)`)
	for _, sql := range []string{
		"SELECT 5 % 0.5",
		"SELECT id % v FROM t",
		"SELECT id FROM t WHERE id % 0.5 = 0",
	} {
		if _, err := s.Query(sql, nil); err == nil || !strings.Contains(err.Error(), "modulo by zero") {
			t.Errorf("%s: err %v, want modulo by zero", sql, err)
		}
	}
}

// FuzzExprKernels holds the expression kernels to the oracle, which shares
// no code with them: each input seeds one drawn statement — computed
// columns and a nested predicate over one of the oracle's tables, NULLs
// included — whose answer at batch sizes 1, 3 and the default must be the
// oracle's.
func FuzzExprKernels(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed)
	}
	db := oracle.NewDB()
	s := NewServer("local", "odb")
	for _, sql := range db.Script() {
		s.MustExec(sql)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		st := db.DrawExpr(seed)
		for _, size := range []int{1, 3, 0} {
			s.Configure(func(c *Config) { c.BatchSize = size })
			if err := oracleRun(s, db, st); err != nil {
				t.Fatalf("batch=%d: %s\n  %v", size, st.SQL(), err)
			}
		}
	})
}
