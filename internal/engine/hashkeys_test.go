package engine

import (
	"fmt"
	"strings"
	"testing"
)

// TestHashKeysCompareValues pins that the hash operators compare key values,
// not only key hashes: 9007199254740992 (2^53) and 9007199254740993 both
// round to the float64 2^53, so they hash alike under the INT = FLOAT rule,
// but as INTs they are unequal. A hash join of the two keys returns nothing,
// GROUP BY keeps two groups with their own sums, and COUNT(DISTINCT) counts
// two, at batch sizes 1, 3 and the default alike.
func TestHashKeysCompareValues(t *testing.T) {
	const lo, hi = "9007199254740992", "9007199254740993"
	s := NewServer("local", "kdb")
	s.MustExec(`CREATE TABLE ka (k INT, v INT)`)
	s.MustExec(`CREATE TABLE kb (k INT, w INT)`)
	var a, b []string
	for i := 0; i < 300; i++ {
		a = append(a, fmt.Sprintf("(%s, %d)", hi, i))
		b = append(b, fmt.Sprintf("(%s, %d)", lo, i))
	}
	s.MustExec(`INSERT INTO ka VALUES ` + strings.Join(a, ", "))
	s.MustExec(`INSERT INTO kb VALUES ` + strings.Join(b, ", "))
	s.MustExec(`CREATE TABLE kg (k INT, v INT)`)
	s.MustExec(`INSERT INTO kg VALUES (` + lo + `, 1), (` + hi + `, 10), (` + lo + `, 2), (` + hi + `, 20), (` + hi + `, 30)`)

	join := `SELECT ka.v, kb.w FROM ka, kb WHERE ka.k = kb.k`
	e, err := s.ExplainAnalyze(join, nil)
	if err != nil {
		t.Fatal(err)
	}
	if e.FindOp("HashJoin") == nil {
		t.Fatalf("no HashJoin in the plan of %s", join)
	}
	cases := []struct {
		sql  string
		want []string // ordered
	}{
		{join, nil},
		{`SELECT k, SUM(v) AS sv, COUNT(*) AS n FROM kg GROUP BY k`,
			[]string{"(" + lo + ", 3, 2)", "(" + hi + ", 60, 3)"}},
		{`SELECT COUNT(DISTINCT k) AS dk FROM kg`, []string{"(2)"}},
	}
	for _, size := range []int{1, 3, 0} {
		name := fmt.Sprintf("batch=%d", size)
		s.Configure(func(c *Config) { c.BatchSize = size })
		for _, c := range cases {
			res, err := s.Query(c.sql, nil)
			if err != nil {
				t.Fatalf("%s: %s: %v", name, c.sql, err)
			}
			got := canonical(res, true)
			if len(got) != len(c.want) {
				t.Errorf("%s: %s returned %d rows, want %d", name, c.sql, len(got), len(c.want))
				continue
			}
			for i := range got {
				if got[i] != c.want[i] {
					t.Errorf("%s: %s row %d = %s, want %s", name, c.sql, i, got[i], c.want[i])
				}
			}
		}
	}
}
