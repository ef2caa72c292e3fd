package engine

import (
	"testing"

	"dhqp/internal/oracle"
	"dhqp/internal/rowset"
	"dhqp/internal/storage"
)

// TestStatementOracleThroughDelta runs the statement oracle's statements
// on its local placement with every twentieth row of every table rewritten
// in place before each statement. The rewrites pile up in the delta until
// a scan finds an eighth of main there and merges it, so on the larger
// tables two statements in three read main less the rewritten rows plus
// the delta's entries — main batches reach every operator with a
// selection — and index ranges and bookmark fetches find rows in the
// delta; every answer must still be the oracle's, at batch sizes 1, 3 and
// the default.
func TestStatementOracleThroughDelta(t *testing.T) {
	db := oracle.NewDB()
	cases := db.Cases(*oracleSeed, oraclePerFamily)
	s := NewServer("local", "odb")
	for _, sql := range db.Script() {
		s.MustExec(sql)
	}
	defer holdImages(t, s).check(t)
	rewrite := func() {
		for _, name := range s.Store().Databases() {
			d, _ := s.Store().Database(name)
			for _, tn := range d.Tables() {
				tbl, _ := d.Table(tn)
				rows, bms := tableRows(tbl)
				for i := 3; i < len(rows); i += 20 {
					if err := tbl.Update(bms[i], rows[i]); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	for _, size := range []int{1, 3, 0} {
		s.Configure(func(c *Config) { c.BatchSize = size })
		for i, st := range cases {
			rewrite()
			if err := oracleRun(s, db, st); err != nil {
				t.Fatalf("batch=%d case %d [%s] (seed %d): %s\n  %v", size, i, st.Family, *oracleSeed, st.SQL(), err)
			}
		}
	}
}

// tableRows reads every live row of tbl and its bookmark, the ordinal one
// past the table's last column.
func tableRows(tbl *storage.Table) (rows []rowset.Row, bms []int64) {
	w := len(tbl.Def().Columns)
	all := make([]int, w+1)
	for j := range all {
		all[j] = j
	}
	rs := tbl.Scan()
	defer rs.Close()
	for b := rowset.NewBatch(0); rs.(rowset.ProjectedBatchReader).NextBatchProjected(b, all) == nil; {
		for i := 0; i < b.Len(); i++ {
			r := b.RowAt(i, nil)
			rows, bms = append(rows, r[:w:w]), append(bms, r[w].Int())
		}
	}
	return rows, bms
}
