package engine

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// TestFullTextBuildReadsEveryLiveRowOnce: a full-text catalog built over a
// table whose main spans four batches, with keyed UPDATEs that change the
// key and the text and DELETEs in its delta, and a row rewritten after a
// held snapshot, indexes every live row's text once under its bookmark, so
// CONTAINS finds exactly the live rows holding the word.
func TestFullTextBuildReadsEveryLiveRowOnce(t *testing.T) {
	const n = 3500
	s := NewServer("local", "ftdb")
	s.MustExec(`CREATE TABLE docs (id INT PRIMARY KEY, k INT, body VARCHAR(64))`)
	words := []string{"apple", "berry", "cherry", "damson", "elder"}
	bodies := map[int64]string{}
	for lo := 0; lo < n; lo += 500 {
		var sb strings.Builder
		sb.WriteString("INSERT INTO docs VALUES ")
		for id := lo; id < lo+500; id++ {
			if id > lo {
				sb.WriteString(", ")
			}
			bodies[int64(id)] = words[id%5] + " common"
			fmt.Fprintf(&sb, "(%d, %d, '%s')", id, id%97, bodies[int64(id)])
		}
		s.MustExec(sb.String())
	}
	q(t, s, `SELECT COUNT(*) FROM docs`) // a full scan folds the load into main
	for id := int64(0); id < n; id += 50 {
		s.MustExec(fmt.Sprintf(`UPDATE docs SET k = k + 1000, body = 'fig common' WHERE id = %d`, id))
		bodies[id] = "fig common"
	}
	for id := int64(25); id < n; id += 70 {
		s.MustExec(fmt.Sprintf(`DELETE FROM docs WHERE id = %d`, id))
		delete(bodies, id)
	}
	snap := s.Store().AcquireSnapshot()
	defer snap.Release()
	s.MustExec(`UPDATE docs SET k = 0, body = 'grape common' WHERE id = 17`)
	bodies[17] = "grape common"

	if err := s.CreateFullTextIndex("dcat", "docs", "body"); err != nil {
		t.Fatal(err)
	}
	if cat, _ := s.FulltextService().Catalog("dcat"); cat.Len() != len(bodies) {
		t.Fatalf("catalog holds %d documents for %d live rows", cat.Len(), len(bodies))
	}
	for _, w := range append(words, "fig", "grape", "common") {
		var want, got []int64
		for id, body := range bodies {
			if strings.Contains(body, w) {
				want = append(want, id)
			}
		}
		sql := `SELECT id FROM docs WHERE CONTAINS(body, '` + w + `')`
		if plan, _, _, err := s.Plan(sql); err != nil || !strings.Contains(plan.String(), "ProviderCommand") {
			t.Fatalf("%s does not read the catalog: %v\n%v", sql, err, plan)
		}
		for _, r := range q(t, s, sql).Rows {
			got = append(got, r[0].Int())
		}
		slices.Sort(want)
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Fatalf("CONTAINS(body, '%s') found %d rows, want %d: %v", w, len(got), len(want), got)
		}
	}
}
