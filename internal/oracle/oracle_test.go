package oracle

import (
	"go/build"
	"strings"
	"testing"
)

// TestIndependence keeps the oracle independent: it imports nothing from
// the module, test files included, so no engine code can be shared into
// the reference it is checked against.
func TestIndependence(t *testing.T) {
	pkg, err := build.ImportDir(".", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, list := range [][]string{pkg.Imports, pkg.TestImports, pkg.XTestImports} {
		for _, path := range list {
			if path == "dhqp" || strings.HasPrefix(path, "dhqp/") {
				t.Errorf("internal/oracle imports %s", path)
			}
		}
	}
}

func TestCellSemantics(t *testing.T) {
	lo, hi := IntCell(1<<53), IntCell(1<<53+1)
	if Compare(lo, hi) >= 0 || compareOp("=", lo, hi) != False {
		t.Error("INT = INT must stay exact past 2^53")
	}
	if Compare(Cell{}, IntCell(-5)) >= 0 || Compare(IntCell(9), StrCell("")) >= 0 {
		t.Error("NULL sorts first, numbers before strings")
	}
	if compareOp("=", Cell{}, Cell{}) != Unknown || compareOp("<", IntCell(1), FloatCell(1.5)) != True {
		t.Error("comparisons: NULL is unknown, INT against FLOAT by value")
	}
	if and(False, Unknown) != False || or(True, Unknown) != True || not(Unknown) != Unknown || and(True, Unknown) != Unknown {
		t.Error("three-valued logic")
	}
	avg := (&Agg{Fn: "AVG", Arg: Col{"a", "v"}}).over([]*scope{
		{names: map[string]int{"a.v": 0}, row: []Cell{IntCell(1)}},
		{names: map[string]int{"a.v": 0}, row: []Cell{IntCell(2)}},
		{names: map[string]int{"a.v": 0}, row: []Cell{{}}},
	})
	if !Same(avg, FloatCell(1.5)) {
		t.Errorf("AVG(1, 2, NULL) = %v, want 1.5f", avg)
	}
}

// TestSeedsEvaluate runs every fixed case and a drawn batch through the
// evaluator, which panics on a statement that names an unknown table,
// column or parameter.
func TestSeedsEvaluate(t *testing.T) {
	db := NewDB()
	for _, st := range db.Cases(1, 8) {
		rows := db.Eval(st)
		if st.SQL() == "" || (st.Family == "join" && strings.Contains(st.SQL(), "FROM ka") && len(rows) != 0) {
			t.Errorf("%s: %d rows", st.SQL(), len(rows))
		}
	}
}
