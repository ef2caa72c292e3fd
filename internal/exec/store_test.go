package exec

import (
	"errors"
	"fmt"
	"io"
	"testing"

	"dhqp/internal/algebra"
	"dhqp/internal/expr"
	"dhqp/internal/rowset"
	"dhqp/internal/sqltypes"
)

// A blocking operator whose drain fails closes its child before the error
// leaves Open, and its own Close (which exec.Open calls after a failed
// Open) closes nothing twice: the aggregate and the spool leave no local or
// remote rowset open behind a failed statement.
func TestBlockingDrainFailureClosesChild(t *testing.T) {
	boom := errors.New("child failed mid-drain")
	rows := []rowset.Row{intRow(1), intRow(2), intRow(3)}
	ctx := &Context{Env: expr.Env{Params: map[string]sqltypes.Value{}}, BatchSize: 1}
	for _, tc := range []struct {
		name  string
		build func(child Iterator) Iterator
	}{
		{"HashAgg", func(child Iterator) Iterator {
			return &hashAggIter{ctx: ctx, child: child, gpos: []int{0}, argPos: []int{}}
		}},
		{"StreamAgg", func(child Iterator) Iterator {
			return &hashAggIter{ctx: ctx, child: child, gpos: []int{0}, argPos: []int{}, stream: true}
		}},
		{"Spool", func(child Iterator) Iterator { return &spoolIter{ctx: ctx, child: child, width: 1} }},
	} {
		child := &countingIter{rows: rows, fail: boom, failAt: 2}
		it := tc.build(child)
		if err := it.Open(); !errors.Is(err, boom) {
			t.Fatalf("%s: Open = %v, want the child's failure", tc.name, err)
		}
		it.Close()
		if child.isOpen || child.opens != 1 || child.closes != 1 {
			t.Errorf("%s: child open %v after %d opens and %d closes, want closed once", tc.name, child.isOpen, child.opens, child.closes)
		}
	}
}

// BenchmarkSpoolReplay times a warm spool's replay: re-opened under an
// unchanged binding and drained, it copies 4 096 buffered rows of an INT, a
// VARCHAR and a FLOAT column into the caller's batch. The run fails if a
// replay allocates.
func BenchmarkSpoolReplay(b *testing.B) {
	kinds := []sqltypes.Kind{sqltypes.KindInt, sqltypes.KindString, sqltypes.KindFloat}
	var cells [][]cell
	for i := 0; i < 4096; i++ {
		cells = append(cells, []cell{{kind: 'i', i: int64(i)}, {kind: 's', s: fmt.Sprintf("s%d", i%100)}, {kind: 'f', f: float64(i) / 4}})
	}
	child := newJoinSrc(kinds, cells, nil)
	sp := &spoolIter{ctx: &Context{Env: expr.Env{Params: map[string]sqltypes.Value{"k": sqltypes.NewInt(1)}}}, child: child, width: len(kinds)}
	out := rowset.NewBatch(0)
	rows, replays := 0, 0
	replay := func() {
		replays++
		if err := sp.Open(); err != nil {
			b.Fatal(err)
		}
		for {
			err := sp.NextBatch(out)
			if err == io.EOF {
				return
			}
			if err != nil {
				b.Fatal(err)
			}
			rows += out.Len()
		}
	}
	replay()         // fills the spool
	child.rows = nil // a re-execution would now come back empty
	replay()         // sizes the caller's batch
	if allocs := testing.AllocsPerRun(20, replay); allocs != 0 {
		b.Fatalf("a replay allocates %.1f times, want 0", allocs)
	}
	if rows != replays*len(cells) {
		b.Fatalf("%d rows in %d replays of %d: the spool re-executed its child", rows, replays, len(cells))
	}
	rows = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		replay()
	}
	b.ReportMetric(float64(rows)/b.Elapsed().Seconds(), "rows/s")
}

// A Sort orders by every key in turn, each ascending or descending, and
// keeps rows that tie on all of them in arrival order — more rows than the
// library sort handles by insertion, so an unstable tiebreak shows.
func TestSortIsStable(t *testing.T) {
	f := newFixture(t)
	const n = 60
	var rows [][]expr.Expr
	for i := 0; i < n; i++ {
		rows = append(rows, []expr.Expr{expr.NewConst(sqltypes.NewInt(int64(i % 3))), expr.NewConst(sqltypes.NewInt(int64(i % 2))), expr.NewConst(sqltypes.NewInt(int64(i)))})
	}
	scan := algebra.NewNode(&algebra.ConstScan{Cols: []algebra.OutCol{
		{ID: 70, Name: "a", Kind: sqltypes.KindInt}, {ID: 71, Name: "b", Kind: sqltypes.KindInt}, {ID: 72, Name: "seq", Kind: sqltypes.KindInt},
	}, Rows: rows})
	sorted := algebra.NewNode(&algebra.Sort{Order: algebra.Ordering{{Col: 70}, {Col: 71, Desc: true}}}, scan)
	got := run(t, f, sorted).Rows()
	if len(got) != n {
		t.Fatalf("%d rows, want %d", len(got), n)
	}
	for i := 1; i < n; i++ {
		p, r := got[i-1], got[i]
		a, b, seq := r[0].Int(), r[1].Int(), r[2].Int()
		if a < p[0].Int() || a == p[0].Int() && (b > p[1].Int() || b == p[1].Int() && seq < p[2].Int()) {
			t.Fatalf("row %d %v follows %v: want a ascending, b descending, ties in arrival order", i, r, p)
		}
	}
}

// A bounded top-N, rejecting and compacting its candidates many times over,
// returns exactly the first N rows of a stable sort at every batch size.
func TestTopNMatchesStableSort(t *testing.T) {
	const n = 300
	var rows [][]expr.Expr
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = int64(i * 37 % 11)
		rows = append(rows, []expr.Expr{expr.NewConst(sqltypes.NewInt(keys[i])), expr.NewConst(sqltypes.NewInt(int64(i)))})
	}
	var stable []int64 // seq in key-descending, arrival order
	for k := int64(10); k >= 0; k-- {
		for i, key := range keys {
			if key == k {
				stable = append(stable, int64(i))
			}
		}
	}
	for _, batch := range []int{1, 7, 0} {
		for _, limit := range []int64{1, 5, 64, n + 1} {
			f := newFixture(t)
			f.ctx.BatchSize = batch
			scan := algebra.NewNode(&algebra.ConstScan{Cols: []algebra.OutCol{
				{ID: 70, Name: "k", Kind: sqltypes.KindInt}, {ID: 71, Name: "seq", Kind: sqltypes.KindInt},
			}, Rows: rows})
			top := algebra.NewNode(&algebra.TopN{N: limit, Order: algebra.Ordering{{Col: 70, Desc: true}}}, scan)
			var got []int64
			for _, r := range run(t, f, top).Rows() {
				got = append(got, r[1].Int())
			}
			if want := stable[:min(int(limit), n)]; fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("batch %d, TOP %d: seq %v, want %v", batch, limit, got, want)
			}
		}
	}
}
