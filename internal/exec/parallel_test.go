package exec

import (
	"errors"
	"io"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"dhqp/internal/algebra"
	"dhqp/internal/expr"
	"dhqp/internal/rowset"
	"dhqp/internal/sqltypes"
)

// fakeIter is an instrumented iterator for exchange lifecycle tests: it
// yields `total` int rows, optionally failing at position failAt, and counts
// Open/Close calls under a mutex (workers touch it concurrently).
type fakeIter struct {
	total  int
	failAt int // fail when pos reaches this (0 = never)
	fail   error

	mu     sync.Mutex
	pos    int
	opens  int
	closes int
	isOpen bool
}

func (f *fakeIter) Open() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.opens++
	f.isOpen = true
	f.pos = 0
	return nil
}

func (f *fakeIter) NextBatch(b *rowset.Batch) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	b.Reset(1)
	for !b.Full() {
		if f.failAt > 0 && f.pos >= f.failAt {
			return f.fail
		}
		if f.pos >= f.total {
			break
		}
		f.pos++
		b.AppendRow(rowset.Row{sqltypes.NewInt(int64(f.pos))})
	}
	if b.NumRows() == 0 {
		return io.EOF
	}
	return nil
}

func (f *fakeIter) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.closes++
	f.isOpen = false
	return nil
}

func (f *fakeIter) counts() (opens, closes int, open bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.opens, f.closes, f.isOpen
}

// remoteEmpScan marks the fixture's emp table as living on a linked server
// (the test runtime routes any registered name to the same native session).
func remoteEmpScan(f *fixture, server string) *algebra.Node {
	src := &algebra.Source{Server: server, Catalog: "hr", Table: "emp", Def: f.empSrc.Def}
	return algebra.NewNode(&algebra.RemoteScan{Src: src, Cols: f.empCols})
}

// fanOutConcat unions two remote emp scans with the local dept scan: the ≥2
// remote children make buildConcat choose the parallel exchange.
func fanOutConcat(f *fixture) *algebra.Node {
	out := []algebra.OutCol{{ID: 90, Name: "k", Kind: sqltypes.KindInt}}
	return algebra.NewNode(&algebra.Concat{
		OutColsList: out,
		InMaps:      [][]expr.ColumnID{{1}, {1}, {10}},
	}, remoteEmpScan(f, "remoteA"), remoteEmpScan(f, "remoteB"), f.deptScan())
}

func collectInts(t *testing.T, it Iterator) []int64 {
	t.Helper()
	var got []int64
	rows := rowsOf(it)
	for {
		r, err := rows.NextRow()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		got = append(got, r[0].Int())
	}
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	return got
}

func TestParallelConcatMatchesSerial(t *testing.T) {
	f := newFixture(t)
	f.rt.sessions["remoteB"] = f.rt.sessions["remoteA"]
	n := fanOutConcat(f)

	f.ctx.MaxDOP = 1 // force the serial iterator
	serialIt, err := Build(n, f.ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := serialIt.(*concatIter); !ok {
		t.Fatalf("MaxDOP=1 built %T, want serial concatIter", serialIt)
	}
	if err := serialIt.Open(); err != nil {
		t.Fatal(err)
	}
	want := collectInts(t, serialIt)
	serialIt.Close()

	f.ctx.MaxDOP = 0 // default parallelism
	parIt, err := Build(n, f.ctx)
	if err != nil {
		t.Fatal(err)
	}
	p, ok := parIt.(*parallelConcatIter)
	if !ok {
		t.Fatalf("remote fan-out built %T, want parallelConcatIter", parIt)
	}
	// Run twice: Open must restart cleanly after full consumption.
	for round := 0; round < 2; round++ {
		if err := p.Open(); err != nil {
			t.Fatal(err)
		}
		got := collectInts(t, p)
		if len(got) != len(want) {
			t.Fatalf("round %d: parallel rows = %d, want %d", round, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("round %d: multiset mismatch at %d: %d vs %d", round, i, got[i], want[i])
			}
		}
	}
	p.Close()
}

func TestParallelConcatErrorCancelsSiblings(t *testing.T) {
	boom := errors.New("boom")
	kids := []Iterator{
		&fakeIter{total: 100000, failAt: 3, fail: boom},
		&fakeIter{total: 100000},
		&fakeIter{total: 100000},
		&fakeIter{total: 100000},
	}
	maps := [][]int{{0}, {0}, {0}, {0}}
	ctx := &Context{Env: expr.Env{Params: map[string]sqltypes.Value{}}, MaxDOP: 4}
	p := newParallelConcat(ctx, kids, make([]*Context, len(kids)), maps, []*algebra.Node{{}, {}, {}, {}})
	rows := rowsOf(p)
	if err := rows.Open(); err != nil {
		t.Fatal(err)
	}
	var got error
	for {
		_, err := rows.NextRow()
		if err == io.EOF {
			break
		}
		if err != nil {
			got = err
			break
		}
	}
	if !errors.Is(got, boom) {
		t.Fatalf("surfaced error = %v, want boom", got)
	}
	// Sticky: later Nexts keep returning the error.
	if _, err := rows.NextRow(); !errors.Is(err, boom) {
		t.Errorf("second Next = %v, want sticky boom", err)
	}
	// Every child a worker opened has been closed; the siblings did not run
	// to completion (100000 rows cannot fit the exchange buffer).
	for i, k := range kids {
		opens, closes, open := k.(*fakeIter).counts()
		if opens != closes || open {
			t.Errorf("kid %d: opens=%d closes=%d open=%v", i, opens, closes, open)
		}
	}
	p.Close()
}

func TestParallelConcatOpenCloseNoGoroutineLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	kids := []Iterator{
		&fakeIter{total: 500},
		&fakeIter{total: 500},
		&fakeIter{total: 500},
		&fakeIter{total: 500},
	}
	maps := [][]int{{0}, {0}, {0}, {0}}
	ctx := &Context{Env: expr.Env{Params: map[string]sqltypes.Value{}}}
	p := newParallelConcat(ctx, kids, make([]*Context, len(kids)), maps, []*algebra.Node{{}, {}, {}, {}})
	rows := rowsOf(p)
	for i := 0; i < 25; i++ {
		if err := rows.Open(); err != nil {
			t.Fatal(err)
		}
		// Partial consumption; alternate between Close and direct re-Open.
		for j := 0; j < 5; j++ {
			if _, err := rows.NextRow(); err != nil {
				t.Fatal(err)
			}
		}
		if i%2 == 0 {
			p.Close()
		}
	}
	p.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d > baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(5 * time.Millisecond)
	}
	for i, k := range kids {
		opens, closes, open := k.(*fakeIter).counts()
		if opens != closes || open {
			t.Errorf("kid %d: opens=%d closes=%d open=%v", i, opens, closes, open)
		}
	}
}

func TestSerialConcatLifecycle(t *testing.T) {
	a := &fakeIter{total: 3}
	b := &fakeIter{total: 2}
	c := &concatIter{kids: []Iterator{a, b}, maps: [][]int{{0}, {0}}}
	rows := rowsOf(c)

	// Partial consumption then re-Open: the open child must be released.
	if err := rows.Open(); err != nil {
		t.Fatal(err)
	}
	if _, err := rows.NextRow(); err != nil {
		t.Fatal(err)
	}
	if err := rows.Open(); err != nil {
		t.Fatal(err)
	}
	if opens, closes, open := a.counts(); opens != 1 || closes != 1 || open {
		t.Errorf("after re-Open: a opens=%d closes=%d open=%v", opens, closes, open)
	}

	// Full drain closes each child exactly once as it is exhausted.
	n := 0
	for {
		_, err := rows.NextRow()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != 5 {
		t.Errorf("rows = %d, want 5", n)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if opens, closes, _ := a.counts(); opens != 2 || closes != 2 {
		t.Errorf("a opens=%d closes=%d, want 2/2", opens, closes)
	}
	if opens, closes, _ := b.counts(); opens != 1 || closes != 1 {
		t.Errorf("b opens=%d closes=%d, want 1/1", opens, closes)
	}

	// Close after partial consumption closes only the in-flight child.
	if err := rows.Open(); err != nil {
		t.Fatal(err)
	}
	if _, err := rows.NextRow(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if opens, closes, open := a.counts(); opens != closes || open {
		t.Errorf("after Close: a opens=%d closes=%d open=%v", opens, closes, open)
	}
	if opens, closes, _ := b.counts(); opens != 1 || closes != 1 {
		t.Errorf("after Close: b touched: opens=%d closes=%d", opens, closes)
	}
}
