package exec

import (
	"fmt"
	"io"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"dhqp/internal/algebra"
	"dhqp/internal/expr"
	"dhqp/internal/netsim"
	"dhqp/internal/oledb"
	"dhqp/internal/rowset"
	"dhqp/internal/schema"
	"dhqp/internal/sqltypes"
	"dhqp/internal/telemetry"
)

// scriptedSession is a linked server whose every OpenRowset (one per
// execution attempt) streams rows 0..n-1 of a one-column table, with
// scripted trouble per attempt: attempt a fails its failFetch[a]-th fetch
// (1-based) with a transient error, after half-filling the batch with
// poison rows; attempt a holds only short[a] rows when that is set. With a
// link set, every fetch that does not fail crosses it.
type scriptedSession struct {
	oledb.Session // the optional interfaces are never reached
	n             int
	failFetch     map[int]int
	short         map[int]int
	link          *netsim.Link

	mu      sync.Mutex
	opens   int
	fetches []int // per attempt: fetches served, the failed one included
}

const poison = -1

func (s *scriptedSession) OpenRowset(string) (rowset.Rowset, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	attempt := s.opens
	s.opens++
	s.fetches = append(s.fetches, 0)
	n := s.n
	if m, ok := s.short[attempt]; ok {
		n = m
	}
	return netsim.Metered(&scriptedRowset{s: s, attempt: attempt, n: n, failFetch: s.failFetch[attempt]}, s.link), nil
}

type scriptedRowset struct {
	s         *scriptedSession
	attempt   int
	n, pos    int
	failFetch int
}

func (r *scriptedRowset) Columns() []schema.Column {
	return []schema.Column{{Name: "k", Kind: sqltypes.KindInt}}
}
func (r *scriptedRowset) Next() (rowset.Row, error) {
	panic("remote rowsets are read a batch at a time")
}
func (r *scriptedRowset) Close() error { return nil }

func (r *scriptedRowset) NextBatch(b *rowset.Batch) error {
	r.s.mu.Lock()
	r.s.fetches[r.attempt]++
	fetch := r.s.fetches[r.attempt]
	r.s.mu.Unlock()
	b.Reset(1)
	if fetch == r.failFetch {
		for i := 0; i < b.CapRows()/2; i++ {
			b.AppendRow(rowset.Row{sqltypes.NewInt(poison)})
		}
		return &netsim.TransientError{Msg: "scripted blip"}
	}
	for !b.Full() && r.pos < r.n {
		b.AppendRow(rowset.Row{sqltypes.NewInt(int64(r.pos))})
		r.pos++
	}
	if b.NumRows() == 0 {
		return io.EOF
	}
	return nil
}

func scriptedScan(server string) *algebra.Node {
	def := &schema.Table{Catalog: "db", Name: "t", Columns: []schema.Column{{Name: "k", Kind: sqltypes.KindInt}}}
	src := &algebra.Source{Server: server, Catalog: "db", Table: "t", Def: def}
	return algebra.NewNode(&algebra.RemoteScan{Src: src, Cols: []algebra.OutCol{{ID: 1, Name: "k", Kind: sqltypes.KindInt}}})
}

// transportCtx reads a remote rowset 16 rows per fetch, with a detailed
// record and near-zero retry backoff.
func transportCtx() *Context {
	return &Context{Env: expr.Env{Params: map[string]sqltypes.Value{}}, BatchSize: 16,
		RetryBackoff: time.Microsecond, Stats: telemetry.NewCollector(true, nil, nil)}
}

// TestRemoteFetchFaultRestartsAndDiscards: a transient fault on fetch k of
// a multi-fetch remote rowset re-executes the statement and discards
// exactly the rows already delivered — every row reaches the consumer once,
// in order, nothing of the failed fetch's half-filled batch does, the
// retry count is the fault count — whichever fetch fails, first and last
// included, and when the replay itself faults.
func TestRemoteFetchFaultRestartsAndDiscards(t *testing.T) {
	const n = 100 // seven fetches of 16
	scripts := []map[int]int{
		{0: 1}, {0: 2}, {0: 4}, {0: 7}, {0: 8}, // the 8th fetch is the one that finds EOF
		{0: 3, 1: 2},       // the replay faults while discarding
		{0: 3, 1: 5, 2: 7}, // three attempts, each further along
	}
	for _, script := range scripts {
		ctx := transportCtx()
		sess := &scriptedSession{n: n, failFetch: script}
		ctx.RT = &testRT{sessions: map[string]oledb.Session{"r": sess}}
		plan := scriptedScan("r")
		m, err := materialize(plan, ctx)
		if err != nil {
			t.Fatalf("%v: %v", script, err)
		}
		if m.Len() != n {
			t.Fatalf("%v: %d rows, want %d", script, m.Len(), n)
		}
		for i, r := range m.Rows() {
			if r[0].Int() != int64(i) {
				t.Fatalf("%v: row %d is %d (duplicate, gap or poison)", script, i, r[0].Int())
			}
		}
		if got := ctx.Stats.Counts().Retries; got != int64(len(script)) {
			t.Errorf("%v: %d retries recorded, want %d", script, got, len(script))
		}
		if sess.opens != len(script)+1 {
			t.Errorf("%v: statement executed %d times, want %d", script, sess.opens, len(script)+1)
		}
		if got := ctx.Stats.Lookup(plan).ActualRows(); got != n {
			t.Errorf("%v: actual rows = %d, want %d (replayed rows must not count)", script, got, n)
		}
	}
}

// bookmarkSession locates rows by bookmark: bookmark b's row is (b * 10).
// Attempt a of a located batch fails its failFetch[a]-th fetch (1-based)
// with a transient error, after filling the batch with a poison row.
type bookmarkSession struct {
	oledb.Session // the other methods are never reached
	failFetch     map[int]int
	attempts      int
}

func (s *bookmarkSession) FetchByBookmarks(_ string, bms []int64) (rowset.Rowset, error) {
	rows := make([]rowset.Row, len(bms))
	for i, bm := range bms {
		rows[i] = rowset.Row{sqltypes.NewInt(bm * 10)}
	}
	s.attempts++
	return &locatedRows{rows: rows, failFetch: s.failFetch[s.attempts-1]}, nil
}

type locatedRows struct {
	rows                    []rowset.Row
	pos, fetches, failFetch int
}

func (r *locatedRows) Columns() []schema.Column {
	return []schema.Column{{Name: "v", Kind: sqltypes.KindInt}}
}
func (r *locatedRows) Next() (rowset.Row, error) {
	panic("located rows are read a batch at a time")
}
func (r *locatedRows) Close() error { return nil }

func (r *locatedRows) NextBatch(b *rowset.Batch) error {
	r.fetches++
	b.Reset(1)
	if r.fetches == r.failFetch {
		b.AppendRow(rowset.Row{sqltypes.NewInt(poison)})
		return &netsim.TransientError{Msg: "scripted blip"}
	}
	for ; r.pos < len(r.rows) && !b.Full(); r.pos++ {
		b.AppendRow(r.rows[r.pos])
	}
	if b.NumRows() == 0 {
		return io.EOF
	}
	return nil
}

// TestRemoteFetchRetriesWholeBookmarkBatch: the rows located for one batch
// of bookmarks cross the link in several fetches, and a transient fault on
// any of them re-locates the whole batch — nothing of a failed attempt is
// delivered, so every child row meets its base row exactly once.
func TestRemoteFetchRetriesWholeBookmarkBatch(t *testing.T) {
	var keys [][]expr.Expr
	for k := int64(1); k <= 5; k++ {
		keys = append(keys, []expr.Expr{expr.NewConst(sqltypes.NewInt(k))})
	}
	def := &schema.Table{Catalog: "db", Name: "t", Columns: []schema.Column{{Name: "v", Kind: sqltypes.KindInt}}}
	plan := algebra.NewNode(&algebra.RemoteFetch{
		Src:    &algebra.Source{Server: "bm", Catalog: "db", Table: "t", Def: def},
		KeyCol: 97, Cols: []algebra.OutCol{{ID: 98, Name: "v", Kind: sqltypes.KindInt}},
	}, algebra.NewNode(&algebra.ConstScan{Cols: []algebra.OutCol{{ID: 97, Name: "k", Kind: sqltypes.KindInt}}, Rows: keys}))
	for _, script := range []map[int]int{{0: 1}, {0: 2}, {0: 3}, {0: 2, 1: 3}} {
		ctx := transportCtx()
		ctx.BatchSize = 2 // three fetches locate the five rows
		sess := &bookmarkSession{failFetch: script}
		ctx.RT = &testRT{sessions: map[string]oledb.Session{"bm": sess}}
		m, err := materialize(plan, ctx)
		if err != nil {
			t.Fatalf("%v: %v", script, err)
		}
		var got []string
		for _, r := range m.Rows() {
			got = append(got, r.String())
		}
		if want := "(1, 10) (2, 20) (3, 30) (4, 40) (5, 50)"; strings.Join(got, " ") != want {
			t.Errorf("%v: rows %v, want %s", script, got, want)
		}
		if sess.attempts != len(script)+1 || ctx.Stats.Counts().Retries != int64(len(script)) {
			t.Errorf("%v: %d attempts, %d retries; want %d, %d", script, sess.attempts, ctx.Stats.Counts().Retries, len(script)+1, len(script))
		}
	}
}

// TestRemoteFetchShortReplayIsPermanent: a re-execution that returns fewer
// rows than were already delivered, or stops short of the fetch boundary
// they ended on, is an error — not an excuse to deliver a different result.
func TestRemoteFetchShortReplayIsPermanent(t *testing.T) {
	for _, short := range []int{0, 16, 40} { // nothing; one fetch of the three delivered; the third comes up half empty
		ctx := transportCtx()
		sess := &scriptedSession{n: 100, failFetch: map[int]int{0: 4}, short: map[int]int{1: short}}
		ctx.RT = &testRT{sessions: map[string]oledb.Session{"r": sess}}
		plan := scriptedScan("r")
		_, err := materialize(plan, ctx)
		if err == nil || !strings.Contains(err.Error(), "replay returned") {
			t.Fatalf("short=%d: err = %v, want the replay error", short, err)
		}
		if oledb.IsTransient(err) {
			t.Errorf("short=%d: replay error is classified transient: %v", short, err)
		}
	}
}

// settleGoroutines waits for the goroutine count to fall back to base.
func settleGoroutines(t *testing.T, base int, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%s: goroutines leaked: %d > baseline %d", what, runtime.NumGoroutine(), base)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestFirstFetchExhaustsRetries: the round trip that opens a remote rowset
// brings its first fetch back, inside the retry scope. A first fetch that
// fails on every attempt therefore fails the open after exactly
// RetryAttempts executions, each of them a real attempt, with the exhausted
// error and no goroutine left behind.
func TestFirstFetchExhaustsRetries(t *testing.T) {
	base := runtime.NumGoroutine()
	ctx := transportCtx()
	ctx.RetryAttempts = 3
	sess := &scriptedSession{n: 100, failFetch: map[int]int{0: 1, 1: 1, 2: 1, 3: 1}}
	ctx.RT = &testRT{sessions: map[string]oledb.Session{"r": sess}}
	_, err := materialize(scriptedScan("r"), ctx)
	if err == nil || !strings.Contains(err.Error(), "3 attempts exhausted") {
		t.Fatalf("err = %v, want 3 attempts exhausted", err)
	}
	if sess.opens != 3 {
		t.Errorf("statement executed %d times, want 3", sess.opens)
	}
	if got := ctx.Stats.Counts().Retries; got != 2 {
		t.Errorf("%d retries recorded, want 2", got)
	}
	settleGoroutines(t, base, "first fetch exhausted")
}

// TestFirstFetchRetriedOnce: a first fetch lost on the first attempt costs
// one retry, and every row still arrives exactly once, in order — whether
// the answer fits that one fetch or spans seven. Only the fetches that
// crossed are charged to the link.
func TestFirstFetchRetriedOnce(t *testing.T) {
	for _, n := range []int{10, 100} {
		ctx := transportCtx()
		sess := &scriptedSession{n: n, failFetch: map[int]int{0: 1}, link: &netsim.Link{}}
		ctx.RT = &testRT{sessions: map[string]oledb.Session{"r": sess}}
		m, err := materialize(scriptedScan("r"), ctx)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if m.Len() != n {
			t.Fatalf("n=%d: %d rows", n, m.Len())
		}
		for i, r := range m.Rows() {
			if r[0].Int() != int64(i) {
				t.Fatalf("n=%d: row %d is %d (duplicate, gap or poison)", n, i, r[0].Int())
			}
		}
		if got := ctx.Stats.Counts().Retries; got != 1 || sess.opens != 2 {
			t.Errorf("n=%d: %d retries over %d executions, want 1 over 2", n, got, sess.opens)
		}
		if s, want := sess.link.Stats(), int64((n+15)/16); s.Calls != want || s.Rows != int64(n) {
			t.Errorf("n=%d: link = %+v, want %d calls carrying %d rows", n, s, want, n)
		}
	}
}

// TestFirstFetchEmptyResult: an empty remote answer costs the one round
// trip that opens it, then reads as the end of the rows.
func TestFirstFetchEmptyResult(t *testing.T) {
	ctx := transportCtx()
	sess := &scriptedSession{link: &netsim.Link{}}
	ctx.RT = &testRT{sessions: map[string]oledb.Session{"r": sess}}
	m, err := materialize(scriptedScan("r"), ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() != 0 {
		t.Fatalf("%d rows from an empty answer", m.Len())
	}
	if s := sess.link.Stats(); s.Calls != 1 || s.Rows != 0 || sess.opens != 1 {
		t.Errorf("link = %+v over %d executions, want 1 call and 1 execution", s, sess.opens)
	}
}

// TestBatchExchangeLifecycle drives the parallel exchange over remote
// children through the ways a consumer can walk away — early Close under a
// TOP, a sibling's permanent error, re-Open after partial consumption — and
// checks that every exchange goroutine (the executor's only ones) is gone
// each time, over 4 children and over 128 at the default DOP, a worker per
// child, whose pool still holds no more batches than its budget.
func TestBatchExchangeLifecycle(t *testing.T) {
	base := runtime.NumGoroutine()
	fanOut := func(servers ...string) *algebra.Node {
		kids := make([]*algebra.Node, len(servers))
		in := make([][]expr.ColumnID, len(servers))
		for i, s := range servers {
			kids[i] = scriptedScan(s)
			in[i] = []expr.ColumnID{1}
		}
		return algebra.NewNode(&algebra.Concat{OutColsList: []algebra.OutCol{{ID: 9, Name: "k", Kind: sqltypes.KindInt}}, InMaps: in}, kids...)
	}
	for _, tc := range []struct{ kids, batch int }{{4, 1}, {4, 3}, {4, 64}, {128, 3}, {128, 64}} {
		sessions := map[string]oledb.Session{}
		var servers []string
		for i := 0; i < tc.kids; i++ {
			s := string(rune('a' + i%26))
			if tc.kids > 26 {
				s = "s" + strconv.Itoa(i)
			}
			servers = append(servers, s)
			sessions[s] = &scriptedSession{n: 400000 / tc.kids}
		}
		ctx := &Context{RT: &testRT{sessions: sessions}, Env: expr.Env{Params: map[string]sqltypes.Value{}}, BatchSize: tc.batch, Stats: telemetry.NewCollector(false, nil, nil)}

		// Early Close under TOP: 400 000 rows on offer, 10 taken.
		top := algebra.NewNode(&algebra.TopN{N: 10}, fanOut(servers...))
		m, err := materialize(top, ctx)
		if err != nil || m.Len() != 10 {
			t.Fatalf("%+v: TOP 10 = %d rows, %v", tc, m.Len(), err)
		}
		settleGoroutines(t, base, "early Close under TOP")

		// Re-Open after partial consumption, then Close mid-stream.
		built, err := Build(fanOut(servers...), ctx)
		if err != nil {
			t.Fatal(err)
		}
		p := built.(*parallelConcatIter)
		if p.dop != tc.kids {
			t.Errorf("%+v: %d workers, want one per child", tc, p.dop)
		}
		it := rowsOf(built)
		for round := 0; round < 5; round++ {
			if err := it.Open(); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 100; i++ {
				if _, err := it.Next(); err != nil {
					t.Fatal(err)
				}
			}
			if len(p.pool) > exchangeBatchBudget {
				t.Errorf("%+v: %d pool batches, the budget is %d", tc, len(p.pool), exchangeBatchBudget)
			}
		}
		it.Close()
		settleGoroutines(t, base, "re-Open after partial consumption")

		// First error cancels the siblings: one child dies for good on its
		// third fetch.
		bad := servers[2]
		sessions[bad] = &scriptedSession{n: 400000 / tc.kids, failFetch: map[int]int{0: 3, 1: 1, 2: 1, 3: 1}}
		ctx.RetryAttempts = 2
		ctx.RetryBackoff = time.Microsecond
		plan := fanOut(servers...)
		if _, err := materialize(plan, ctx); err == nil || !strings.Contains(err.Error(), "["+bad+"]") {
			t.Fatalf("%+v: err = %v, want branch %s's failure", tc, err, bad)
		}
		settleGoroutines(t, base, "first-error cancel")
	}
}

// gatedSession is a linked server whose OpenRowset returns only once every
// one of a fan-out's n children has called it, or fails after a timeout.
type gatedSession struct {
	oledb.Session
	gate *openGate
}

type openGate struct {
	mu      sync.Mutex
	n, seen int
	all     chan struct{}
}

func (s *gatedSession) OpenRowset(string) (rowset.Rowset, error) {
	g := s.gate
	g.mu.Lock()
	if g.seen++; g.seen == g.n {
		close(g.all)
	}
	g.mu.Unlock()
	select {
	case <-g.all:
		return &scriptedRowset{s: &scriptedSession{fetches: []int{0}}, n: 1}, nil
	case <-time.After(5 * time.Second):
		return nil, fmt.Errorf("only %d of %d children were opening at once", g.seen, g.n)
	}
}

// TestExchangeOpensEveryChild: with MaxDOP 0 every child of a parallel
// concat is opened at once — here each child's open returns only after all
// 128 have started — so a latency-bound fan-out pays one wave of round
// trips however wide it is; MaxDOP still caps the workers.
func TestExchangeOpensEveryChild(t *testing.T) {
	const kids = 128
	gate := &openGate{n: kids, all: make(chan struct{})}
	sessions := map[string]oledb.Session{}
	var nodes []*algebra.Node
	var in [][]expr.ColumnID
	for i := 0; i < kids; i++ {
		s := "s" + strconv.Itoa(i)
		sessions[s] = &gatedSession{gate: gate}
		nodes = append(nodes, scriptedScan(s))
		in = append(in, []expr.ColumnID{1})
	}
	plan := algebra.NewNode(&algebra.Concat{OutColsList: []algebra.OutCol{{ID: 9, Name: "k", Kind: sqltypes.KindInt}}, InMaps: in}, nodes...)
	ctx := &Context{RT: &testRT{sessions: sessions}, Env: expr.Env{Params: map[string]sqltypes.Value{}}, Stats: telemetry.NewCollector(false, nil, nil)}
	m, err := materialize(plan, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() != kids {
		t.Errorf("%d rows, want one per child", m.Len())
	}
	ctx.MaxDOP = 5
	built, err := Build(plan, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if p := built.(*parallelConcatIter); p.dop != 5 || len(p.pool) != 0 {
		t.Errorf("MaxDOP 5: %d workers, %d pool batches before Open", p.dop, len(p.pool))
	}
}

// TestKeptExchangeKeepsForkParams: a released exchange's children keep
// their forked contexts' parameter maps, emptied, and the next execution
// of the tree refills the same maps with its own values.
func TestKeptExchangeKeepsForkParams(t *testing.T) {
	servers := []string{"a", "b", "c", "d"}
	sessions := map[string]oledb.Session{}
	kids := make([]*algebra.Node, len(servers))
	in := make([][]expr.ColumnID, len(servers))
	for i, s := range servers {
		sessions[s] = &scriptedSession{n: 10}
		kids[i] = scriptedScan(s)
		in[i] = []expr.ColumnID{1}
	}
	plan := algebra.NewNode(&algebra.Concat{OutColsList: []algebra.OutCol{{ID: 9, Name: "k", Kind: sqltypes.KindInt}}, InMaps: in}, kids...)
	rt := &testRT{sessions: sessions}
	execCtx := func(p int64) *Context {
		return &Context{RT: rt, Env: expr.Env{Params: map[string]sqltypes.Value{"p": sqltypes.NewInt(p)}}}
	}
	drain := func(r *Run) {
		t.Helper()
		for _, err := r.Pull(); err != io.EOF; _, err = r.Pull() {
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		r.Release()
	}
	r, err := Open(plan, execCtx(1))
	if err != nil {
		t.Fatal(err)
	}
	forks := r.ctx.tree.forks
	if len(forks) != len(servers) {
		t.Fatalf("%d forked contexts, want %d", len(forks), len(servers))
	}
	maps := make([]string, len(forks))
	for i, f := range forks {
		maps[i] = fmt.Sprintf("%p", f.Params)
	}
	drain(r)
	for i, f := range forks {
		if f.Params == nil || len(f.Params) != 0 {
			t.Fatalf("fork %d after Release: parameters %v, want an empty kept map", i, f.Params)
		}
	}
	if err := r.Reopen(execCtx(2)); err != nil {
		t.Fatal(err)
	}
	for i, f := range forks {
		if got := fmt.Sprintf("%p", f.Params); got != maps[i] {
			t.Errorf("fork %d: a new parameter map at the next execution", i)
		}
		if v := f.Params["p"]; v.Int() != 2 {
			t.Errorf("fork %d: @p = %v, want the next execution's 2", i, v)
		}
	}
	drain(r)
}
