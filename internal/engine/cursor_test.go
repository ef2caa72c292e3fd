package engine

import (
	"context"
	"fmt"
	"io"
	goruntime "runtime"
	"strings"
	"testing"
	"time"

	"dhqp/internal/netsim"
	"dhqp/internal/providers/sqlful"
	"dhqp/internal/rowset"
	"dhqp/internal/shardmap"
	"dhqp/internal/sqltypes"
)

// bigMember is a member server holding big (i INT, s VARCHAR) with rows
// i = 0..n-1, loaded straight into storage.
func bigMember(t *testing.T, n int) *Server {
	t.Helper()
	m := NewServer("m", "odb")
	m.MustExec(`CREATE TABLE big (i INT, s VARCHAR(16))`)
	db, _ := m.Store().Database("odb")
	tbl, _ := db.Table("big")
	for i := 0; i < n; i++ {
		if _, err := tbl.Insert(rowset.Row{sqltypes.NewInt(int64(i)), sqltypes.NewString("row" + itoa(i))}); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// allocated reports the bytes the process allocated while fn ran, the
// least of three runs.
func allocated(fn func()) uint64 {
	least := ^uint64(0)
	for range 3 {
		var before, after goruntime.MemStats
		goruntime.ReadMemStats(&before)
		fn()
		goruntime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestHeadStopStopsMember pins the defect a pushed statement had when a
// member ran it to completion before the head's first fetch: a head that
// stops after one batch of a 200 000-row pushed scan made the member read
// and copy every row. Now the member runs the statement a fetch at a time,
// so it reads at most two batches, and the statement allocates a fraction
// of what reading every row into a result does.
func TestHeadStopStopsMember(t *testing.T) {
	const query = `SELECT i, s FROM m.odb.dbo.big WHERE i >= 0`
	m := bigMember(t, 200_000)
	head := NewServer("head", "hdb")
	link := netsim.LAN()
	if err := head.AddLinkedServer("m", sqlful.New(m, link, sqlful.FullSQLCapabilities()), link); err != nil {
		t.Fatal(err)
	}
	read := func(batches int) int64 {
		cur, err := head.OpenQuery(context.Background(), query, nil)
		if err != nil {
			t.Fatal(err)
		}
		var rows int64
		for k := 0; k != batches; k++ {
			b, err := cur.Pull()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			rows += int64(b.Len())
		}
		if _, err := cur.Finish(nil); err != nil {
			t.Fatal(err)
		}
		return rows
	}
	if n := read(-1); n != 200_000 { // compiles, and builds the member's image
		t.Fatalf("a full read returned %d rows", n)
	}
	before := counterValue(m, "dhqp_exec_rows_read_total")
	link.Reset()
	if n := read(1); n != rowset.DefaultBatchSize {
		t.Fatalf("the first batch holds %d rows", n)
	}
	if d := counterValue(m, "dhqp_exec_rows_read_total") - before; d > 2*rowset.DefaultBatchSize {
		t.Errorf("a head that stopped after one batch made the member read %d rows, want ≤ %d", d, 2*rowset.DefaultBatchSize)
	}
	if st := link.Stats(); st.Calls != 1 || st.Rows != rowset.DefaultBatchSize {
		t.Errorf("one batch crossed in %d calls with %d rows, want 1 and %d", st.Calls, st.Rows, rowset.DefaultBatchSize)
	}
	first := allocated(func() { read(1) })
	full := allocated(func() { q(t, head, query) })
	if first*10 >= full {
		t.Errorf("stopping after one batch allocated %d B, reading every row %d B: want < 10 %%", first, full)
	}
}

// TestMemberCursorHoldsOneFetch: opening a member's statement and taking
// its first fetch allocates the same at 20 000 rows as at 200 000 — the
// member holds a fetch, not its result.
func TestMemberCursorHoldsOneFetch(t *testing.T) {
	const query = `SELECT i, s FROM big WHERE i >= 0`
	bytes := map[int]uint64{}
	for _, n := range []int{20_000, 200_000} {
		m := bigMember(t, n)
		fetch := func() {
			cur, err := m.QuerySQL(context.Background(), query, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := cur.NextBatch(rowset.NewBatch(0)); err != nil {
				t.Fatal(err)
			}
			cur.Close()
		}
		fetch() // compiles, and builds the image
		bytes[n] = allocated(fetch)
	}
	small, large := float64(bytes[20_000]), float64(bytes[200_000])
	if large > 1.1*small || small > 1.1*large {
		t.Errorf("open + first fetch allocated %.0f B at 20 000 rows and %.0f B at 200 000: want within 10 %%", small, large)
	}
}

// TestSortAllocsDoNotGrow: a Sort keeps its rows column-wise and emits by
// gather, so a statement's allocations grow with the table only by the
// doublings of the store and the id heap and by the result's boxed batches
// (about 45 objects from 1 000 to 10 000 rows), not by a row per input row.
func TestSortAllocsDoNotGrow(t *testing.T) {
	const query = `SELECT k, v FROM t WHERE k >= 0 ORDER BY v`
	allocs := map[int]float64{}
	for _, n := range []int{1_000, 10_000} {
		s := NewServer("s", "db")
		s.MustExec(`CREATE TABLE t (k INT PRIMARY KEY, v INT)`)
		db, _ := s.Store().Database("db")
		tbl, _ := db.Table("t")
		for i := 0; i < n; i++ {
			if _, err := tbl.Insert(rowset.Row{sqltypes.NewInt(int64(i)), sqltypes.NewInt(int64(i * 7919 % n))}); err != nil {
				t.Fatal(err)
			}
		}
		res := q(t, s, query) // compiles, and builds the image
		if len(res.Rows) != n || res.Rows[0][1].Int() != 0 || res.Rows[n-1][1].Int() != int64(n-1) {
			t.Fatalf("%d rows: the sort returned %d rows", n, len(res.Rows))
		}
		allocs[n] = testing.AllocsPerRun(5, func() { q(t, s, query) })
	}
	if allocs[10_000] > allocs[1_000]+64 {
		t.Errorf("a sorted statement allocates %.0f objects at 1 000 rows and %.0f at 10 000", allocs[1_000], allocs[10_000])
	}
}

// lifecycleFederation is a head over n members, each its own server,
// holding one 100-key range of the elastic view orders; members and head
// run at batch size 16, so a member's range spans several fetches and root
// batches.
func lifecycleFederation(t *testing.T, n int) (*Server, []*Server) {
	t.Helper()
	head := NewServer("head", "fed")
	var members []*Server
	var places []ShardPlacement
	for i := 0; i < n; i++ {
		m := NewServer("member"+itoa(i+1), "fed")
		m.MustExec(`CREATE TABLE bootstrap (x INT)`)
		m.Configure(func(c *Config) { c.BatchSize = 16 })
		link := netsim.LAN()
		name := "server" + itoa(i+1)
		if err := head.AddLinkedServer(name, sqlful.New(m, link, sqlful.FullSQLCapabilities()), link); err != nil {
			t.Fatal(err)
		}
		lo, hi := int64(i*100), int64(i*100+100)
		if i == 0 {
			lo = shardmap.NoLowerBound
		}
		if i == n-1 {
			hi = shardmap.NoUpperBound
		}
		places = append(places, ShardPlacement{Server: name, Lo: lo, Hi: hi})
		members = append(members, m)
	}
	if err := head.CreateElasticView("orders", "o_id", orderCols(), places); err != nil {
		t.Fatal(err)
	}
	seedElastic(t, head, "orders", n*100)
	for i := range members {
		head.InvalidateRemoteSchema("server" + itoa(i+1)) // the members were empty when the head first saw them
	}
	head.Configure(func(c *Config) { c.BatchSize = 16 })
	return head, members
}

// statementCounts is what one member's statements left behind: plan-cache
// probes (one per statement opened) and successful SELECT records.
type statementCounts struct{ opened, succeeded int64 }

func countStatements(m *Server) statementCounts {
	st := m.PlanCacheStats()
	return statementCounts{st.Hits + st.Misses, counterValue(m, "dhqp_statements_total", "select")}
}

// barrierReturns reports whether s's shard-map barrier can be taken: no
// statement of s is still open.
func barrierReturns(s *Server) bool {
	done := make(chan struct{})
	go func() {
		s.shards.Barrier()()
		close(done)
	}()
	select {
	case <-done:
		return true
	case <-time.After(5 * time.Second):
		return false
	}
}

// TestMemberCursorsCloseWithTheHead: over a 32-member elastic view, a head
// that closes after its first batch and a member that fails mid-scatter
// both leave no member statement open. Every member's barrier returns, and
// every member statement that opened published one record: a success, or
// for the failing member its failure.
func TestMemberCursorsCloseWithTheHead(t *testing.T) {
	const members = 32
	for _, dop := range []int{1, 0} {
		t.Run(fmt.Sprintf("dop=%d", dop), func(t *testing.T) {
			head, ms := lifecycleFederation(t, members)
			head.Configure(func(c *Config) { c.MaxDOP = dop })
			const scan = `SELECT o_id, amount FROM orders`
			// The failing member is server17: its key 1650 divides by zero
			// in its fourth root batch.
			const failing = `SELECT o_id, amount FROM orders WHERE amount / (o_id - 1650) >= 0`
			if n := len(q(t, head, scan).Rows); n != members*100 {
				t.Fatalf("the view holds %d rows", n)
			}
			check := func(t *testing.T, before []statementCounts, failed int) {
				t.Helper()
				opened := 0
				for i, m := range ms {
					if !barrierReturns(m) {
						t.Fatalf("member %d still holds an open statement", i+1)
					}
					now := countStatements(m)
					o, s := now.opened-before[i].opened, now.succeeded-before[i].succeeded
					want := o
					if i == failed {
						want = o - 1
					}
					if o > 1 || s != want {
						t.Errorf("member %d opened %d statements and published %d successes, want %d", i+1, o, s, want)
					}
					opened += int(o)
				}
				if opened == 0 {
					t.Error("no member statement opened")
				}
				if !barrierReturns(head) {
					t.Fatal("the head still holds an open statement")
				}
			}
			counts := func() []statementCounts {
				var out []statementCounts
				for _, m := range ms {
					out = append(out, countStatements(m))
				}
				return out
			}

			t.Run("head closes after one batch", func(t *testing.T) {
				before := counts()
				cur, err := head.OpenQuery(context.Background(), scan, nil)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := cur.Pull(); err != nil {
					t.Fatal(err)
				}
				if _, err := cur.Finish(nil); err != nil {
					t.Fatal(err)
				}
				check(t, before, -1)
			})
			t.Run("member fails mid-scatter", func(t *testing.T) {
				if _, _, _, err := head.Plan(failing); err != nil { // member metadata crosses first
					t.Fatal(err)
				}
				before := counts()
				_, err := head.Query(failing, nil)
				if err == nil || !strings.Contains(err.Error(), "server17") {
					t.Fatalf("the statement returned %v, want server17's failure", err)
				}
				check(t, before, 16)
			})
		})
	}
}
