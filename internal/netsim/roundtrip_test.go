package netsim_test

import (
	"context"
	"io"
	"testing"

	"dhqp/internal/netsim"
	"dhqp/internal/oledb"
	"dhqp/internal/providers/email"
	"dhqp/internal/providers/fulltext"
	"dhqp/internal/providers/native"
	"dhqp/internal/providers/simplep"
	"dhqp/internal/providers/sqlful"
	"dhqp/internal/rowset"
	"dhqp/internal/schema"
	"dhqp/internal/sqltypes"
	"dhqp/internal/storage"
)

var oneInt = []schema.Column{{Name: "k", Kind: sqltypes.KindInt}}

func intRows(n int) []rowset.Row {
	rows := make([]rowset.Row, n)
	for i := range rows {
		rows[i] = rowset.Row{sqltypes.NewInt(int64(i))}
	}
	return rows
}

// rowsTarget is a SQL engine whose every statement answers n rows and whose
// storage holds a table t of n rows.
type rowsTarget struct {
	n   int
	eng *storage.Engine
}

func newRowsTarget(t *testing.T, n int) *rowsTarget {
	eng := storage.NewEngine()
	tbl, err := eng.CreateDatabase("rdb").CreateTable(&schema.Table{Catalog: "rdb", Name: "t", Columns: oneInt})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range intRows(n) {
		if _, err := tbl.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	return &rowsTarget{n: n, eng: eng}
}

func (r *rowsTarget) QuerySQL(context.Context, string, map[string]sqltypes.Value) (rowset.Rowset, error) {
	return rowset.NewMaterialized(oneInt, intRows(r.n)), nil
}
func (r *rowsTarget) ExecSQL(string, map[string]sqltypes.Value) (int64, error) { return 0, nil }
func (r *rowsTarget) NativeSession() (oledb.Session, error) {
	return native.New(r.eng, "rdb").CreateSession()
}
func (r *rowsTarget) DescribeSQL(string) ([]schema.Column, error) { return oneInt, nil }

func session(t *testing.T, ds oledb.DataSource) oledb.Session {
	t.Helper()
	if err := ds.Initialize(map[string]string{"DataSource": "cat"}); err != nil {
		t.Fatal(err)
	}
	sess, err := ds.CreateSession()
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

func command(t *testing.T, sess oledb.Session, text string) rowset.Rowset {
	t.Helper()
	cmd, err := sess.CreateCommand()
	if err != nil {
		t.Fatal(err)
	}
	cmd.SetText(text)
	rs, err := cmd.Execute()
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

func openRowset(t *testing.T, sess oledb.Session, name string) rowset.Rowset {
	t.Helper()
	rs, err := sess.OpenRowset(name)
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

// Every provider pays the round trip that opens a remote rowset, and one
// more per further fetch: n rows read in fetches of f rows cost
// max(1, ⌈n / f⌉) calls, so an empty result costs one.
func TestEveryProviderPaysItsFirstRoundTrip(t *testing.T) {
	const fetch = 4
	providers := []struct {
		name string
		open func(t *testing.T, n int, link *netsim.Link) rowset.Rowset
	}{
		{"sqlful command", func(t *testing.T, n int, link *netsim.Link) rowset.Rowset {
			return command(t, session(t, sqlful.New(newRowsTarget(t, n), link, sqlful.FullSQLCapabilities())), "SELECT k FROM t")
		}},
		{"sqlful OpenRowset", func(t *testing.T, n int, link *netsim.Link) rowset.Rowset {
			return openRowset(t, session(t, sqlful.New(newRowsTarget(t, n), link, sqlful.FullSQLCapabilities())), "rdb.t")
		}},
		{"simplep", func(t *testing.T, n int, link *netsim.Link) rowset.Rowset {
			p := simplep.New(link)
			if err := p.AddTable(&schema.Table{Name: "t", Columns: oneInt}, intRows(n)); err != nil {
				t.Fatal(err)
			}
			return openRowset(t, session(t, p), "t")
		}},
		{"email", func(t *testing.T, n int, link *netsim.Link) rowset.Rowset {
			store := email.NewStore()
			msgs := make([]email.Message, n)
			for i := range msgs {
				msgs[i] = email.Message{MsgID: int64(i + 1), Date: sqltypes.NewDate(2005, 4, 5), Subject: "s"}
			}
			store.AddMailbox("box.mmf", msgs)
			return openRowset(t, session(t, email.NewProvider(store, link)), "box.mmf")
		}},
		{"fulltext", func(t *testing.T, n int, link *netsim.Link) rowset.Rowset {
			svc := fulltext.NewService()
			cat := svc.CreateCatalog("cat")
			for i := 0; i < n; i++ {
				cat.AddText(int64(i), "alpha", nil)
			}
			cat.AddText(int64(n), "omega", nil)
			return command(t, session(t, fulltext.NewProvider(svc, link)), "CONTAINSTABLE cat :: alpha")
		}},
	}
	for _, p := range providers {
		for _, n := range []int{0, 1, fetch, fetch + 1, 3*fetch + 2} {
			link := &netsim.Link{}
			rs := p.open(t, n, link)
			b := rowset.NewBatch(fetch)
			got := 0
			for {
				err := rs.NextBatch(b)
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatalf("%s n=%d: %v", p.name, n, err)
				}
				got += b.Len()
			}
			rs.Close()
			want := max(1, (n+fetch-1)/fetch)
			if s := link.Stats(); got != n || s.Calls != int64(want) || s.Rows != int64(n) {
				t.Errorf("%s n=%d: read %d rows in %d calls carrying %d rows, want %d in %d calls", p.name, n, got, s.Calls, s.Rows, n, want)
			}
		}
	}
}
