package sqlful

import (
	"context"
	"testing"

	"dhqp/internal/netsim"
	"dhqp/internal/oledb"
	"dhqp/internal/providers/native"
	"dhqp/internal/rowset"
	"dhqp/internal/schema"
	"dhqp/internal/sqltypes"
	"dhqp/internal/storage"
)

// fakeTarget implements Target over a storage engine with a canned query
// responder.
type fakeTarget struct {
	eng       *storage.Engine
	lastSQL   string
	lastParam map[string]sqltypes.Value
	execCount int64
}

func newFakeTarget(t *testing.T) *fakeTarget {
	eng := storage.NewEngine()
	db := eng.CreateDatabase("rdb")
	tbl, err := db.CreateTable(&schema.Table{
		Catalog: "rdb", Name: "t",
		Columns: []schema.Column{
			{Name: "k", Kind: sqltypes.KindInt},
			{Name: "v", Kind: sqltypes.KindInt},
		},
		Indexes: []schema.Index{{Name: "ix_k", Columns: []int{0}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 10; i++ {
		tbl.Insert(rowset.Row{sqltypes.NewInt(i), sqltypes.NewInt(i * 2)})
	}
	return &fakeTarget{eng: eng}
}

func (f *fakeTarget) QuerySQL(_ context.Context, sql string, params map[string]sqltypes.Value) (rowset.Rowset, error) {
	f.lastSQL = sql
	f.lastParam = params
	return rowset.NewMaterialized(
		[]schema.Column{{Name: "one", Kind: sqltypes.KindInt}},
		[]rowset.Row{{sqltypes.NewInt(1)}}), nil
}

func (f *fakeTarget) ExecSQL(sql string, params map[string]sqltypes.Value) (int64, error) {
	f.lastSQL = sql
	f.execCount++
	return 1, nil
}

func (f *fakeTarget) NativeSession() (oledb.Session, error) {
	return native.New(f.eng, "rdb").CreateSession()
}

func (f *fakeTarget) DescribeSQL(sql string) ([]schema.Column, error) {
	return []schema.Column{{Name: "one", Kind: sqltypes.KindInt}}, nil
}

func TestCapabilityPresets(t *testing.T) {
	full := FullSQLCapabilities()
	if full.SQLSupport != oledb.SQLFull || !full.NestedSelects || !full.SupportsIndexes {
		t.Errorf("full caps: %+v", full)
	}
	min := MinimalSQLCapabilities()
	if min.SQLSupport != oledb.SQLMinimum || min.NestedSelects || min.SupportsIndexes {
		t.Errorf("min caps: %+v", min)
	}
	core := ODBCCoreCapabilities()
	if core.SQLSupport != oledb.SQLODBCCore || core.NestedSelects {
		t.Errorf("core caps: %+v", core)
	}
}

func TestRowsetPathsMeterTheLink(t *testing.T) {
	target := newFakeTarget(t)
	link := &netsim.Link{}
	p := New(target, link, FullSQLCapabilities())
	if err := p.Initialize(map[string]string{"DataSource": "rdb"}); err != nil {
		t.Fatal(err)
	}
	sess, err := p.CreateSession()
	if err != nil {
		t.Fatal(err)
	}
	rs, err := sess.OpenRowset("rdb.t")
	if err != nil {
		t.Fatal(err)
	}
	m, _ := rowset.ReadAll(rs)
	if m.Len() != 10 {
		t.Fatalf("rows = %d", m.Len())
	}
	if s := link.Stats(); s.Rows != 10 || s.Bytes == 0 {
		t.Errorf("link not metered: %+v", s)
	}
	// Index range path.
	link.Reset()
	rs, err = sess.OpenIndexRange("rdb.t", "ix_k",
		oledb.Bound{Key: rowset.Row{sqltypes.NewInt(3)}, Inclusive: true},
		oledb.Bound{Key: rowset.Row{sqltypes.NewInt(5)}, Inclusive: true})
	if err != nil {
		t.Fatal(err)
	}
	m, _ = rowset.ReadAll(rs)
	if m.Len() != 3 || link.Stats().Rows != 3 {
		t.Errorf("range rows = %d, link = %+v", m.Len(), link.Stats())
	}
	// Bookmarks.
	rs, err = sess.FetchByBookmarks("rdb.t", []int64{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	m, _ = rowset.ReadAll(rs)
	if m.Len() != 2 {
		t.Errorf("fetched = %d", m.Len())
	}
	// Histogram.
	if _, err := sess.ColumnHistogram("rdb.t", "k"); err != nil {
		t.Errorf("histogram: %v", err)
	}
	// Schema rowset.
	info, err := sess.TablesInfo()
	if err != nil || len(info) != 1 || info[0].Cardinality != 10 {
		t.Errorf("tables info: %v %v", info, err)
	}
}

func TestCommandShipsTextAndParams(t *testing.T) {
	target := newFakeTarget(t)
	link := &netsim.Link{}
	p := New(target, link, FullSQLCapabilities())
	sess, _ := p.CreateSession()
	cmd, err := sess.CreateCommand()
	if err != nil {
		t.Fatal(err)
	}
	cmd.SetText("SELECT 1 AS one")
	cmd.SetParam("p0", sqltypes.NewInt(42))
	rs, err := cmd.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if link.Stats().Calls != 0 {
		t.Errorf("Execute made a call of its own: %+v", link.Stats())
	}
	rowset.ReadAll(rs)
	if target.lastSQL != "SELECT 1 AS one" {
		t.Errorf("sql = %q", target.lastSQL)
	}
	if target.lastParam["p0"].Int() != 42 {
		t.Errorf("params = %v", target.lastParam)
	}
	// One round trip ships the text and its parameter and brings the
	// one-row answer back.
	want := netsim.Stats{Calls: 1, Rows: 1, Bytes: int64(len("SELECT 1 AS one") + 16 + 10)}
	if s := link.Stats(); s.Calls != want.Calls || s.Rows != want.Rows || s.Bytes != want.Bytes {
		t.Errorf("link = %+v, want %d call, %d row, %d bytes", s, want.Calls, want.Rows, want.Bytes)
	}
	n, err := cmd.ExecuteNonQuery()
	if err != nil || n != 1 || target.execCount != 1 {
		t.Errorf("non-query: %d %v", n, err)
	}
}

// The link's row count is the rows that came back: the statement a command
// ships is bytes, not a row, and DML returns none.
func TestLinkRowsAreRowsReturned(t *testing.T) {
	target := newFakeTarget(t)
	link := &netsim.Link{}
	sess, err := New(target, link, FullSQLCapabilities()).CreateSession()
	if err != nil {
		t.Fatal(err)
	}
	cmd, err := sess.CreateCommand()
	if err != nil {
		t.Fatal(err)
	}
	cmd.SetText("SELECT 1 AS one")
	for _, tc := range []struct {
		what string
		run  func() (int, error)
	}{
		{"command", func() (int, error) {
			rs, err := cmd.Execute()
			if err != nil {
				return 0, err
			}
			m, err := rowset.ReadAll(rs)
			return m.Len(), err
		}},
		{"OpenRowset", func() (int, error) {
			rs, err := sess.OpenRowset("rdb.t")
			if err != nil {
				return 0, err
			}
			m, err := rowset.ReadAll(rs)
			return m.Len(), err
		}},
		{"DML", func() (int, error) {
			_, err := cmd.ExecuteNonQuery()
			return 0, err
		}},
	} {
		link.Reset()
		n, err := tc.run()
		if err != nil {
			t.Fatalf("%s: %v", tc.what, err)
		}
		if s := link.Stats(); s.Rows != int64(n) || s.Calls != 1 {
			t.Errorf("%s: link = %+v, want %d rows in 1 call", tc.what, s, n)
		}
	}
}

func TestCapabilityGates(t *testing.T) {
	target := newFakeTarget(t)
	caps := MinimalSQLCapabilities()
	caps.SupportsSchemaRowset = false
	p := New(target, nil, caps)
	sess, _ := p.CreateSession()
	if _, err := sess.OpenIndexRange("rdb.t", "ix_k", oledb.Bound{}, oledb.Bound{}); err != oledb.ErrNotSupported {
		t.Error("index range should be gated")
	}
	if _, err := sess.FetchByBookmarks("rdb.t", nil); err != oledb.ErrNotSupported {
		t.Error("bookmarks should be gated")
	}
	if _, err := sess.ColumnHistogram("rdb.t", "k"); err != oledb.ErrNotSupported {
		t.Error("stats should be gated")
	}
	if _, err := sess.TablesInfo(); err != oledb.ErrNotSupported {
		t.Error("schema rowset should be gated")
	}
	// Minimal still supports commands.
	if _, err := sess.CreateCommand(); err != nil {
		t.Error("minimal provider should accept commands")
	}
	noCmd := caps
	noCmd.SupportsCommand = false
	p2 := New(target, nil, noCmd)
	sess2, _ := p2.CreateSession()
	if _, err := sess2.CreateCommand(); err != oledb.ErrNotSupported {
		t.Error("command should be gated")
	}
}

func TestInitializeWithoutTarget(t *testing.T) {
	p := New(nil, nil, FullSQLCapabilities())
	if err := p.Initialize(map[string]string{"DataSource": "x"}); err == nil {
		t.Error("nil target accepted")
	}
}
