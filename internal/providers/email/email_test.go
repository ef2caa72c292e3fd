package email

import (
	"io"
	"testing"

	"dhqp/internal/oledb"
	"dhqp/internal/rowset"
	"dhqp/internal/sqltypes"
)

func sampleStore() *Store {
	s := NewStore()
	s.AddMailbox(`d:\mail\smith.mmf`, []Message{
		{MsgID: 1, Date: sqltypes.NewDate(2004, 6, 14), From: "a@x", To: "me", Subject: "s1", Body: "b1",
			Extra: map[string]sqltypes.Value{"attachment": sqltypes.NewString("report.doc")}},
		{MsgID: 2, InReplyTo: 1, Date: sqltypes.NewDate(2004, 6, 15), From: "me", To: "a@x", Subject: "re: s1", Body: "b2"},
	})
	return s
}

func TestOpenRowsetShape(t *testing.T) {
	p := NewProvider(sampleStore(), nil)
	sess, err := p.CreateSession()
	if err != nil {
		t.Fatal(err)
	}
	rs, err := sess.OpenRowset(`d:\mail\smith.mmf`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Columns()) != 7 {
		t.Errorf("columns = %d", len(rs.Columns()))
	}
	m, err := rowset.ReadAll(rs)
	if err != nil || m.Len() != 2 {
		t.Fatalf("rows = %v, %v", m, err)
	}
	r0 := m.Rows()[0]
	if r0[0].Int() != 1 || !r0[1].IsNull() {
		t.Errorf("row0 = %v (InReplyTo 0 should be NULL)", r0)
	}
	r1 := m.Rows()[1]
	if r1[1].Int() != 1 {
		t.Errorf("row1 inreplyto = %v", r1[1])
	}
	// Case-insensitive path lookup.
	if _, err := sess.OpenRowset(`D:\MAIL\SMITH.MMF`); err != nil {
		t.Errorf("case-insensitive lookup failed: %v", err)
	}
	if _, err := sess.OpenRowset("missing.mmf"); err == nil {
		t.Error("missing mailbox opened")
	}
}

func TestCapabilitiesAndUnsupported(t *testing.T) {
	p := NewProvider(sampleStore(), nil)
	caps := p.Capabilities()
	if caps.SupportsCommand || caps.SQLSupport != oledb.SQLNone {
		t.Errorf("caps = %+v", caps)
	}
	sess, _ := p.CreateSession()
	if _, err := sess.CreateCommand(); err != oledb.ErrNotSupported {
		t.Error("command should be unsupported")
	}
	if _, err := sess.OpenIndexRange("x", "i", oledb.Bound{}, oledb.Bound{}); err != oledb.ErrNotSupported {
		t.Error("index range should be unsupported")
	}
	if _, err := sess.FetchByBookmarks("x", nil); err != oledb.ErrNotSupported {
		t.Error("bookmarks should be unsupported")
	}
	if _, err := sess.ColumnHistogram("x", "c"); err != oledb.ErrNotSupported {
		t.Error("stats should be unsupported")
	}
}

// TestRowObject exercises the heterogeneous-data extension (§3.2.3):
// per-message properties beyond the common columns.
func TestRowObject(t *testing.T) {
	p := NewProvider(sampleStore(), nil)
	sess, _ := p.CreateSession()
	rs, _ := sess.OpenRowset(`d:\mail\smith.mmf`)
	// Unwrap the metered rowset if present; with a nil link the raw rowset
	// comes back directly.
	rop, ok := rs.(rowset.RowObjectProvider)
	if !ok {
		t.Fatalf("message rowset does not expose row objects: %T", rs)
	}
	if _, err := rop.RowObject(-1); err == nil {
		t.Error("row object before the first row accepted")
	}
	b := rowset.NewBatch(1)
	if err := rs.NextBatch(b); err != nil {
		t.Fatal(err)
	}
	ro, err := rop.RowObject(0)
	if err != nil {
		t.Fatal(err)
	}
	v, ok := ro.Get("attachment")
	if !ok || v.Str() != "report.doc" {
		t.Errorf("extra prop = %v, %v", v, ok)
	}
	if len(ro.Common) != 7 {
		t.Errorf("common row = %v", ro.Common)
	}
	// Second message has no extras.
	rs.NextBatch(b)
	ro2, _ := rop.RowObject(1)
	if _, ok := ro2.Get("attachment"); ok {
		t.Error("extra leaked across rows")
	}
	if err := rs.NextBatch(b); err != io.EOF {
		t.Errorf("want EOF, got %v", err)
	}
	if _, err := rop.RowObject(2); err == nil {
		t.Error("row object past the last row accepted")
	}
}

func TestTableDef(t *testing.T) {
	def := TableDef("p")
	if def.Name != "p" || len(def.Columns) != 7 {
		t.Errorf("def = %+v", def)
	}
	if def.Columns[1].Name != "inreplyto" || !def.Columns[1].Nullable {
		t.Error("inreplyto should be nullable")
	}
}

// TestChapteredReplies exercises §3.2.3's hierarchical navigation: the
// "replies" chapter of a message contains the messages replying to it.
func TestChapteredReplies(t *testing.T) {
	store := NewStore()
	store.AddMailbox("t.mmf", []Message{
		{MsgID: 1, Date: sqltypes.NewDate(2004, 1, 1), From: "a", Subject: "root"},
		{MsgID: 2, InReplyTo: 1, Date: sqltypes.NewDate(2004, 1, 2), From: "b", Subject: "re 1"},
		{MsgID: 3, InReplyTo: 1, Date: sqltypes.NewDate(2004, 1, 3), From: "c", Subject: "re 2"},
		{MsgID: 4, InReplyTo: 2, Date: sqltypes.NewDate(2004, 1, 4), From: "a", Subject: "re re"},
	})
	sess, _ := NewProvider(store, nil).CreateSession()
	rs, _ := sess.OpenRowset("t.mmf")
	ch, ok := rs.(rowset.Chaptered)
	if !ok {
		t.Fatalf("message rowset is not chaptered: %T", rs)
	}
	if _, err := ch.Chapter(-1, "replies"); err == nil {
		t.Error("chapter before first row accepted")
	}
	replies, err := ch.Chapter(0, "replies") // message 1
	if err != nil {
		t.Fatal(err)
	}
	m, _ := rowset.ReadAll(replies)
	if m.Len() != 2 {
		t.Fatalf("message 1 has %d replies", m.Len())
	}
	// Nested chapters: replies of message 2.
	replies, _ = ch.Chapter(1, "replies") // message 2
	m, _ = rowset.ReadAll(replies)
	if m.Len() != 1 || m.Rows()[0][0].Int() != 4 {
		t.Errorf("message 2 replies = %v", m.Rows())
	}
	if _, err := ch.Chapter(0, "attachments"); err == nil {
		t.Error("unknown chapter accepted")
	}
}
