// Package email implements the mail-store provider of §2.4: mailbox files
// (.mmf) exposed as streams of message rows through MakeTable. Messages are
// heterogeneous — different messages can carry different extra properties —
// so the provider also supports the row-object extension (§3.2.3) for
// per-row columns beyond the common rowset shape.
package email

import (
	"fmt"
	"io"
	"strings"
	"sync"

	"dhqp/internal/netsim"
	"dhqp/internal/oledb"
	"dhqp/internal/rowset"
	"dhqp/internal/schema"
	"dhqp/internal/sqltypes"
)

// Message is one mail message. InReplyTo zero means "not a reply" and
// surfaces as NULL.
type Message struct {
	MsgID     int64
	InReplyTo int64
	Date      sqltypes.Value // DATE
	From      string
	To        string
	Subject   string
	Body      string
	// Extra carries message-specific properties (attachments, flags...)
	// surfaced through row objects.
	Extra map[string]sqltypes.Value
}

// Columns is the common message rowset shape.
func Columns() []schema.Column {
	return []schema.Column{
		{Name: "msgid", Kind: sqltypes.KindInt},
		{Name: "inreplyto", Kind: sqltypes.KindInt, Nullable: true},
		{Name: "date", Kind: sqltypes.KindDate},
		{Name: "from", Kind: sqltypes.KindString},
		{Name: "to", Kind: sqltypes.KindString},
		{Name: "subject", Kind: sqltypes.KindString},
		{Name: "body", Kind: sqltypes.KindString},
	}
}

// TableDef describes the message shape as a schema table (binder use).
func TableDef(path string) *schema.Table {
	return &schema.Table{Name: path, Columns: Columns()}
}

// Store holds mailbox files by path.
type Store struct {
	mu    sync.RWMutex
	boxes map[string][]Message
}

// NewStore returns an empty mail store.
func NewStore() *Store { return &Store{boxes: map[string][]Message{}} }

// AddMailbox installs a mailbox file.
func (s *Store) AddMailbox(path string, msgs []Message) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.boxes[strings.ToLower(path)] = msgs
}

// Mailbox fetches a mailbox.
func (s *Store) Mailbox(path string) ([]Message, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	m, ok := s.boxes[strings.ToLower(path)]
	return m, ok
}

// Provider exposes the store through OLE DB.
type Provider struct {
	store *Store
	link  *netsim.Link
}

// NewProvider wraps a store.
func NewProvider(store *Store, link *netsim.Link) *Provider {
	return &Provider{store: store, link: link}
}

// Initialize implements oledb.DataSource.
func (p *Provider) Initialize(map[string]string) error { return nil }

// Capabilities implements oledb.DataSource (Table 1's Exchange row: its
// query language is proprietary; this stand-in exposes rowsets only, so
// the DHQP compensates all query processing locally).
func (p *Provider) Capabilities() oledb.Capabilities {
	return oledb.Capabilities{
		ProviderName:  "Microsoft.Mail",
		QueryLanguage: "SQL with hierarchical query extensions",
		SQLSupport:    oledb.SQLNone,
	}
}

// CreateSession implements oledb.DataSource.
func (p *Provider) CreateSession() (oledb.Session, error) {
	return &session{p: p}, nil
}

type session struct {
	p *Provider
}

// OpenRowset implements oledb.Session: the table name is the mailbox path
// (MakeTable(Mail, 'd:\mail\smith.mmf')).
func (s *session) OpenRowset(path string) (rowset.Rowset, error) {
	msgs, ok := s.p.store.Mailbox(path)
	if !ok {
		return nil, fmt.Errorf("email: mailbox %q not found", path)
	}
	return netsim.Metered(&messageRowset{msgs: msgs}, s.p.link), nil
}

// CreateCommand implements oledb.Session.
func (s *session) CreateCommand() (oledb.Command, error) { return nil, oledb.ErrNotSupported }

// TablesInfo implements oledb.Session.
func (s *session) TablesInfo() ([]oledb.TableInfo, error) { return nil, oledb.ErrNotSupported }

// OpenIndexRange implements oledb.Session.
func (s *session) OpenIndexRange(string, string, oledb.Bound, oledb.Bound) (rowset.Rowset, error) {
	return nil, oledb.ErrNotSupported
}

// FetchByBookmarks implements oledb.Session.
func (s *session) FetchByBookmarks(string, []int64) (rowset.Rowset, error) {
	return nil, oledb.ErrNotSupported
}

// ColumnHistogram implements oledb.Session.
func (s *session) ColumnHistogram(string, string) (rowset.Rowset, error) {
	return nil, oledb.ErrNotSupported
}

// Close implements oledb.Session.
func (s *session) Close() error { return nil }

// messageRowset streams messages; it also implements the row-object
// extension for heterogeneous per-message properties. A message's bookmark
// is its ordinal in the mailbox, the order the rowset delivers it in.
type messageRowset struct {
	msgs []Message
	pos  int // the next message to deliver
}

// Columns implements rowset.Rowset.
func (m *messageRowset) Columns() []schema.Column { return Columns() }

// NextBatch implements rowset.Rowset: the next messages, as many as fit,
// written into typed columns.
func (m *messageRowset) NextBatch(b *rowset.Batch) error {
	msgs := m.msgs[m.pos:min(len(m.msgs), m.pos+b.CapRows())]
	if len(msgs) == 0 {
		return io.EOF
	}
	m.pos += len(msgs)
	shape := Columns()
	b.Reset(len(shape))
	cols := b.Cols()
	for j, c := range shape {
		cols[j].ResetTyped(c.Kind, len(msgs))
	}
	id, reply := cols[0].Int64s(), cols[1].Int64s()
	from, to, subject, body := cols[3].Strings(), cols[4].Strings(), cols[5].Strings(), cols[6].Strings()
	for i, msg := range msgs {
		id[i], reply[i] = msg.MsgID, msg.InReplyTo
		if msg.InReplyTo == 0 {
			cols[1].SetNull(i)
		}
		cols[2].SetValue(i, msg.Date)
		from[i], to[i], subject[i], body[i] = msg.From, msg.To, msg.Subject, msg.Body
	}
	b.SetNumRows(len(msgs))
	return nil
}

// Close implements rowset.Rowset.
func (m *messageRowset) Close() error { return nil }

// at is the message at bookmark bm.
func (m *messageRowset) at(bm int64) (*Message, error) {
	if bm < 0 || bm >= int64(len(m.msgs)) {
		return nil, fmt.Errorf("email: no message at bookmark %d", bm)
	}
	return &m.msgs[bm], nil
}

// Chapter implements rowset.Chaptered (§3.2.3): the "replies" chapter of a
// message is the rowset of messages replying to it, modelling the mail
// thread hierarchy.
func (m *messageRowset) Chapter(bm int64, name string) (rowset.Rowset, error) {
	if !strings.EqualFold(name, "replies") {
		return nil, fmt.Errorf("email: unknown chapter %q", name)
	}
	parent, err := m.at(bm)
	if err != nil {
		return nil, err
	}
	var kids []Message
	for _, msg := range m.msgs {
		if msg.InReplyTo == parent.MsgID {
			kids = append(kids, msg)
		}
	}
	return &messageRowset{msgs: kids}, nil
}

// RowObject implements rowset.RowObjectProvider (§3.2.3).
func (m *messageRowset) RowObject(bm int64) (*rowset.RowObject, error) {
	msg, err := m.at(bm)
	if err != nil {
		return nil, err
	}
	b := rowset.NewBatch(1)
	(&messageRowset{msgs: []Message{*msg}}).NextBatch(b)
	return &rowset.RowObject{Common: b.RowAt(0, nil), Extra: msg.Extra}, nil
}
