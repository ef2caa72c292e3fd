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
	return netsim.Metered(&messageRowset{msgs: msgs, pos: -1}, s.p.link), nil
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
// extension for heterogeneous per-message properties.
type messageRowset struct {
	msgs []Message
	pos  int
}

// Columns implements rowset.Rowset.
func (m *messageRowset) Columns() []schema.Column { return Columns() }

// Next implements rowset.Rowset.
func (m *messageRowset) Next() (rowset.Row, error) {
	if m.pos+1 >= len(m.msgs) {
		return nil, errEOF
	}
	m.pos++
	msg := m.msgs[m.pos]
	reply := sqltypes.Null
	if msg.InReplyTo != 0 {
		reply = sqltypes.NewInt(msg.InReplyTo)
	}
	return rowset.Row{
		sqltypes.NewInt(msg.MsgID),
		reply,
		msg.Date,
		sqltypes.NewString(msg.From),
		sqltypes.NewString(msg.To),
		sqltypes.NewString(msg.Subject),
		sqltypes.NewString(msg.Body),
	}, nil
}

// NextBatch implements rowset.BatchReader: the next messages, as many as
// fit.
func (m *messageRowset) NextBatch(b *rowset.Batch) error { return rowset.PullBatch(m, b, nil) }

// Close implements rowset.Rowset.
func (m *messageRowset) Close() error { return nil }

// Chapter implements rowset.Chaptered (§3.2.3): the "replies" chapter of a
// message is the rowset of messages replying to it, modelling the mail
// thread hierarchy.
func (m *messageRowset) Chapter(name string) (rowset.Rowset, error) {
	if !strings.EqualFold(name, "replies") {
		return nil, fmt.Errorf("email: unknown chapter %q", name)
	}
	if m.pos < 0 || m.pos >= len(m.msgs) {
		return nil, fmt.Errorf("email: no current row")
	}
	parent := m.msgs[m.pos].MsgID
	var kids []Message
	for _, msg := range m.msgs {
		if msg.InReplyTo == parent {
			kids = append(kids, msg)
		}
	}
	return &messageRowset{msgs: kids, pos: -1}, nil
}

// RowObject implements rowset.RowObjectProvider (§3.2.3).
func (m *messageRowset) RowObject() (*rowset.RowObject, error) {
	if m.pos < 0 || m.pos >= len(m.msgs) {
		return nil, fmt.Errorf("email: no current row")
	}
	common, _ := (&messageRowset{msgs: m.msgs, pos: m.pos - 1}).Next()
	return &rowset.RowObject{Common: common, Extra: m.msgs[m.pos].Extra}, nil
}

var errEOF = io.EOF
