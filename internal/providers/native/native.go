// Package native exposes the local storage engine through the OLE DB
// provider model — the architecture's unification trick (§2, Figure 1):
// "OLE DB is the interface used by SQL Server to access its local storage
// engine, thus the code patterns to access data from local and external
// sources are almost identical." The executor reaches local tables through
// exactly the same Session interface it uses for linked servers.
package native

import (
	"fmt"
	"strings"

	"dhqp/internal/binder"
	"dhqp/internal/expr"
	"dhqp/internal/oledb"
	"dhqp/internal/rowset"
	"dhqp/internal/schema"
	"dhqp/internal/sqltypes"
	"dhqp/internal/stats"
	"dhqp/internal/storage"
)

// Provider wraps a storage engine as an oledb.DataSource.
type Provider struct {
	eng *storage.Engine
	// DefaultCatalog resolves unqualified table names.
	defaultCatalog string
}

// New returns a provider over the storage engine. defaultCatalog resolves
// unqualified names.
func New(eng *storage.Engine, defaultCatalog string) *Provider {
	return &Provider{eng: eng, defaultCatalog: defaultCatalog}
}

// Initialize implements oledb.DataSource; the native provider needs no
// connection properties.
func (p *Provider) Initialize(props map[string]string) error {
	if ds, ok := props["DataSource"]; ok && ds != "" {
		p.defaultCatalog = ds
	}
	return nil
}

// Capabilities implements oledb.DataSource. The native storage engine is an
// index provider with statistics but no command language of its own — SQL
// lives a layer above it.
func (p *Provider) Capabilities() oledb.Capabilities {
	return oledb.Capabilities{
		ProviderName:         "Native",
		QueryLanguage:        "(rowset interfaces only)",
		SQLSupport:           oledb.SQLNone,
		SupportsCommand:      false,
		SupportsIndexes:      true,
		SupportsBookmarks:    true,
		SupportsStatistics:   true,
		SupportsSchemaRowset: true,
		SupportsTransactions: true,
	}
}

// CreateSession implements oledb.DataSource.
func (p *Provider) CreateSession() (oledb.Session, error) {
	return &Session{p: p, csn: storage.Latest}, nil
}

// Session is a native session. It also enforces CHECK constraints on DML
// performed through it.
//
// A session reads at a commit sequence number: storage.Latest by default,
// a pinned snapshot after AtSnapshot, or — while a transaction is open —
// the transaction's own snapshot. Writes inside an open transaction are
// buffered until Commit (oledb.TxnSession); outside one they autocommit.
type Session struct {
	p   *Provider
	csn uint64
	tx  *storage.Txn
}

// AtSnapshot returns a read view of the session pinned at csn: rowset,
// index-range, and bookmark-fetch opens all observe the table images as of
// that commit sequence number, regardless of later writers. The view
// shares the provider; the receiving session is unchanged.
func (s *Session) AtSnapshot(csn uint64) *Session {
	return &Session{p: s.p, csn: csn}
}

// readCSN is the commit sequence number reads observe right now.
func (s *Session) readCSN() uint64 {
	if s.tx != nil {
		return s.tx.SnapshotCSN()
	}
	return s.csn
}

// Begin implements oledb.TxnSession: subsequent Insert/Update/Delete
// calls buffer into a storage transaction, and reads observe its snapshot.
func (s *Session) Begin() error {
	if s.tx != nil {
		return fmt.Errorf("native: transaction already open")
	}
	s.tx = s.p.eng.Begin()
	return nil
}

// Prepare implements oledb.TxnSession (phase one): validates and durably
// logs the buffered work so Commit cannot fail.
func (s *Session) Prepare() error {
	if s.tx == nil {
		return fmt.Errorf("native: no open transaction")
	}
	return s.tx.Prepare()
}

// Commit implements oledb.TxnSession.
func (s *Session) Commit() error {
	if s.tx == nil {
		return fmt.Errorf("native: no open transaction")
	}
	err := s.tx.Commit()
	s.tx = nil
	return err
}

// Abort implements oledb.TxnSession.
func (s *Session) Abort() error {
	if s.tx == nil {
		return fmt.Errorf("native: no open transaction")
	}
	err := s.tx.Abort()
	s.tx = nil
	return err
}

// resolve splits "catalog.table" (or bare "table") and finds the table.
func (s *Session) resolve(name string) (*storage.Table, error) {
	catalog := s.p.defaultCatalog
	table := name
	if i := strings.IndexByte(name, '.'); i >= 0 {
		catalog = name[:i]
		table = name[i+1:]
	}
	db, ok := s.p.eng.Database(catalog)
	if !ok {
		return nil, fmt.Errorf("native: database %q not found", catalog)
	}
	t, ok := db.Table(table)
	if !ok {
		return nil, fmt.Errorf("native: table %q not found in %q", table, catalog)
	}
	return t, nil
}

// OpenRowset implements oledb.Session.
func (s *Session) OpenRowset(table string) (rowset.Rowset, error) {
	t, err := s.resolve(table)
	if err != nil {
		return nil, err
	}
	return t.ScanAt(s.readCSN()), nil
}

// CreateCommand implements oledb.Session; the bare storage engine has no
// query language.
func (s *Session) CreateCommand() (oledb.Command, error) {
	return nil, oledb.ErrNotSupported
}

// TablesInfo implements oledb.Session.
func (s *Session) TablesInfo() ([]oledb.TableInfo, error) {
	var out []oledb.TableInfo
	for _, dbName := range s.p.eng.Databases() {
		db, _ := s.p.eng.Database(dbName)
		for _, tn := range db.Tables() {
			t, _ := db.Table(tn)
			out = append(out, oledb.TableInfo{Def: t.Def(), Cardinality: int64(t.RowCount())})
		}
	}
	return out, nil
}

// OpenIndexRange implements oledb.Session (IRowsetIndex).
func (s *Session) OpenIndexRange(table, index string, lo, hi oledb.Bound) (rowset.Rowset, error) {
	t, err := s.resolve(table)
	if err != nil {
		return nil, err
	}
	ix, ok := t.Index(index)
	if !ok {
		return nil, fmt.Errorf("native: index %q not found on %q", index, table)
	}
	return ix.RangeAt(
		storage.Bound{Key: lo.Key, Inclusive: lo.Inclusive},
		storage.Bound{Key: hi.Key, Inclusive: hi.Inclusive},
		s.readCSN(),
	), nil
}

// FetchByBookmarks implements oledb.Session (IRowsetLocate).
func (s *Session) FetchByBookmarks(table string, bms []int64) (rowset.Rowset, error) {
	t, err := s.resolve(table)
	if err != nil {
		return nil, err
	}
	return t.FetchRowsAt(bms, s.readCSN())
}

// ColumnHistogram implements oledb.Session (the statistics extension,
// §3.2.4), building an equi-depth histogram over the column on demand.
func (s *Session) ColumnHistogram(table, column string) (rowset.Rowset, error) {
	t, err := s.resolve(table)
	if err != nil {
		return nil, err
	}
	ord := t.Def().ColumnIndex(column)
	if ord < 0 {
		return nil, fmt.Errorf("native: column %q not found on %q", column, table)
	}
	// Read the one column through the table's columnar image.
	vals := make([]sqltypes.Value, 0, t.RowCount())
	rs, b := t.Scan().(rowset.ProjectedBatchReader), rowset.NewBatch(rowset.MaxBatchSize)
	for rs.NextBatchProjected(b, []int{ord}) == nil {
		for _, i := range b.Indices() {
			vals = append(vals, b.Col(0).Value(i))
		}
	}
	h := stats.Build(vals, histogramBuckets)
	return h.ToRowset(), nil
}

// histogramBuckets is the resolution of the histograms ColumnHistogram
// builds.
const histogramBuckets = 64

// Close implements oledb.Session, aborting any transaction left open.
func (s *Session) Close() error {
	if s.tx != nil {
		err := s.tx.Abort()
		s.tx = nil
		return err
	}
	return nil
}

// The native session participates in DTC-coordinated transactions.
var _ oledb.TxnSession = (*Session)(nil)

// Insert validates CHECK constraints and inserts a row (used by the DML
// layer; not part of the minimal OLE DB surface).
func (s *Session) Insert(table string, r rowset.Row) (int64, error) {
	t, err := s.resolve(table)
	if err != nil {
		return 0, err
	}
	r, err = coerceRow(t.Def(), r)
	if err != nil {
		return 0, err
	}
	if err := s.enforceChecks(t.Def(), r); err != nil {
		return 0, err
	}
	if s.tx != nil {
		// Buffered: the bookmark is assigned at commit.
		return -1, s.tx.Insert(t, r)
	}
	return t.Insert(r)
}

// Delete removes a row by bookmark.
func (s *Session) Delete(table string, bm int64) error {
	t, err := s.resolve(table)
	if err != nil {
		return err
	}
	if s.tx != nil {
		return s.tx.Delete(t, bm)
	}
	return t.Delete(bm)
}

// Update replaces a row by bookmark, enforcing CHECK constraints.
func (s *Session) Update(table string, bm int64, r rowset.Row) error {
	t, err := s.resolve(table)
	if err != nil {
		return err
	}
	r, err = coerceRow(t.Def(), r)
	if err != nil {
		return err
	}
	if err := s.enforceChecks(t.Def(), r); err != nil {
		return err
	}
	if s.tx != nil {
		return s.tx.Update(t, bm, r)
	}
	return t.Update(bm, r)
}

// coerceRow converts row values to the table's column kinds so CHECK
// predicates compare typed values (a date literal arrives as a string).
func coerceRow(def *schema.Table, r rowset.Row) (rowset.Row, error) {
	out := r
	for i, c := range def.Columns {
		if i >= len(r) || r[i].IsNull() || r[i].Kind() == c.Kind {
			continue
		}
		v, err := sqltypes.Coerce(r[i], c.Kind)
		if err != nil {
			return nil, fmt.Errorf("native: %s.%s: %w", def.Name, c.Name, err)
		}
		if &out[0] == &r[0] {
			out = r.Clone()
		}
		out[i] = v
	}
	return out, nil
}

func (s *Session) enforceChecks(def *schema.Table, r rowset.Row) error {
	if len(def.Checks) == 0 {
		return nil
	}
	checks, err := binder.CheckPredicate(def)
	if err != nil {
		return fmt.Errorf("native: parsing CHECK on %s: %w", def.Name, err)
	}
	for _, c := range checks {
		bad, err := expr.FirstRejected(c.Pred, []rowset.Row{r})
		if err != nil {
			return err
		}
		if bad >= 0 {
			return fmt.Errorf("native: CHECK constraint violated on %s: %s", def.Name, c.Text)
		}
	}
	return nil
}
