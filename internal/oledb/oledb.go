// Package oledb defines the provider model at the heart of the paper: the
// Data Source → Session → Command → Rowset object hierarchy (Figure 3), the
// capability properties a provider exposes (DBPROP_SQLSUPPORT and friends),
// schema rowsets, ISAM index navigation, bookmark-based row location and the
// statistics extension.
//
// The DHQP sees every data source — the local storage engine included —
// through these interfaces only, which is the paper's central architectural
// property: "the code patterns to access data from local and external
// sources are almost identical" (§2).
package oledb

import (
	"context"
	"errors"
	"fmt"

	"dhqp/internal/expr"
	"dhqp/internal/rowset"
	"dhqp/internal/schema"
	"dhqp/internal/sqltypes"
)

// ErrNotSupported is returned by optional interfaces a provider does not
// implement; the DHQP compensates locally when it sees it (§3.3: "DHQP
// provides all of the querying functionality on top of this base provider").
var ErrNotSupported = errors.New("oledb: interface not supported by provider")

// SQLSupport is the DBPROP_SQLSUPPORT capability level (§3.3).
type SQLSupport int

// SQL support levels, ordered by capability.
const (
	// SQLNone marks providers with no command language (simple providers).
	SQLNone SQLSupport = iota
	// SQLMinimum supports single-table SELECT with simple predicates.
	SQLMinimum
	// SQLODBCCore adds joins and ORDER BY.
	SQLODBCCore
	// SQLEntry is SQL-92 entry level: adds GROUP BY and aggregates.
	SQLEntry
	// SQLFull is SQL-92 full: nested selects, everything the decoder emits.
	SQLFull
	// SQLProprietary marks query providers with a non-SQL language
	// (full-text, MDX, LDAP); only pass-through OpenQuery reaches them.
	SQLProprietary
)

// String names the level as the paper does.
func (s SQLSupport) String() string {
	switch s {
	case SQLNone:
		return "None"
	case SQLMinimum:
		return "SQL Minimum"
	case SQLODBCCore:
		return "ODBC Core"
	case SQLEntry:
		return "SQL-92 Entry"
	case SQLFull:
		return "SQL-92 Full"
	case SQLProprietary:
		return "Proprietary"
	default:
		return fmt.Sprintf("SQLSupport(%d)", int(s))
	}
}

// Capabilities is the property set a data source exposes at initialization;
// the optimizer's remote rules and the decoder consult it (the paper's
// DBPROP_* properties plus SQL Server's extension properties, §4.1.3).
type Capabilities struct {
	// ProviderName identifies the provider implementation (Table 1's
	// "Product" column).
	ProviderName string
	// QueryLanguage names the provider's command language (Table 1).
	QueryLanguage string
	// SQLSupport is the DBPROP_SQLSUPPORT level.
	SQLSupport SQLSupport

	// SupportsCommand: the session implements CreateCommand (ICommand).
	SupportsCommand bool
	// SupportsIndexes: OpenIndexRange works (IRowsetIndex).
	SupportsIndexes bool
	// SupportsBookmarks: FetchByBookmarks works (IRowsetLocate).
	SupportsBookmarks bool
	// SupportsStatistics: histogram/cardinality rowsets are available
	// (§3.2.4 statistics extension).
	SupportsStatistics bool
	// SupportsSchemaRowset: TablesInfo metadata is available
	// (IDBSchemaRowset).
	SupportsSchemaRowset bool
	// SupportsTransactions: the session participates in atomic commit.
	SupportsTransactions bool

	// NestedSelects is one of SQL Server's OLE DB extension properties:
	// whether the dialect accepts derived tables / subqueries (§4.1.3).
	NestedSelects bool
	// QuoteChar is the identifier quoting character ("" disables quoting).
	QuoteChar string
	// DateFormat is the Go time layout for date literals, wrapped in the
	// dialect's delimiters, e.g. "'2006-01-02'" or "{d '2006-01-02'}".
	DateFormat string
	// Profile gates which scalar constructs the decoder may remote.
	Profile expr.RemotableProfile
}

// DataSource is the paper's DSO: connect-and-introspect entry point.
// CoCreateInstance is played by provider registry factories; IDBProperties +
// IDBInitialize collapse into Initialize.
type DataSource interface {
	// Initialize establishes the connection using linked-server properties.
	Initialize(props map[string]string) error
	// Capabilities reports the provider's property set (IDBProperties /
	// IDBInfo reads).
	Capabilities() Capabilities
	// CreateSession returns a new session (IDBCreateSession).
	CreateSession() (Session, error)
}

// Session is the transactional scope object. OpenRowset is the mandatory
// base interface; everything else is an optional extension that returns
// ErrNotSupported when absent.
type Session interface {
	// OpenRowset opens a rowset over a named table (IOpenRowset).
	OpenRowset(table string) (rowset.Rowset, error)
	// CreateCommand returns a command object (IDBCreateCommand); only
	// query-capable providers support it.
	CreateCommand() (Command, error)
	// TablesInfo returns table metadata including cardinality (the
	// TABLES_INFO schema rowset).
	TablesInfo() ([]TableInfo, error)
	// OpenIndexRange opens a rowset over an index restricted to a key
	// range (IRowsetIndex seek/set-range). Rows come back in index order;
	// a provider that supports bookmarks reads each row's as the ordinal
	// one past the table's last column.
	OpenIndexRange(table, index string, lo, hi Bound) (rowset.Rowset, error)
	// FetchByBookmarks materializes base-table rows for bookmarks
	// (IRowsetLocate).
	FetchByBookmarks(table string, bms []int64) (rowset.Rowset, error)
	// ColumnHistogram returns the histogram rowset for a column (the
	// statistics extension of IOpenRowset, §3.2.4).
	ColumnHistogram(table, column string) (rowset.Rowset, error)
	// Close releases the session.
	Close() error
}

// Command is the query object (ICommand): set text, bind parameters,
// execute. The text's language is provider-defined (Table 1).
type Command interface {
	// SetText sets the command text.
	SetText(text string)
	// SetParam binds @name to a value.
	SetParam(name string, v sqltypes.Value)
	// Execute runs the command and returns its rowset.
	Execute() (rowset.Rowset, error)
	// ExecuteNonQuery runs DML and returns the affected row count.
	ExecuteNonQuery() (int64, error)
}

// ContextSession is implemented by sessions whose remote calls honor a
// per-execution context: the DHQP binds each statement's deadline and
// cancellation to the session view it uses for that execution, so an
// in-flight simulated transfer can be aborted instead of slept out. The
// returned Session shares the underlying connection; only the context
// differs (sessions are cached per linked server and shared across
// statements, so the context cannot live on the cached session itself).
type ContextSession interface {
	Session
	// WithContext returns a view of the session bound to ctx.
	WithContext(ctx context.Context) Session
}

// TxnSession is implemented by sessions that participate in distributed
// transactions coordinated by the DTC (§2).
type TxnSession interface {
	Session
	// Begin starts a local transaction scope.
	Begin() error
	// Prepare votes in phase one of two-phase commit.
	Prepare() error
	// Commit applies the prepared work.
	Commit() error
	// Abort rolls back.
	Abort() error
}

// Bound is one end of an index key range; nil Key means unbounded.
type Bound struct {
	Key       rowset.Row
	Inclusive bool
}

// TableInfo is one row of the TABLES_INFO schema rowset.
type TableInfo struct {
	Def *schema.Table
	// Cardinality is the provider-reported row count (§3.2.4).
	Cardinality int64
}

// InterfaceSupport describes which object-model interfaces a provider
// exposes; benchrunner prints this as the paper's Table 2.
type InterfaceSupport struct {
	Interface string
	Mandatory bool
	Supported bool
	Purpose   string
}

// InterfaceMatrix derives the Table 2 rows from a capability set. The
// mandatory interfaces are supported by construction in this model (a
// provider that cannot connect or open rowsets cannot be registered).
func InterfaceMatrix(c Capabilities) []InterfaceSupport {
	return []InterfaceSupport{
		{"IDBInitialize", true, true, "Initialize and set up connection and security context"},
		{"IDBCreateSession", true, true, "Create a DB session object"},
		{"IDBProperties", true, true, "Get information about the capabilities of the provider"},
		{"IDBInfo", false, true, "Get quoting literal, catalog, name part separator, and so on"},
		{"IDBSchemaRowset", false, c.SupportsSchemaRowset, "Get metadata about tables, indexes and columns"},
		{"IOpenRowset", true, true, "Open a rowset on a table, index or histogram"},
		{"IDBCreateCommand", false, c.SupportsCommand, "Create a command object (query) for providers that support querying"},
		{"IRowsetIndex", false, c.SupportsIndexes, "Seek or set a range on an index"},
		{"IRowsetLocate", false, c.SupportsBookmarks, "Locate base table rows from bookmarks"},
	}
}

// ProviderFactory instantiates a data source (the CoCreateInstance step of
// Figure 3). Registered factories are looked up by provider name when a
// linked server is added.
type ProviderFactory func() DataSource

// Registry maps provider names to factories.
type Registry struct {
	factories map[string]ProviderFactory
}

// NewRegistry returns an empty provider registry.
func NewRegistry() *Registry {
	return &Registry{factories: map[string]ProviderFactory{}}
}

// Register adds a provider factory under a name (e.g. "SQLOLEDB").
func (r *Registry) Register(name string, f ProviderFactory) {
	r.factories[name] = f
}

// Create instantiates and initializes a data source for a linked server.
func (r *Registry) Create(ls schema.LinkedServer) (DataSource, error) {
	f, ok := r.factories[ls.ProviderName]
	if !ok {
		return nil, fmt.Errorf("oledb: no provider registered as %q", ls.ProviderName)
	}
	ds := f()
	props := map[string]string{"DataSource": ls.DataSource}
	for k, v := range ls.Options {
		props[k] = v
	}
	if err := ds.Initialize(props); err != nil {
		return nil, fmt.Errorf("oledb: initializing %s for linked server %s: %w", ls.ProviderName, ls.Name, err)
	}
	return ds, nil
}

// Names lists registered provider names (sorted order not guaranteed).
func (r *Registry) Names() []string {
	out := make([]string, 0, len(r.factories))
	for n := range r.factories {
		out = append(out, n)
	}
	return out
}
