// Package sqlful implements the OLE DB provider for SQL-capable linked
// servers (the paper's "SQL provider" and "index provider" categories,
// §3.3): the target is a full query engine reached across a simulated
// network link. The same provider with reduced capability sets models
// lesser dialects — SQL-92-full "SQL Server", ODBC-Core sources and
// SQL-Minimum "Access"-class sources differ only in the Capabilities they
// report, which is exactly how the DHQP distinguishes them.
package sqlful

import (
	"context"
	"fmt"

	"dhqp/internal/expr"
	"dhqp/internal/netsim"
	"dhqp/internal/oledb"
	"dhqp/internal/rowset"
	"dhqp/internal/schema"
	"dhqp/internal/sqltypes"
)

// Target is the remote engine behind the provider; the engine package
// implements it (each simulated server instance is a Target for its peers).
type Target interface {
	// QuerySQL opens a SELECT under the caller's context and returns it as
	// an open cursor: each NextBatch runs the statement as far as one fetch
	// needs, and Close ends it, so a consumer that stops reading stops the
	// statement. In-process federation passes the remote call's context,
	// so cancellation crosses the boundary and a member nests its
	// statement span, which lasts until Close, under the coordinator's
	// remote-call span.
	QuerySQL(ctx context.Context, sql string, params map[string]sqltypes.Value) (rowset.Rowset, error)
	// ExecSQL executes DML and returns the affected row count.
	ExecSQL(sql string, params map[string]sqltypes.Value) (int64, error)
	// NativeSession exposes the target's storage through the base rowset
	// interfaces (scan, index range, bookmarks, histograms, schema).
	NativeSession() (oledb.Session, error)
	// DescribeSQL reports a statement's output columns without executing
	// it (OPENQUERY pass-through binding).
	DescribeSQL(sql string) ([]schema.Column, error)
}

// Provider is a query-capable linked-server provider.
type Provider struct {
	target Target
	link   *netsim.Link
	caps   oledb.Capabilities
}

// FullSQLCapabilities returns the capability set of a SQL-92-full peer
// ("SQLOLEDB" reaching another SQL Server).
func FullSQLCapabilities() oledb.Capabilities {
	return oledb.Capabilities{
		ProviderName:         "SQLOLEDB",
		QueryLanguage:        "Transact-SQL",
		SQLSupport:           oledb.SQLFull,
		SupportsCommand:      true,
		SupportsIndexes:      true,
		SupportsBookmarks:    true,
		SupportsStatistics:   true,
		SupportsSchemaRowset: true,
		SupportsTransactions: true,
		NestedSelects:        true,
		QuoteChar:            "[",
		DateFormat:           "'2006-01-02'",
		Profile:              expr.FullRemotable(),
	}
}

// MinimalSQLCapabilities returns the capability set of a SQL-Minimum
// source (the paper's Access-class provider): single-table selects only,
// no nested selects, no server-side indexes or statistics exposed.
func MinimalSQLCapabilities() oledb.Capabilities {
	return oledb.Capabilities{
		ProviderName:         "Microsoft.Jet.OLEDB",
		QueryLanguage:        "SQL (minimum)",
		SQLSupport:           oledb.SQLMinimum,
		SupportsCommand:      true,
		SupportsIndexes:      false,
		SupportsBookmarks:    false,
		SupportsStatistics:   false,
		SupportsSchemaRowset: true,
		SupportsTransactions: false,
		NestedSelects:        false,
		QuoteChar:            "",
		DateFormat:           "'2006-01-02'",
		Profile:              expr.RemotableProfile{Params: true},
	}
}

// ODBCCoreCapabilities returns an intermediate dialect: joins and ORDER BY
// but no GROUP BY pushdown and no nested selects.
func ODBCCoreCapabilities() oledb.Capabilities {
	caps := FullSQLCapabilities()
	caps.ProviderName = "MSDASQL"
	caps.QueryLanguage = "ODBC SQL (core)"
	caps.SQLSupport = oledb.SQLODBCCore
	caps.NestedSelects = false
	caps.SupportsStatistics = false
	return caps
}

// New wires a provider to its target across a link.
func New(target Target, link *netsim.Link, caps oledb.Capabilities) *Provider {
	return &Provider{target: target, link: link, caps: caps}
}

// Initialize implements oledb.DataSource.
func (p *Provider) Initialize(props map[string]string) error {
	if p.target == nil {
		return fmt.Errorf("sqlful: no target configured for data source %q", props["DataSource"])
	}
	return nil
}

// Capabilities implements oledb.DataSource.
func (p *Provider) Capabilities() oledb.Capabilities { return p.caps }

// CreateSession implements oledb.DataSource.
func (p *Provider) CreateSession() (oledb.Session, error) {
	native, err := p.target.NativeSession()
	if err != nil {
		return nil, err
	}
	return &session{p: p, native: native}, nil
}

type session struct {
	p      *Provider
	native oledb.Session
	// ctx is the execution context remote transfers honor; nil for the
	// base (cached) session. Set via WithContext per statement execution.
	ctx context.Context
}

// WithContext implements oledb.ContextSession: the returned view shares the
// connection but binds transfers to ctx.
func (s *session) WithContext(ctx context.Context) oledb.Session {
	return &session{p: s.p, native: s.native, ctx: ctx}
}

// callCtx is the context the session's link calls run under.
func (s *session) callCtx() context.Context {
	if s.ctx != nil {
		return s.ctx
	}
	return context.Background()
}

// meter charges a native rowset's fetches to the link; every rowset the
// native provider opens reads by batches.
func (s *session) meter(rs rowset.Rowset, err error) (rowset.Rowset, error) {
	if err != nil {
		return nil, err
	}
	return netsim.MeteredCtx(s.callCtx(), rs, s.p.link, 0), nil
}

// OpenRowset implements oledb.Session; rows ship across the link.
func (s *session) OpenRowset(table string) (rowset.Rowset, error) {
	return s.meter(s.native.OpenRowset(table))
}

// CreateCommand implements oledb.Session.
func (s *session) CreateCommand() (oledb.Command, error) {
	if !s.p.caps.SupportsCommand {
		return nil, oledb.ErrNotSupported
	}
	return &command{s: s, params: map[string]sqltypes.Value{}}, nil
}

// TablesInfo implements oledb.Session; metadata crosses the link too (one
// call).
func (s *session) TablesInfo() ([]oledb.TableInfo, error) {
	if !s.p.caps.SupportsSchemaRowset {
		return nil, oledb.ErrNotSupported
	}
	info, err := s.native.TablesInfo()
	if err != nil {
		return nil, err
	}
	if err := s.p.link.Call(s.callCtx(), len(info), len(info)*64); err != nil {
		return nil, err
	}
	return info, nil
}

// OpenIndexRange implements oledb.Session (index provider category).
func (s *session) OpenIndexRange(table, index string, lo, hi oledb.Bound) (rowset.Rowset, error) {
	if !s.p.caps.SupportsIndexes {
		return nil, oledb.ErrNotSupported
	}
	return s.meter(s.native.OpenIndexRange(table, index, lo, hi))
}

// FetchByBookmarks implements oledb.Session.
func (s *session) FetchByBookmarks(table string, bms []int64) (rowset.Rowset, error) {
	if !s.p.caps.SupportsBookmarks {
		return nil, oledb.ErrNotSupported
	}
	return s.meter(s.native.FetchByBookmarks(table, bms))
}

// ColumnHistogram implements oledb.Session (§3.2.4: remote sources pass
// statistical information including histograms into the optimizer).
func (s *session) ColumnHistogram(table, column string) (rowset.Rowset, error) {
	if !s.p.caps.SupportsStatistics {
		return nil, oledb.ErrNotSupported
	}
	return s.meter(s.native.ColumnHistogram(table, column))
}

// Close implements oledb.Session.
func (s *session) Close() error { return s.native.Close() }

// command ships SQL text (decoded by the DHQP for this dialect) to the
// target engine.
type command struct {
	s      *session
	text   string
	params map[string]sqltypes.Value
}

// SetText implements oledb.Command.
func (c *command) SetText(text string) { c.text = text }

// SetParam implements oledb.Command.
func (c *command) SetParam(name string, v sqltypes.Value) { c.params[name] = v }

// requestBytes is what shipping the statement costs on the wire: its text
// and 16 bytes per parameter.
func (c *command) requestBytes() int { return len(c.text) + len(c.params)*16 }

// Execute implements oledb.Command: the statement opens remotely as a
// cursor and its result rows cross back a fetch at a time, each fetch
// running the remote statement only as far as it needs. The statement and
// parameters ride the round trip that brings the first fetch back, so a
// result that fits one fetch costs one call.
func (c *command) Execute() (rowset.Rowset, error) {
	cur, err := c.s.p.target.QuerySQL(c.s.callCtx(), c.text, c.params)
	if err != nil {
		return nil, fmt.Errorf("sqlful: remote execution failed: %w", err)
	}
	return netsim.MeteredCtx(c.s.callCtx(), cur, c.s.p.link, c.requestBytes()), nil
}

// Describe reports the statement's output shape without executing it.
func (c *command) Describe() ([]schema.Column, error) {
	return c.s.p.target.DescribeSQL(c.text)
}

// ExecuteNonQuery implements oledb.Command: one round trip ships the
// statement and brings its affected-row count back; no rows cross.
func (c *command) ExecuteNonQuery() (int64, error) {
	if err := c.s.p.link.Call(c.s.callCtx(), 0, c.requestBytes()); err != nil {
		return 0, fmt.Errorf("sqlful: remote statement: %w", err)
	}
	return c.s.p.target.ExecSQL(c.text, c.params)
}
