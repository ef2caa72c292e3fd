// Package dhqp is the public facade of the distributed/heterogeneous query
// processing library — a from-scratch Go reproduction of the architecture
// described in "Distributed/Heterogeneous Query Processing in Microsoft SQL
// Server" (Blakeley, Cunningham, Ellis, Rathakrishnan, Wu; ICDE 2005).
//
// A Server is one SQL engine instance with a local storage engine, a
// cost-based Cascades optimizer with distributed-query rules, and an OLE
// DB-style provider model for reaching heterogeneous data sources. Servers
// link to each other (and to full-text, mail, and simple rowset providers)
// over simulated network links, forming federations:
//
//	local := dhqp.NewServer("local", "appdb")
//	remote := dhqp.NewServer("remote", "salesdb")
//	local.AddLinkedServer("remote0", dhqp.SQLProvider(remote, dhqp.LAN()), nil)
//	res, err := local.Query(`SELECT * FROM remote0.salesdb.dbo.customer`, nil)
package dhqp

import (
	"dhqp/internal/engine"
	"dhqp/internal/netsim"
	"dhqp/internal/oledb"
	"dhqp/internal/providers/email"
	"dhqp/internal/providers/fulltext"
	"dhqp/internal/providers/simplep"
	"dhqp/internal/providers/sqlful"
	"dhqp/internal/schema"
	"dhqp/internal/server"
	"dhqp/internal/shardmap"
	"dhqp/internal/sqltypes"
	"dhqp/internal/telemetry"
)

// Server is one engine instance; see engine.Server for the full API.
type Server = engine.Server

// Result is a query result set.
type Result = engine.Result

// Value is a SQL value.
type Value = sqltypes.Value

// Link simulates one network connection.
type Link = netsim.Link

// Faults is a deterministic, seedable fault plan for a Link — transient
// error rates, fail-after-N, fail-forever, jitter. Install with
// Link.SetFaults; the matching tolerance knobs are the RemoteRetries,
// RetryBackoff, Breaker*, PartialResults and QueryTimeout fields of the
// server's Config (Server.Configure).
type Faults = netsim.Faults

// Message is a mail message for the mail provider.
type Message = email.Message

// Column describes one column of a table or elastic view.
type Column = schema.Column

// ShardPlacement names where one elastic-view shard lives and the key
// range it owns; see Server.CreateElasticView / AddShard / SplitShard /
// RebalanceShard / RemoveShard.
type ShardPlacement = engine.ShardPlacement

// ShardMemberInfo is one row of Server.ShardMapInfo (and of the
// sys.dm_shard_map DMV).
type ShardMemberInfo = engine.ShardMemberInfo

// Unbounded shard-range sentinels for ShardPlacement.Lo / .Hi.
const (
	NoLowerBound = shardmap.NoLowerBound
	NoUpperBound = shardmap.NoUpperBound
)

// Column kinds for Column definitions.
const (
	KindInt    = sqltypes.KindInt
	KindFloat  = sqltypes.KindFloat
	KindString = sqltypes.KindString
	KindBool   = sqltypes.KindBool
	KindDate   = sqltypes.KindDate
)

// Capabilities is an OLE DB provider capability set.
type Capabilities = oledb.Capabilities

// Explain is Server.ExplainAnalyze's report: the physical plan annotated
// with estimated vs. actual rows per operator, pipeline phase spans, decoded
// remote statements, and per-linked-server network metrics.
type Explain = telemetry.Explain

// QueryStats summarizes one statement execution (Result.Stats).
type QueryStats = telemetry.QueryStats

// QueryStatRow is one Server.QueryStats() registry row — aggregate
// statistics per cached plan, like sys.dm_exec_query_stats.
type QueryStatRow = telemetry.QueryStatRow

// LinkStats is one linked server's network accounting for one execution.
type LinkStats = telemetry.LinkStats

// NewServer creates an engine instance with one default database.
func NewServer(name, defaultDB string) *Server { return engine.NewServer(name, defaultDB) }

// TCPServer is the network serving layer: sessions over a length-prefixed
// frame protocol, admission control, KILL, graceful drain.
type TCPServer = server.Server

// ServeOptions tunes the serving layer (concurrent-query slots, queue
// depth, timeouts); the zero value picks every default.
type ServeOptions = server.Options

// Client is one session against a Serve endpoint.
type Client = server.Client

// ServerInfo is a point-in-time serving-layer occupancy snapshot.
type ServerInfo = server.ServerInfo

// Serve wraps an engine in a TCP serving layer; call Listen on the result
// to bind an address and start accepting sessions.
func Serve(s *Server, opt ServeOptions) *TCPServer { return server.New(s, opt) }

// Dial opens a client session against a serving endpoint.
func Dial(addr string) (*Client, error) { return server.Dial(addr) }

// IsBusy reports whether an error is the serving layer's typed
// admission-control rejection (retryable load shedding).
func IsBusy(err error) bool { return server.IsBusy(err) }

// IsKilled reports whether a statement died to a peer session's KILL.
func IsKilled(err error) bool { return server.IsKilled(err) }

// LAN returns a local-network link (1 ms per call, ~100 MB/s).
func LAN() *Link { return netsim.LAN() }

// WAN returns a wide-area link (40 ms per call, ~2 MB/s).
func WAN() *Link { return netsim.WAN() }

// SQLProvider wraps a Server as a SQL-92-full linked-server target reached
// over link — the "SQLOLEDB" provider of the paper's Figure 1.
func SQLProvider(target *Server, link *Link) oledb.DataSource {
	return sqlful.New(target, link, sqlful.FullSQLCapabilities())
}

// SQLProviderWithCaps wraps a Server with an explicit capability set
// (dialect-level experiments: SQL-Minimum "Access"-class targets, ODBC-core
// targets).
func SQLProviderWithCaps(target *Server, link *Link, caps Capabilities) oledb.DataSource {
	return sqlful.New(target, link, caps)
}

// FullSQLCapabilities is the SQL-92-full capability set.
func FullSQLCapabilities() Capabilities { return sqlful.FullSQLCapabilities() }

// MinimalSQLCapabilities is the SQL-Minimum (Access-class) capability set.
func MinimalSQLCapabilities() Capabilities { return sqlful.MinimalSQLCapabilities() }

// ODBCCoreCapabilities is the intermediate ODBC-core capability set.
func ODBCCoreCapabilities() Capabilities { return sqlful.ODBCCoreCapabilities() }

// SimpleProvider returns an empty simple (rowset-only) provider; load
// tables with LoadCSV/AddTable and register it as a linked server.
func SimpleProvider(link *Link) *simplep.Provider { return simplep.New(link) }

// FulltextProvider exposes a server's search service as a linked server
// (the "MSIDXS" provider).
func FulltextProvider(s *Server, link *Link) oledb.DataSource {
	return fulltext.NewProvider(s.FulltextService(), link)
}

// Int, Float, Str, Bool, Date build SQL values for query parameters.
func Int(v int64) Value { return sqltypes.NewInt(v) }

// Float builds a FLOAT value.
func Float(v float64) Value { return sqltypes.NewFloat(v) }

// Str builds a VARCHAR value.
func Str(v string) Value { return sqltypes.NewString(v) }

// Bool builds a BIT value.
func Bool(v bool) Value { return sqltypes.NewBool(v) }

// Date builds a DATE value from 'YYYY-MM-DD' text; it panics on bad input
// (literals in code are programmer-controlled).
func Date(s string) Value {
	v, err := sqltypes.ParseDate(s)
	if err != nil {
		panic(err)
	}
	return v
}

// StaticProviderFactory adapts a fixed data source into the factory shape
// RegisterProviderFactory expects (ad-hoc providers whose state lives
// outside the engine).
func StaticProviderFactory(ds oledb.DataSource) func(string) (oledb.DataSource, *Link, error) {
	return func(string) (oledb.DataSource, *Link, error) { return ds, nil, nil }
}

// Params builds a parameter map.
func Params(kv ...any) map[string]Value {
	if len(kv)%2 != 0 {
		panic("dhqp: Params takes name/value pairs")
	}
	out := map[string]Value{}
	for i := 0; i < len(kv); i += 2 {
		name := kv[i].(string)
		out[name] = kv[i+1].(Value)
	}
	return out
}
