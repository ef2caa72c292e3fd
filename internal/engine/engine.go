// Package engine assembles the complete system of Figure 1: the relational
// engine (parser → algebrizer → Cascades optimizer → executor), the local
// storage engine behind the native OLE DB provider, the linked-server
// catalog, the distributed/heterogeneous query processor with its remote
// rules, the full-text search service integration, the mail provider, and
// DTC-coordinated distributed DML.
//
// A Server is one simulated SQL Server instance. Federations are built by
// instantiating several Servers and linking them with simulated network
// links; every instance is simultaneously a DHQP consumer and (through the
// sqlful provider) a linked-server target for its peers.
package engine

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dhqp/internal/algebra"
	"dhqp/internal/circuit"
	"dhqp/internal/cost"
	"dhqp/internal/exec"
	"dhqp/internal/lru"
	"dhqp/internal/metrics"
	"dhqp/internal/netsim"
	"dhqp/internal/oledb"
	"dhqp/internal/opt"
	"dhqp/internal/providers/email"
	"dhqp/internal/providers/fulltext"
	"dhqp/internal/providers/native"
	"dhqp/internal/rowset"
	"dhqp/internal/schema"
	"dhqp/internal/shardmap"
	"dhqp/internal/sqltypes"
	"dhqp/internal/storage"
	"dhqp/internal/telemetry"
)

// Server is one engine instance.
type Server struct {
	mu        sync.Mutex
	name      string
	store     *storage.Engine
	defaultDB string

	nativeProv *native.Provider
	nativeSess oledb.Session

	linked map[string]*linkedServer
	views  map[string]string // lower name -> SELECT text

	ftService *fulltext.Service
	ftLink    *netsim.Link
	ftIndexes map[string]string // "catalog.table.column" -> ft catalog name

	mailStore *email.Store

	// shards owns the elastic shard maps and the statement gate pinning
	// every statement to one map version (see internal/shardmap); elasticSeq
	// numbers generated member tables.
	shards     *shardmap.Manager
	elasticSeq int

	// extraSessions holds ad-hoc provider sessions (OPENROWSET, MakeTable
	// over registered providers) keyed by synthetic server names.
	extraSessions map[string]oledb.Session
	extraCaps     map[string]oledb.Capabilities
	adhocSeq      int

	// providerFactories backs EXEC sp_addlinkedserver.
	providerFactories map[string]func(datasource string) (oledb.DataSource, *netsim.Link, error)

	meter *netsim.Meter

	// cfg is the current Config, swapped whole by Configure; statements
	// load it once.
	cfg atomic.Pointer[Config]
	// breakers holds one circuit breaker per linked server, created lazily
	// with the configured threshold/cooldown.
	breakers map[string]*circuit.Breaker

	histCache map[string]cachedHistogram
	cardCache map[string]float64

	// planCache memoizes compiled plans by statement text; parameters bind
	// at execution, so cached plans serve any parameter values. DDL and
	// linked-server changes invalidate it; an entry of another Config
	// planning generation is a miss. The cache is a capped LRU —
	// ad-hoc statement traffic from network clients would otherwise grow it
	// without bound — sized by SetPlanCacheCapacity.
	planCache *lru.Cache[string, *cachedPlan]
	// planCacheHits/Misses/Evictions count cache outcomes (PlanCacheStats);
	// evictions are guarded by mu.
	planCacheHits      atomic.Int64
	planCacheMisses    atomic.Int64
	planCacheEvictions int64

	// queryStats is the dm_exec_query_stats-style registry.
	queryStats *telemetry.Registry

	// metricsReg is the server-wide metrics registry (Metrics());
	// allInstruments holds every engine/storage instrument and mx is the
	// active pointer the hot paths load — nil when metric recording is
	// disabled (SetMetricsEnabled).
	metricsReg     *metrics.Registry
	allInstruments *engineInstruments
	mx             atomic.Pointer[engineInstruments]

	// slowMu serializes slow-query log lines (Config.SlowQueryThreshold).
	slowMu sync.Mutex

	lastReport *opt.Report
}

// cachedPlan is a compiled SELECT (plan, cols) or UPDATE or DELETE (write).
// A SELECT's entry that reads few rows (keeps) also keeps the operator
// trees of its finished executions (kept, under mu), so a plan that runs
// again builds nothing; the trees go with the entry when it is evicted or
// replaced.
type cachedPlan struct {
	plan  *algebra.Node
	cols  []schema.Column
	write *writePlan
	gen   uint64 // Config.planGen it was compiled under
	keeps bool   // the plan's trees are kept (keepsTrees)

	mu   sync.Mutex
	kept []*exec.Run
}

type linkedServer struct {
	name    string
	ds      oledb.DataSource
	caps    oledb.Capabilities
	link    *netsim.Link
	session oledb.Session
	// tables caches the remote schema (TablesInfo); DelayedValidation
	// controls when mismatches surface.
	tables map[string]*oledb.TableInfo
	// changed counts the rows the head's writes changed in each of those
	// tables since the fetch, and stale is set once a table's count passes
	// the auto-update threshold against the cardinality fetched: the next
	// compile that costs a table of this server fetches the catalog again.
	changed map[string]int64
	stale   bool
}

// NewServer creates an engine instance with one (default) database.
func NewServer(name, defaultDB string) *Server {
	store := storage.NewEngine()
	store.CreateDatabase(defaultDB)
	s := &Server{
		name:              name,
		store:             store,
		defaultDB:         defaultDB,
		nativeProv:        native.New(store, defaultDB),
		linked:            map[string]*linkedServer{},
		views:             map[string]string{},
		ftService:         fulltext.NewService(),
		ftIndexes:         map[string]string{},
		mailStore:         email.NewStore(),
		shards:            shardmap.NewManager(),
		extraSessions:     map[string]oledb.Session{},
		extraCaps:         map[string]oledb.Capabilities{},
		providerFactories: map[string]func(string) (oledb.DataSource, *netsim.Link, error){},
		meter:             netsim.NewMeter(),
		histCache:         map[string]cachedHistogram{},
		cardCache:         map[string]float64{},
		planCache:         lru.New[string, *cachedPlan](DefaultPlanCacheCapacity),
		queryStats:        telemetry.NewRegistry(),
		breakers:          map[string]*circuit.Breaker{},
	}
	cfg := defaultConfig()
	s.cfg.Store(&cfg)
	s.metricsReg = metrics.NewRegistry()
	s.allInstruments = buildInstruments(s.metricsReg)
	s.SetMetricsEnabled(true)
	// The search service runs on the same machine: cheap, but still a
	// service boundary (Figure 2).
	s.ftLink = &netsim.Link{LatencyPerCall: 100 * time.Microsecond, BytesPerSecond: 1e9}
	s.meter.Register(ftServerName, s.ftLink)
	sess, _ := s.nativeProv.CreateSession()
	s.nativeSess = sess
	return s
}

// DefaultPlanCacheCapacity bounds the compiled-plan cache: large enough
// that a steady application workload never evicts, small enough that a
// flood of distinct ad-hoc statements cannot grow memory without bound.
const DefaultPlanCacheCapacity = 256

// PlanCacheStats is a snapshot of the plan cache's occupancy and outcome
// counters since server start (Server.PlanCacheStats).
type PlanCacheStats struct {
	Capacity  int
	Size      int
	Hits      int64
	Misses    int64
	Evictions int64
}

// SetPlanCacheCapacity resizes the compiled-plan cache, evicting least-
// recently-used plans if it shrinks below its occupancy. n < 1 restores
// DefaultPlanCacheCapacity. Safe to call concurrently with Query.
func (s *Server) SetPlanCacheCapacity(n int) {
	if n < 1 {
		n = DefaultPlanCacheCapacity
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.planCacheEvictions += int64(s.planCache.Resize(n))
}

// PlanCacheStats snapshots the plan cache counters: hits and misses of
// Query's cache probe, and evictions forced by the capacity bound. A
// non-zero eviction count under a fixed workload means the cache is
// undersized for the statement population.
func (s *Server) PlanCacheStats() PlanCacheStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return PlanCacheStats{
		Capacity:  s.planCache.Cap(),
		Size:      s.planCache.Len(),
		Hits:      s.planCacheHits.Load(),
		Misses:    s.planCacheMisses.Load(),
		Evictions: s.planCacheEvictions,
	}
}

// SetQueryStatsCapacity bounds how many distinct statements the query-stats
// registry aggregates before evicting least-recently-executed rows; see
// telemetry.Registry. n < 1 restores the registry default.
func (s *Server) SetQueryStatsCapacity(n int) {
	s.queryStats.SetCapacity(n)
}

// QueryStatsEvicted reports how many aggregate rows the registry has
// evicted under its capacity bound — non-zero means QueryStats() is a
// partial view of the statement population.
func (s *Server) QueryStatsEvicted() int64 {
	return s.queryStats.Evicted()
}

// Name returns the server name.
func (s *Server) Name() string { return s.name }

// Store exposes the local storage engine (tests, data loaders).
func (s *Server) Store() *storage.Engine { return s.store }

// Meter exposes the per-linked-server traffic meter.
func (s *Server) Meter() *netsim.Meter { return s.meter }

// FulltextService exposes the search service (corpus loading).
func (s *Server) FulltextService() *fulltext.Service { return s.ftService }

// MailStore exposes the mail store (mailbox loading).
func (s *Server) MailStore() *email.Store { return s.mailStore }

// LastReport returns the optimizer report of the most recent Query/Plan.
func (s *Server) LastReport() *opt.Report {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastReport
}

// QueryStats snapshots the server's aggregate per-statement statistics —
// the reproduction's sys.dm_exec_query_stats: one row per cached plan
// (statement text), aggregating execution count, rows, elapsed time, link
// traffic and retries across executions.
func (s *Server) QueryStats() []telemetry.QueryStatRow {
	return s.queryStats.Rows()
}

// ResetQueryStats clears the aggregate statistics registry.
func (s *Server) ResetQueryStats() {
	s.queryStats.Reset()
}

// SetDurability sets the local storage engine's commit durability:
// DurabilityFull (log + fsync per commit, the default), DurabilityAsync
// (log without fsync), or DurabilityOff (memory only). It only matters
// while a WAL is attached (SetWALDir); read per write, so flipping it
// takes effect on the next statement.
func (s *Server) SetDurability(d storage.Durability) {
	s.store.SetDurability(d)
}

// Durability reports the configured commit durability level.
func (s *Server) Durability() storage.Durability {
	return s.store.Durability()
}

// SetWALDir attaches a write-ahead log at dir/wal.log, recovering any
// durable state the log holds (committed transactions replay; torn tails
// are discarded; prepared-but-unresolved distributed transactions surface
// in RecoveryInfo.InDoubt and hold their row locks until ResolveInDoubt).
// If the engine already has tables and the log is empty, the current
// image is checkpointed into it. An empty dir detaches the log (the
// engine keeps running in memory only) and returns nil info.
func (s *Server) SetWALDir(dir string) (*storage.RecoveryInfo, error) {
	if dir == "" {
		return nil, s.store.DetachWAL()
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	b, err := storage.OpenFileBackend(filepath.Join(dir, "wal.log"))
	if err != nil {
		return nil, err
	}
	info, err := s.store.AttachWAL(b)
	if err != nil {
		b.Close()
		return nil, err
	}
	// Recovery may have created catalog objects and loaded rows.
	s.invalidatePlans()
	s.invalidateLocal()
	return info, nil
}

// InDoubt lists prepared-but-unresolved distributed transactions restored
// by WAL recovery; their row locks block writers until resolved.
func (s *Server) InDoubt() []uint64 { return s.store.InDoubt() }

// ResolveInDoubt commits or aborts a recovered in-doubt transaction (the
// operator-facing outcome report the DTC would otherwise deliver).
func (s *Server) ResolveInDoubt(id uint64, commit bool) error {
	if err := s.store.ResolveInDoubt(id, commit); err != nil {
		return err
	}
	s.invalidateLocal()
	return nil
}

// breakerFor returns (creating on demand) the server's circuit breaker.
// The executor calls it once per remote operation.
func (s *Server) breakerFor(server string) *circuit.Breaker {
	if server == "" {
		return nil
	}
	key := strings.ToLower(server)
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.breakers[key]
	if !ok {
		cfg := s.cfg.Load()
		b = circuit.New(server, cfg.BreakerThreshold, cfg.BreakerCooldown)
		s.breakers[key] = b
	}
	return b
}

// BreakerState reports a linked server's breaker state (Closed if the
// server has never failed — the breaker is created on first use).
func (s *Server) BreakerState(server string) circuit.State {
	b := s.breakerFor(server)
	if b == nil {
		return circuit.Closed
	}
	return b.State()
}

// AddLinkedServer registers a linked server over an initialized data
// source (the programmatic equivalent of sp_addlinkedserver; §2.1).
func (s *Server) AddLinkedServer(name string, ds oledb.DataSource, link *netsim.Link) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := strings.ToLower(name)
	if _, ok := s.linked[key]; ok {
		return fmt.Errorf("engine: linked server %q already exists", name)
	}
	s.linked[key] = &linkedServer{name: name, ds: ds, caps: ds.Capabilities(), link: link}
	s.planCache.Clear()
	if link != nil {
		s.meter.Register(name, link)
	}
	return nil
}

// RegisterProviderFactory installs a provider factory for
// EXEC sp_addlinkedserver 'name', 'provider', 'datasource'.
func (s *Server) RegisterProviderFactory(provider string, f func(datasource string) (oledb.DataSource, *netsim.Link, error)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.providerFactories[strings.ToLower(provider)] = f
}

// LinkedCaps reports a linked server's capability set.
func (s *Server) LinkedCaps(name string) (oledb.Capabilities, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	l, ok := s.linked[strings.ToLower(name)]
	if !ok {
		return oledb.Capabilities{}, false
	}
	return l.caps, true
}

// LinkedServers lists linked server names.
func (s *Server) LinkedServers() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.linked))
	for _, l := range s.linked {
		out = append(out, l.name)
	}
	return out
}

// linkedFor fetches a linked server entry.
func (s *Server) linkedFor(name string) (*linkedServer, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	l, ok := s.linked[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("engine: linked server %q not found", name)
	}
	return l, nil
}

// sessionOf returns (creating on demand) the linked server's session.
func (s *Server) sessionOf(l *linkedServer) (oledb.Session, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if l.session == nil {
		sess, err := l.ds.CreateSession()
		if err != nil {
			return nil, err
		}
		l.session = sess
	}
	return l.session, nil
}

// remoteTables returns (fetching and caching on first use) the linked
// server's table catalog. With DelayedSchemaValidation the fetch happens on
// first *use* rather than at link time (§4.1.5's delayed schema validation).
func (s *Server) remoteTables(l *linkedServer) (map[string]*oledb.TableInfo, error) {
	s.mu.Lock()
	cached := l.tables
	s.mu.Unlock()
	if cached != nil {
		return cached, nil
	}
	sess, err := s.sessionOf(l)
	if err != nil {
		return nil, err
	}
	infos, err := sess.TablesInfo()
	if err != nil {
		return nil, fmt.Errorf("engine: fetching schema from %s: %w", l.name, err)
	}
	m := map[string]*oledb.TableInfo{}
	for i := range infos {
		ti := infos[i]
		key := strings.ToLower(ti.Def.Catalog + "." + ti.Def.Name)
		m[key] = &ti
		// Also index by bare name for single-catalog targets.
		m[strings.ToLower(ti.Def.Name)] = &ti
	}
	s.mu.Lock()
	l.tables, l.changed, l.stale = m, nil, false
	s.mu.Unlock()
	return m, nil
}

// InvalidateRemoteSchema drops the cached remote schema so the next use
// re-validates (delayed schema validation hook).
func (s *Server) InvalidateRemoteSchema(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if l, ok := s.linked[strings.ToLower(name)]; ok {
		l.tables = nil
		l.session = nil
	}
	s.dropStatsLocked(name)
}

// CreateFullTextIndex builds a full-text catalog over a local table column
// (§2.3): every row's text indexes under its bookmark so (KEY, RANK)
// results join back to the base table by row identity.
func (s *Server) CreateFullTextIndex(catalogName, table, column string) error {
	db, ok := s.store.Database(s.defaultDB)
	if !ok {
		return fmt.Errorf("engine: database %s missing", s.defaultDB)
	}
	t, ok := db.Table(table)
	if !ok {
		return fmt.Errorf("engine: table %q not found", table)
	}
	ord := t.Def().ColumnIndex(column)
	if ord < 0 {
		return fmt.Errorf("engine: column %q not found on %q", column, table)
	}
	cat := s.ftService.CreateCatalog(catalogName)
	sc := t.Scan()
	defer sc.Close()
	// The text column and the bookmark, the ordinal past the last column.
	proj, b := []int{ord, len(t.Def().Columns)}, rowset.NewBatch(0)
	for {
		err := sc.(rowset.ProjectedBatchReader).NextBatchProjected(b, proj)
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		text, bms := b.Col(0), b.Col(1).Int64s()
		if text.Kind() != sqltypes.KindString {
			continue
		}
		for _, i := range b.Indices() {
			if text.Valid(i) {
				cat.AddText(bms[i], text.Strings()[i], nil)
			}
		}
	}
	s.mu.Lock()
	s.ftIndexes[strings.ToLower(s.defaultDB+"."+table+"."+column)] = catalogName
	s.mu.Unlock()
	return nil
}

// RefreshFullTextIndex rebuilds a catalog over its source table — the
// "index creation and maintenance" half of §2.3's full-text support.
func (s *Server) RefreshFullTextIndex(catalogName string) error {
	s.mu.Lock()
	var table, column string
	for key, cat := range s.ftIndexes {
		if strings.EqualFold(cat, catalogName) {
			parts := strings.SplitN(key, ".", 3)
			if len(parts) == 3 {
				table, column = parts[1], parts[2]
			}
		}
	}
	s.mu.Unlock()
	if table == "" {
		return fmt.Errorf("engine: no full-text index registered for catalog %q", catalogName)
	}
	// Rebuild: replace the catalog's contents.
	s.ftService.CreateCatalog(catalogName) // ensure it exists
	s.ftService.DropCatalog(catalogName)
	return s.CreateFullTextIndex(catalogName, table, column)
}

// costModel builds the per-server cost model over registered links.
func (s *Server) costModel() *cost.Model {
	return &cost.Model{LinkFor: func(server string) *netsim.Link {
		switch {
		case server == "":
			return nil
		case server == ftServerName:
			return s.ftLink
		default:
			s.mu.Lock()
			defer s.mu.Unlock()
			if l, ok := s.linked[strings.ToLower(server)]; ok {
				return l.link
			}
			return nil
		}
	}}
}

// Synthetic server names for in-process services.
const (
	ftServerName   = "#fulltext"
	mailServerName = "#mail"
)

// ftProviderOf returns a provider over the server's search service.
func ftProviderOf(s *Server) *fulltext.Provider {
	return fulltext.NewProvider(s.ftService, s.ftLink)
}

// mailSessionOf returns a session over the server's mail store.
func mailSessionOf(s *Server) (oledb.Session, error) {
	return email.NewProvider(s.mailStore, nil).CreateSession()
}
