package engine

import (
	"fmt"
	"strings"

	"dhqp/internal/algebra"
	"dhqp/internal/binder"
	"dhqp/internal/constraint"
	"dhqp/internal/expr"
	"dhqp/internal/oledb"
	"dhqp/internal/providers/email"
	"dhqp/internal/providers/fulltext"
	"dhqp/internal/rowset"
	"dhqp/internal/schema"
	"dhqp/internal/sqltypes"
	"dhqp/internal/stats"
	"dhqp/internal/storage"
)

// catalog implements binder.Catalog over the server's local store, views,
// linked servers and ad-hoc providers.
type catalog struct {
	s *Server
}

// ResolveObject implements binder.Catalog.
func (c *catalog) ResolveObject(parts []string) (*binder.Resolved, error) {
	s := c.s
	if len(parts) == 4 {
		// server.catalog.schema.object — a linked-server table (§2.1).
		l, err := s.linkedFor(parts[0])
		if err != nil {
			return nil, err
		}
		tables, err := s.remoteTables(l)
		if err != nil {
			return nil, err
		}
		key := strings.ToLower(parts[1] + "." + parts[3])
		ti, ok := tables[key]
		if !ok {
			ti, ok = tables[strings.ToLower(parts[3])]
		}
		if !ok {
			return nil, fmt.Errorf("engine: table %s not found on linked server %s", parts[3], parts[0])
		}
		return &binder.Resolved{Source: &algebra.Source{
			Server:  l.name,
			Catalog: parts[1],
			Schema:  parts[2],
			Table:   ti.Def.Name,
			Def:     s.overlayMemberDef(l.name, ti.Def),
		}}, nil
	}
	// Local: [catalog.][schema.]object. Views take priority; elastic views
	// resolve to view text synthesized from the current shard map, so a
	// topology change re-binds without any CREATE VIEW.
	object := parts[len(parts)-1]
	if text, ok := s.viewTextFor(object); ok {
		return &binder.Resolved{ViewText: text}, nil
	}
	catalogName := s.defaultDB
	if len(parts) == 3 {
		catalogName = parts[0]
	} else if len(parts) == 2 {
		// Two-part names are schema.object; schema is decorative here, but
		// accept catalog.object too.
		if _, ok := s.store.Database(parts[0]); ok {
			catalogName = parts[0]
		}
	}
	db, ok := s.store.Database(catalogName)
	if !ok {
		return nil, fmt.Errorf("engine: database %q not found", catalogName)
	}
	t, ok := db.Table(object)
	if !ok {
		return nil, fmt.Errorf("engine: table or view %q not found in %q", object, catalogName)
	}
	return &binder.Resolved{Source: &algebra.Source{
		Catalog: catalogName,
		Schema:  "dbo",
		Table:   t.Def().Name,
		Def:     s.overlayMemberDef("", t.Def()),
	}}, nil
}

// overlayMemberDef swaps the CHECK constraints of an elastic member table
// for the range the current shard map assigns it. The physical table def is
// never mutated — a clone carries the synthesized check — and every consumer
// of Checks (startup-filter pruning, DML routing, insert validation) now
// reasons from the live topology instead of CREATE-time DDL.
func (s *Server) overlayMemberDef(server string, def *schema.Table) *schema.Table {
	check, ok := s.shards.CheckFor(server, def.Name)
	if !ok {
		return def
	}
	clone := *def
	if check == "" {
		clone.Checks = nil
	} else {
		clone.Checks = []string{check}
	}
	return &clone
}

// PassThroughSource implements binder.Catalog for OPENQUERY(server, text).
func (c *catalog) PassThroughSource(server, query string) (*algebra.Source, error) {
	s := c.s
	l, err := s.linkedFor(server)
	if err != nil {
		return nil, err
	}
	sess, err := s.sessionOf(l)
	if err != nil {
		return nil, err
	}
	cmd, err := sess.CreateCommand()
	if err != nil {
		return nil, fmt.Errorf("engine: OPENQUERY target %s does not support commands: %w", server, err)
	}
	cmd.SetText(query)
	describer, ok := cmd.(interface {
		Describe() ([]schema.Column, error)
	})
	if !ok {
		return nil, fmt.Errorf("engine: provider for %s cannot describe pass-through results", server)
	}
	cols, err := describer.Describe()
	if err != nil {
		return nil, err
	}
	return &algebra.Source{
		Kind:   algebra.SourcePassThrough,
		Server: l.name,
		Table:  "openquery",
		Query:  query,
		Def:    &schema.Table{Name: "openquery", Columns: cols},
	}, nil
}

// AdHocSource implements binder.Catalog for OPENROWSET (§2.2's ad-hoc
// connection). MSIDXS connects to the local search service; other provider
// names resolve through registered factories.
func (c *catalog) AdHocSource(provider, datasource, query string) (*algebra.Source, error) {
	s := c.s
	var ds oledb.DataSource
	switch strings.ToLower(provider) {
	case "msidxs":
		ds = fulltext.NewProvider(s.ftService, s.ftLink)
	default:
		s.mu.Lock()
		f, ok := s.providerFactories[strings.ToLower(provider)]
		s.mu.Unlock()
		if !ok {
			return nil, fmt.Errorf("engine: no OLE DB provider registered as %q", provider)
		}
		var err error
		ds, _, err = f(datasource)
		if err != nil {
			return nil, err
		}
	}
	if err := ds.Initialize(map[string]string{"DataSource": datasource}); err != nil {
		return nil, err
	}
	sess, err := ds.CreateSession()
	if err != nil {
		return nil, err
	}
	cmd, err := sess.CreateCommand()
	if err != nil {
		return nil, fmt.Errorf("engine: ad-hoc provider %q does not support commands: %w", provider, err)
	}
	cmd.SetText(query)
	describer, ok := cmd.(interface {
		Describe() ([]schema.Column, error)
	})
	if !ok {
		return nil, fmt.Errorf("engine: ad-hoc provider %q cannot describe results", provider)
	}
	cols, err := describer.Describe()
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.adhocSeq++
	key := fmt.Sprintf("#adhoc%d", s.adhocSeq)
	s.extraSessions[key] = sess
	s.extraCaps[key] = ds.Capabilities()
	s.mu.Unlock()
	return &algebra.Source{
		Kind:   algebra.SourcePassThrough,
		Server: key,
		Table:  "openrowset",
		Query:  query,
		Def:    &schema.Table{Name: "openrowset", Columns: cols},
	}, nil
}

// MakeTableSource implements binder.Catalog for §2.4's MakeTable TVF.
func (c *catalog) MakeTableSource(provider, path, table string) (*algebra.Source, error) {
	s := c.s
	if strings.EqualFold(provider, "Mail") {
		if _, ok := s.mailStore.Mailbox(path); !ok {
			return nil, fmt.Errorf("engine: mailbox %q not found", path)
		}
		return &algebra.Source{
			Kind:   algebra.SourceMailTVF,
			Server: mailServerName,
			Path:   path,
			Table:  "messages",
			Def:    email.TableDef(path),
		}, nil
	}
	// Other providers (e.g. Access) resolve through registered factories;
	// the datasource is the file path and the table names the rowset.
	s.mu.Lock()
	f, ok := s.providerFactories[strings.ToLower(provider)]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("engine: no MakeTable provider registered as %q", provider)
	}
	ds, link, err := f(path)
	if err != nil {
		return nil, err
	}
	if err := ds.Initialize(map[string]string{"DataSource": path}); err != nil {
		return nil, err
	}
	sess, err := ds.CreateSession()
	if err != nil {
		return nil, err
	}
	infos, err := sess.TablesInfo()
	if err != nil {
		return nil, fmt.Errorf("engine: MakeTable(%s, %s): %w", provider, path, err)
	}
	var def *schema.Table
	for _, ti := range infos {
		if strings.EqualFold(ti.Def.Name, table) {
			def = ti.Def
			break
		}
	}
	if def == nil {
		return nil, fmt.Errorf("engine: table %q not found in %s", table, path)
	}
	key := fmt.Sprintf("#mt:%s:%s", strings.ToLower(provider), strings.ToLower(path))
	s.mu.Lock()
	s.extraSessions[key] = sess
	s.extraCaps[key] = ds.Capabilities()
	if link != nil {
		s.meter.Register(key, link)
	}
	s.mu.Unlock()
	return &algebra.Source{
		Kind:    algebra.SourceBaseTable,
		Server:  key,
		Catalog: def.Catalog,
		Table:   def.Name,
		Def:     def,
	}, nil
}

// metadata implements memo.Metadata over the catalog: local statistics come
// from the native provider, remote statistics from the linked servers'
// histogram rowsets (§3.2.4) when enabled.
type metadata struct {
	s *Server
	// remoteStats is the statement's Config.UseRemoteStatistics.
	remoteStats bool
	// colSources maps each bound ColumnID to its table source and column
	// name (built per statement from the bound tree).
	colSources map[expr.ColumnID]colSource
}

type colSource struct {
	src  *algebra.Source
	name string
	kind sqltypes.Kind
}

// newMetadata walks a bound tree recording column provenance.
func (s *Server) newMetadata(root *algebra.Node, remoteStats bool) *metadata {
	md := &metadata{s: s, remoteStats: remoteStats, colSources: map[expr.ColumnID]colSource{}}
	var walk func(n *algebra.Node)
	walk = func(n *algebra.Node) {
		if g, ok := n.Op.(*algebra.Get); ok && g.Src.Kind == algebra.SourceBaseTable {
			for _, c := range g.Cols {
				// By name, not position: pruning can leave a non-prefix
				// subset of the table's columns on the scan.
				if g.Src.Def != nil && g.Src.Def.ColumnIndex(c.Name) >= 0 {
					md.colSources[c.ID] = colSource{src: g.Src, name: c.Name, kind: c.Kind}
				}
			}
		}
		for _, k := range n.Kids {
			walk(k)
		}
	}
	walk(root)
	return md
}

// TableCardinality implements memo.Metadata.
func (md *metadata) TableCardinality(src *algebra.Source) float64 {
	s := md.s
	switch src.Kind {
	case algebra.SourceFullText, algebra.SourcePassThrough:
		return 500
	case algebra.SourceMailTVF:
		if msgs, ok := s.mailStore.Mailbox(src.Path); ok {
			return float64(len(msgs))
		}
		return 100
	}
	key := strings.ToLower(src.Server + "|" + src.Catalog + "|" + src.Table)
	s.mu.Lock()
	if c, ok := s.cardCache[key]; ok {
		s.mu.Unlock()
		return c
	}
	s.mu.Unlock()
	card := 1000.0
	if src.Server == "" {
		if db, ok := s.store.Database(src.Catalog); ok {
			if t, ok := db.Table(src.Table); ok {
				card = float64(t.RowCount())
			}
		}
	} else if l, err := s.linkedFor(src.Server); err == nil {
		if tables, err := s.remoteTables(l); err == nil {
			if ti, ok := tables[strings.ToLower(src.Catalog+"."+src.Table)]; ok {
				card = float64(ti.Cardinality)
			} else if ti, ok := tables[strings.ToLower(src.Table)]; ok {
				card = float64(ti.Cardinality)
			}
		}
	} else if sess, ok := s.extraSession(src.Server); ok {
		if infos, err := sess.TablesInfo(); err == nil {
			for _, ti := range infos {
				if strings.EqualFold(ti.Def.Name, src.Table) {
					card = float64(ti.Cardinality)
				}
			}
		}
	}
	s.mu.Lock()
	s.cardCache[key] = card
	s.mu.Unlock()
	return card
}

// cachedHistogram is a column histogram and, for a local table, the
// table's size and modification count when it was built.
type cachedHistogram struct {
	h    *stats.Histogram
	mark tableMark
}

// tableMark is a local table's live rows and modification count
// (storage.Table.Version) when a histogram or a write plan was built from
// it; the zero mark, a remote table's, never goes stale.
type tableMark struct {
	t          *storage.Table
	rows, mods int64
}

func markTable(t *storage.Table) tableMark {
	return tableMark{t: t, rows: int64(t.RowCount()), mods: t.Version()}
}

// stale applies SQL Server's statistics auto-update rule to a histogram:
// one built from an empty table is stale after any change, any other once
// more than 500 + 20 % of the rows it saw have changed.
func (m tableMark) stale() bool {
	return m.t != nil && past(m.t.Version()-m.mods, m.rows)
}

// resized applies the same threshold to the table's live rows: a plan
// costed for one size may pick the wrong access path at another (a scan
// is cheapest on an empty table). Churn that keeps the size does not
// count, so a steady insert/delete mix never recompiles.
func (m tableMark) resized() bool {
	if m.t == nil {
		return false
	}
	d := int64(m.t.RowCount()) - m.rows
	return past(max(d, -d), m.rows)
}

// past reports whether changed of rows passes 500 + 20 % (any change of
// none).
func past(changed, rows int64) bool {
	return changed > 0 && (rows == 0 || changed > 500+rows/5)
}

// Histogram implements memo.Metadata: local histograms always; remote ones
// through the statistics extension when the provider supports it and the
// server has remote statistics enabled. A local histogram is rebuilt once
// its tableMark goes stale.
func (md *metadata) Histogram(col expr.ColumnID) *stats.Histogram {
	cs, ok := md.colSources[col]
	if !ok {
		return nil
	}
	if cs.src.Server != "" && !md.remoteStats {
		return nil
	}
	s := md.s
	key := strings.ToLower(cs.src.Server + "|" + cs.src.Catalog + "|" + cs.src.Table + "|" + cs.name)
	s.mu.Lock()
	c, ok := s.histCache[key]
	s.mu.Unlock()
	if ok && !c.mark.stale() {
		return c.h
	}
	var rs rowset.Rowset
	var err error
	var mark tableMark
	if cs.src.Server == "" {
		if t, terr := s.localTable([]string{cs.src.Catalog, "", cs.src.Table}); terr == nil {
			mark = markTable(t)
		}
		rs, err = s.nativeSess.ColumnHistogram(cs.src.Catalog+"."+cs.src.Table, cs.name)
	} else {
		l, lerr := s.linkedFor(cs.src.Server)
		if lerr != nil || !l.caps.SupportsStatistics {
			return nil
		}
		sess, serr := s.sessionOf(l)
		if serr != nil {
			return nil
		}
		rs, err = sess.ColumnHistogram(cs.src.Catalog+"."+cs.src.Table, cs.name)
	}
	if err != nil {
		return nil
	}
	h, err := stats.FromRowset(rs, cs.kind)
	if err != nil {
		return nil
	}
	s.mu.Lock()
	s.histCache[key] = cachedHistogram{h, mark}
	s.mu.Unlock()
	return h
}

// CheckDomains implements memo.Metadata via the constraint framework.
func (md *metadata) CheckDomains(src *algebra.Source, cols []algebra.OutCol) constraint.Map {
	if src.Kind != algebra.SourceBaseTable || src.Def == nil {
		return nil
	}
	return binder.CheckDomains(src.Def, cols)
}

// invalidateLocal drops every cached cardinality and histogram: DDL,
// recovery and topology cutovers can change any table. Cached plans stay
// valid across DML (they reference catalog objects, not data);
// invalidatePlans clears them on DDL.
func (s *Server) invalidateLocal() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cardCache = map[string]float64{}
	s.histCache = map[string]cachedHistogram{}
}

// invalidateTable drops the cached statistics of the one table a DML
// statement wrote: a remote table's all, a local one's cardinality (its
// histograms age by their tableMark). Every other table's stay cached:
// refetching a remote one costs link calls at the next compile.
func (s *Server) invalidateTable(server string, def *schema.Table) {
	key := strings.ToLower(server + "|" + def.Catalog + "|" + def.Name)
	s.mu.Lock()
	defer s.mu.Unlock()
	if server == "" {
		delete(s.cardCache, key)
		return
	}
	s.dropStatsLocked(key)
}

// dropStatsLocked drops the statistics cached under a "server|catalog|table"
// key or a "|"-separated extension of it. Caller holds s.mu.
func (s *Server) dropStatsLocked(key string) {
	key = strings.ToLower(key)
	for k := range s.cardCache {
		if k == key || strings.HasPrefix(k, key+"|") {
			delete(s.cardCache, k)
		}
	}
	for k := range s.histCache {
		if k == key || strings.HasPrefix(k, key+"|") {
			delete(s.histCache, k)
		}
	}
}

// invalidatePlans drops the plan cache (schema changed).
func (s *Server) invalidatePlans() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.planCache.Clear()
}
