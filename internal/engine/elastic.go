// Elastic shard management: the control plane over internal/shardmap that
// makes partitioned-view topology a runtime object. CreateElasticView
// materializes member tables and installs a versioned map; AddShard,
// SplitShard, RebalanceShard, and RemoveShard evolve it online — queries
// and DML keep running against the version they pinned, and a cutover
// drains them through the shard-map statement gate before the next version
// becomes visible. Data movement follows the paper's federation mechanics:
// bulk copy over the link while traffic continues, a delta replay under the
// drain barrier, and the source-range delete. The copier's inserts and
// deletes are ordinary member writes: they take the same write path as an
// INSERT or DELETE statement.
package engine

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"dhqp/internal/algebra"
	"dhqp/internal/decoder"
	"dhqp/internal/parser"
	"dhqp/internal/rowset"
	"dhqp/internal/schema"
	"dhqp/internal/shardmap"
	"dhqp/internal/sqltypes"
)

// ShardPlacement says where a shard's member table lives and which key
// range it owns. Server "" means this (the coordinating) server; otherwise
// it names a linked server. Lo is inclusive, Hi exclusive; use
// shardmap.NoLowerBound / shardmap.NoUpperBound for open ends.
type ShardPlacement struct {
	Server  string
	Catalog string
	Lo, Hi  int64
}

// ShardMemberInfo is one row of the shard-map DMV: a member of one view's
// current map.
type ShardMemberInfo struct {
	View    string
	Version int64
	ID      int
	Server  string // "(local)" for the coordinating server
	Catalog string
	Table   string
	Range   string // "[lo,hi)" with -inf/+inf for open ends
}

// CreateElasticView creates the member tables for each placement (locally
// or via forwarded DDL on linked servers), then installs shard-map version
// 1 for the view. The view name becomes queryable and insertable
// immediately: the catalog synthesizes its UNION ALL text and per-member
// CHECK overlays from the map, so no CREATE VIEW ever runs.
func (s *Server) CreateElasticView(view, keyCol string, cols []schema.Column, placements []ShardPlacement) error {
	if len(placements) == 0 {
		return fmt.Errorf("engine: elastic view %s needs at least one placement", view)
	}
	keyOrd := -1
	for i, c := range cols {
		if strings.EqualFold(c.Name, keyCol) {
			keyOrd = i
		}
	}
	if keyOrd < 0 {
		return fmt.Errorf("engine: elastic view %s: key column %q not in column list", view, keyCol)
	}
	if cols[keyOrd].Kind != sqltypes.KindInt {
		return fmt.Errorf("engine: elastic view %s: key column %q must be int", view, keyCol)
	}
	release := s.shards.LockTopology()
	defer release()
	if _, ok := s.shards.Lookup(view); ok {
		return fmt.Errorf("engine: elastic view %s already exists", view)
	}
	mp := &shardmap.Map{View: view, KeyCol: keyCol, Cols: cols}
	for i, p := range placements {
		m, err := s.newShardMember(view, p, cols, keyCol)
		if err != nil {
			return err
		}
		m.ID = i
		mp.Members = append(mp.Members, m)
	}
	sortShardMembers(mp)
	return s.installShardMap(mp)
}

// sortShardMembers restores the sorted-by-Lo invariant shardmap.Validate
// enforces; callers may hand placements in any order, and split/add append.
func sortShardMembers(mp *shardmap.Map) {
	sort.Slice(mp.Members, func(i, j int) bool { return mp.Members[i].Lo < mp.Members[j].Lo })
}

// AddShard extends a view's map with a member owning a previously uncovered
// key range. No data moves: the new table starts empty, and the next map
// version simply routes the new range to it.
func (s *Server) AddShard(view string, p ShardPlacement) error {
	release := s.shards.LockTopology()
	defer release()
	mp, ok := s.shards.Lookup(view)
	if !ok {
		return fmt.Errorf("engine: no elastic view %s", view)
	}
	m, err := s.newShardMemberID(mp, p)
	if err != nil {
		return err
	}
	next := mp.Clone()
	next.Members = append(next.Members, m)
	sortShardMembers(next)
	return s.installShardMap(next)
}

// SplitShard splits the member containing `at` in two: the source keeps
// [lo, at) and a freshly created member on p.Server takes [at, hi),
// receiving the rows by online move. p.Lo/p.Hi are ignored — the split
// point defines the ranges.
func (s *Server) SplitShard(view string, at int64, p ShardPlacement) error {
	release := s.shards.LockTopology()
	defer release()
	mp, ok := s.shards.Lookup(view)
	if !ok {
		return fmt.Errorf("engine: no elastic view %s", view)
	}
	src, ok := mp.MemberFor(at)
	if !ok {
		return fmt.Errorf("engine: view %s: no member owns key %d", view, at)
	}
	if at == src.Lo {
		return fmt.Errorf("engine: view %s: split point %d is already a shard boundary", view, at)
	}
	p.Lo, p.Hi = at, src.Hi
	dest, err := s.newShardMemberID(mp, p)
	if err != nil {
		return err
	}
	next := mp.Clone()
	for i := range next.Members {
		if next.Members[i].ID == src.ID {
			next.Members[i].Hi = at
		}
	}
	next.Members = append(next.Members, dest)
	sortShardMembers(next)
	return s.moveRange(mp, src, at, src.Hi, dest, next)
}

// RebalanceShard moves the whole member containing `key` onto p.Server: a
// new member table is created there, rows are copied online, and the map
// cuts over to the new placement. The drained source table is left empty.
func (s *Server) RebalanceShard(view string, key int64, p ShardPlacement) error {
	release := s.shards.LockTopology()
	defer release()
	mp, ok := s.shards.Lookup(view)
	if !ok {
		return fmt.Errorf("engine: no elastic view %s", view)
	}
	src, ok := mp.MemberFor(key)
	if !ok {
		return fmt.Errorf("engine: view %s: no member owns key %d", view, key)
	}
	if strings.EqualFold(p.Server, src.Server) {
		return fmt.Errorf("engine: view %s: member %d already lives on %s", view, src.ID, memberLabel(src.Server))
	}
	p.Lo, p.Hi = src.Lo, src.Hi
	dest, err := s.newShardMemberID(mp, p)
	if err != nil {
		return err
	}
	next := mp.Clone()
	for i := range next.Members {
		if next.Members[i].ID == src.ID {
			next.Members[i] = dest
		}
	}
	return s.moveRange(mp, src, src.Lo, src.Hi, dest, next)
}

// RemoveShard drains the member containing `key` into an adjacent member
// (the left neighbor when one exists, else the right) and drops it from the
// map. The neighbor's range widens to cover the removed range.
func (s *Server) RemoveShard(view string, key int64) error {
	release := s.shards.LockTopology()
	defer release()
	mp, ok := s.shards.Lookup(view)
	if !ok {
		return fmt.Errorf("engine: no elastic view %s", view)
	}
	src, ok := mp.MemberFor(key)
	if !ok {
		return fmt.Errorf("engine: view %s: no member owns key %d", view, key)
	}
	if len(mp.Members) == 1 {
		return fmt.Errorf("engine: view %s: cannot remove the last member", view)
	}
	srcPos := -1
	for i, m := range mp.Members {
		if m.ID == src.ID {
			srcPos = i
		}
	}
	destPos := srcPos - 1
	if destPos < 0 {
		destPos = srcPos + 1
	}
	dest := mp.Members[destPos]
	next := mp.Clone()
	for i := range next.Members {
		if next.Members[i].ID != dest.ID {
			continue
		}
		if destPos < srcPos {
			next.Members[i].Hi = src.Hi
		} else {
			next.Members[i].Lo = src.Lo
		}
	}
	next.Members = append(next.Members[:srcPos], next.Members[srcPos+1:]...)
	return s.moveRange(mp, src, src.Lo, src.Hi, dest, next)
}

// ShardMapVersion exposes the manager's monotone version counter.
func (s *Server) ShardMapVersion() int64 { return s.shards.Version() }

// ShardMoves exposes the count of completed online moves.
func (s *Server) ShardMoves() int64 { return s.shards.Moves() }

// ShardMapInfo lists every member of every installed shard map — the
// backing data of the sys.dm_shard_map DMV.
func (s *Server) ShardMapInfo() []ShardMemberInfo {
	var out []ShardMemberInfo
	for _, mp := range s.shards.Maps() {
		for _, m := range mp.Members {
			out = append(out, ShardMemberInfo{
				View:    mp.View,
				Version: mp.Version,
				ID:      m.ID,
				Server:  memberLabel(m.Server),
				Catalog: m.Catalog,
				Table:   m.Table,
				Range:   m.RangeString(),
			})
		}
	}
	return out
}

func memberLabel(server string) string {
	if server == "" {
		return "(local)"
	}
	return server
}

// newShardMember creates a member table for the placement and returns its
// map entry. Member tables are created without CHECK constraints: the
// catalog overlays each one with its range check synthesized from the
// current map, so a later split or rebalance never needs ALTER TABLE.
func (s *Server) newShardMember(view string, p ShardPlacement, cols []schema.Column, keyCol string) (shardmap.Member, error) {
	s.mu.Lock()
	s.elasticSeq++
	seq := s.elasticSeq
	s.mu.Unlock()
	table := fmt.Sprintf("%s_p%d", strings.ToLower(view), seq)
	catalog := p.Catalog
	if catalog == "" {
		catalog = s.defaultDB
	}
	var b strings.Builder
	b.WriteString("CREATE TABLE ")
	if p.Server != "" {
		b.WriteString(p.Server + ".")
	}
	b.WriteString(catalog + ".dbo." + table + " (")
	for i, c := range cols {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(c.Name + " " + typeNameOf(c.Kind))
		if strings.EqualFold(c.Name, keyCol) {
			b.WriteString(" NOT NULL")
		}
	}
	b.WriteString(")")
	if _, err := s.execParams(b.String(), nil); err != nil {
		return shardmap.Member{}, fmt.Errorf("engine: creating shard member %s: %w", table, err)
	}
	if p.Server != "" {
		// The linked-server table cache predates this table.
		s.InvalidateRemoteSchema(p.Server)
	}
	return shardmap.Member{Server: p.Server, Catalog: catalog, Table: table, Lo: p.Lo, Hi: p.Hi}, nil
}

// newShardMemberID is newShardMember plus an ID unique within the map.
func (s *Server) newShardMemberID(mp *shardmap.Map, p ShardPlacement) (shardmap.Member, error) {
	m, err := s.newShardMember(mp.View, p, mp.Cols, mp.KeyCol)
	if err != nil {
		return shardmap.Member{}, err
	}
	maxID := 0
	for _, e := range mp.Members {
		if e.ID > maxID {
			maxID = e.ID
		}
	}
	m.ID = maxID + 1
	return m, nil
}

func typeNameOf(k sqltypes.Kind) string {
	switch k {
	case sqltypes.KindInt:
		return "int"
	case sqltypes.KindFloat:
		return "float"
	case sqltypes.KindBool:
		return "bit"
	case sqltypes.KindDate:
		return "date"
	default:
		return "varchar"
	}
}

// installShardMap installs the next map version under the statement gate
// and drops cached plans, so no statement planned against the old version
// can start after the cutover. Callers hold the topology lock.
func (s *Server) installShardMap(mp *shardmap.Map) error {
	release := s.shards.Barrier()
	defer release()
	v, err := s.shards.Install(mp)
	if err != nil {
		return err
	}
	s.invalidatePlans()
	s.invalidateLocal()
	if m := s.instr(); m != nil {
		m.shardVersion.Set(v)
	}
	return nil
}

// moveRange relocates src's rows in [lo, hi) to dest and cuts the map over
// to next. The caller holds the topology lock; src must be a member of the
// installed map mp, dest's table must exist and be absent from mp (or, for
// RemoveShard, an existing member whose range is disjoint from [lo, hi)).
//
// Protocol:
//  1. BeginMove opens a delta log: every insert routed into [lo, hi) while
//     the copy runs records its key; predicate UPDATE/DELETEs that touch
//     src flag the log dirty.
//  2. Bulk copy streams [lo, hi) from src to dest while statements keep
//     running against the current map — dest is not yet a member, so no
//     reader sees the duplicated rows.
//  3. The statement gate's Barrier drains in-flight statements. Under it,
//     the delta replays (per-key delete-at-dest + re-copy; a dirty log
//     forces a full range resync), the source range is deleted, and the
//     next map version installs. Statements that resume after the barrier
//     plan against the new version.
func (s *Server) moveRange(mp *shardmap.Map, src shardmap.Member, lo, hi int64, dest shardmap.Member, next *shardmap.Map) error {
	if err := s.shards.BeginMove(mp.View, src.ID, lo, hi); err != nil {
		return err
	}
	defer s.shards.EndMove()
	rows, err := s.readMemberRange(mp, src, lo, hi)
	if err != nil {
		return err
	}
	if err := s.writeMemberRows(mp, dest, rows); err != nil {
		return err
	}
	copied := int64(len(rows))

	release := s.shards.Barrier()
	defer release()
	keys, dirty := s.shards.TakeDelta(mp.View)
	if dirty {
		// A predicate write touched the source mid-copy: discard the copy
		// and redo the whole range under the barrier, when it is quiescent.
		if err := s.deleteMemberRange(mp, dest, lo, hi); err != nil {
			return err
		}
		rows, err := s.readMemberRange(mp, src, lo, hi)
		if err != nil {
			return err
		}
		if err := s.writeMemberRows(mp, dest, rows); err != nil {
			return err
		}
		copied += int64(len(rows))
	} else {
		for _, k := range keys {
			if err := s.deleteMemberRange(mp, dest, k, k+1); err != nil {
				return err
			}
			rows, err := s.readMemberRange(mp, src, k, k+1)
			if err != nil {
				return err
			}
			if err := s.writeMemberRows(mp, dest, rows); err != nil {
				return err
			}
			copied += int64(len(rows))
		}
	}
	if err := s.deleteMemberRange(mp, src, lo, hi); err != nil {
		return err
	}
	v, err := s.shards.Install(next)
	if err != nil {
		return err
	}
	s.shards.NoteMove()
	s.invalidatePlans()
	s.invalidateLocal()
	if m := s.instr(); m != nil {
		m.shardVersion.Set(v)
		m.shardMoves.Inc()
		m.rebalanceRows.Add(copied)
	}
	return nil
}

// readMemberRange selects a member's rows with key in [lo, hi), in the
// map's column order. It runs on the inner (unpinned) query path so it
// works both concurrently with pinned statements and under the barrier.
func (s *Server) readMemberRange(mp *shardmap.Map, m shardmap.Member, lo, hi int64) ([]rowset.Row, error) {
	names := make([]string, len(mp.Cols))
	for i, c := range mp.Cols {
		names[i] = c.Name
	}
	text := "SELECT " + strings.Join(names, ", ") + " FROM " + m.TableRef()
	if pred := rangePredicate(mp.KeyCol, lo, hi); pred != "" {
		text += " WHERE " + pred
	}
	res, err := readAll(s.openQuery(context.Background(), text, nil, nil))
	if err != nil {
		return nil, fmt.Errorf("engine: move copy read from %s: %w", m.Table, err)
	}
	return res.Rows, nil
}

// writeMemberRows appends rows to a member table through the one write path.
func (s *Server) writeMemberRows(mp *shardmap.Map, m shardmap.Member, rows []rowset.Row) error {
	if len(rows) == 0 {
		return nil
	}
	_, err := s.applyShares(s.cfg.Load(), nil, nil, []decoder.Write{{Kind: decoder.Insert, Table: memberSource(mp, m), Rows: rows}})
	return err
}

// deleteMemberRange removes a member's rows with key in [lo, hi) through the
// one write path: a local member's share is planned as any local DELETE's
// is, a remote member's is decoded at its capability level.
func (s *Server) deleteMemberRange(mp *shardmap.Map, m shardmap.Member, lo, hi int64) error {
	var where parser.Expr
	if pred := rangePredicate(mp.KeyCol, lo, hi); pred != "" {
		var err error
		if where, err = parser.ParseExpr(pred); err != nil {
			return err
		}
	}
	w, err := bindWrite(decoder.Delete, memberSource(mp, m), where, nil)
	if err == nil {
		_, err = s.applyShares(s.cfg.Load(), s.newRecord(false), nil, []decoder.Write{w})
	}
	return err
}

// memberSource names a member table as a write target, with the map's
// column layout (the catalog's resolution path builds its own defs with
// range-check overlays).
func memberSource(mp *shardmap.Map, m shardmap.Member) *algebra.Source {
	def := &schema.Table{Catalog: m.Catalog, Schema: "dbo", Name: m.Table, Columns: mp.Cols}
	return &algebra.Source{Server: m.Server, Catalog: m.Catalog, Schema: "dbo", Table: m.Table, Def: def}
}

// rangePredicate renders "key >= lo AND key < hi", omitting open bounds;
// a fully open range renders "".
func rangePredicate(keyCol string, lo, hi int64) string {
	var parts []string
	if lo != shardmap.NoLowerBound {
		parts = append(parts, fmt.Sprintf("%s >= %d", keyCol, lo))
	}
	if hi != shardmap.NoUpperBound {
		parts = append(parts, fmt.Sprintf("%s < %d", keyCol, hi))
	}
	return strings.Join(parts, " AND ")
}
