// Package shardmap implements the versioned shard-map manager behind
// elastic partitioned views: the partition-key → member mapping becomes a
// runtime object with a version number instead of CREATE-time DDL text.
//
// The paper's federation story (§4.1.5) routes DML and prunes scans through
// CHECK constraints declared at view-creation time; scaling that to 100+
// members requires changing the member set online. A Map here is one
// immutable topology version; the Manager owns the current version per view
// and the statement gate that makes topology changes atomic with respect to
// in-flight statements:
//
//   - every engine statement holds the gate in shared mode for its whole
//     lifetime (plan + execute), pinning it to the map version it planned
//     against;
//   - a topology cutover takes the gate exclusively, which drains all
//     in-flight statements — exactly the serving layer's drain discipline,
//     applied at the engine boundary — flips the map, invalidates cached
//     plans, and releases.
//
// A rebalance move copies a key range to its new member while statements
// keep running; the Manager tracks the DML delta (keys written through the
// view during the copy) so the cutover can replay exactly the rows that
// changed, falling back to a full range re-copy when a statement's effect on
// the source member cannot be analyzed per key.
package shardmap

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"dhqp/internal/schema"
)

// Unbounded sentinels for Member.Lo / Member.Hi.
const (
	// NoLowerBound marks a member whose range extends to the smallest key.
	NoLowerBound = math.MinInt64
	// NoUpperBound marks a member whose range extends past the largest key.
	NoUpperBound = math.MaxInt64
)

// Member is one shard: a member table owning the key range [Lo, Hi).
type Member struct {
	// ID is the shard's stable identity within its view; it survives
	// rebalances (which change the member table) and orders the DMV.
	ID int
	// Server is the linked server hosting the member table ("" = the
	// engine's own storage).
	Server string
	// Catalog and Table locate the member table on that server.
	Catalog string
	Table   string
	// Lo (inclusive) and Hi (exclusive) bound the shard's key range.
	Lo, Hi int64
}

// Contains reports whether key falls in the member's range.
func (m Member) Contains(key int64) bool {
	if key < m.Lo {
		return false
	}
	return key < m.Hi || m.Hi == NoUpperBound
}

// RangeString renders the range as "[lo,hi)" with unbounded ends as "-inf"
// and "+inf".
func (m Member) RangeString() string {
	lo, hi := "-inf", "+inf"
	if m.Lo != NoLowerBound {
		lo = fmt.Sprintf("%d", m.Lo)
	}
	if m.Hi != NoUpperBound {
		hi = fmt.Sprintf("%d", m.Hi)
	}
	return fmt.Sprintf("[%s,%s)", lo, hi)
}

// CheckText synthesizes the CHECK constraint expressing the member's range
// over keyCol. The text is in the exact dialect the binder's constraint
// parser accepts, so the overlaid member defs drive the same startup-filter
// pruning and DML routing as hand-written partitioned-view DDL.
func (m Member) CheckText(keyCol string) string {
	switch {
	case m.Lo == NoLowerBound && m.Hi == NoUpperBound:
		// A single full-range member still needs a restricted domain on the
		// key column so insert routing can identify the partitioning column;
		// k <= MaxInt64 holds for every int64 key.
		return fmt.Sprintf("%s <= %d", keyCol, int64(math.MaxInt64))
	case m.Lo == NoLowerBound:
		return fmt.Sprintf("%s < %d", keyCol, m.Hi)
	case m.Hi == NoUpperBound:
		return fmt.Sprintf("%s >= %d", keyCol, m.Lo)
	default:
		return fmt.Sprintf("%s >= %d AND %s < %d", keyCol, m.Lo, keyCol, m.Hi)
	}
}

// TableRef renders the member table reference as it appears in a FROM
// clause: server.catalog.dbo.table for remote members, catalog.dbo.table
// for local ones.
func (m Member) TableRef() string {
	if m.Server != "" {
		return m.Server + "." + m.Catalog + ".dbo." + m.Table
	}
	return m.Catalog + ".dbo." + m.Table
}

// Map is one immutable version of a view's topology. Install clones it into
// the Manager; readers must treat every field as read-only.
type Map struct {
	// View is the elastic view's name (stored lowercase).
	View string
	// KeyCol names the integer partition-key column.
	KeyCol string
	// Cols is the column layout shared by the view and every member table.
	Cols []schema.Column
	// Version is the manager-global version this map was installed at.
	Version int64
	// Members holds the shards sorted by Lo. Ranges are disjoint.
	Members []Member
}

// MemberFor returns the shard owning key.
func (mp *Map) MemberFor(key int64) (Member, bool) {
	for _, m := range mp.Members {
		if m.Contains(key) {
			return m, true
		}
	}
	return Member{}, false
}

// MemberByID returns the shard with the given ID.
func (mp *Map) MemberByID(id int) (Member, bool) {
	for _, m := range mp.Members {
		if m.ID == id {
			return m, true
		}
	}
	return Member{}, false
}

// ViewText synthesizes the UNION ALL view definition for the current
// topology — the same text CREATE VIEW would have carried, derived from the
// map instead, so every existing binder/optimizer/DML path over partitioned
// views works unchanged against the live topology.
func (mp *Map) ViewText() string {
	names := make([]string, len(mp.Cols))
	for i, c := range mp.Cols {
		names[i] = c.Name
	}
	colList := strings.Join(names, ", ")
	arms := make([]string, len(mp.Members))
	for i, m := range mp.Members {
		arms[i] = "SELECT " + colList + " FROM " + m.TableRef()
	}
	return strings.Join(arms, " UNION ALL ")
}

// Clone deep-copies the map.
func (mp *Map) Clone() *Map {
	out := *mp
	out.Cols = append([]schema.Column(nil), mp.Cols...)
	out.Members = append([]Member(nil), mp.Members...)
	return &out
}

// Validate checks the map is well-formed: members sorted, ranges disjoint
// and non-empty, key column present with an integer kind.
func (mp *Map) Validate() error {
	if mp.View == "" {
		return fmt.Errorf("shardmap: map with empty view name")
	}
	keyOrd := -1
	for i, c := range mp.Cols {
		if strings.EqualFold(c.Name, mp.KeyCol) {
			keyOrd = i
		}
	}
	if keyOrd < 0 {
		return fmt.Errorf("shardmap: view %s: key column %q not in column list", mp.View, mp.KeyCol)
	}
	if len(mp.Members) == 0 {
		return fmt.Errorf("shardmap: view %s has no members", mp.View)
	}
	sorted := sort.SliceIsSorted(mp.Members, func(i, j int) bool {
		return mp.Members[i].Lo < mp.Members[j].Lo
	})
	if !sorted {
		return fmt.Errorf("shardmap: view %s: members not sorted by range", mp.View)
	}
	ids := make(map[int]struct{}, len(mp.Members))
	for i, m := range mp.Members {
		if _, dup := ids[m.ID]; dup {
			return fmt.Errorf("shardmap: view %s: duplicate shard id %d", mp.View, m.ID)
		}
		ids[m.ID] = struct{}{}
		if m.Hi != NoUpperBound && m.Lo >= m.Hi {
			return fmt.Errorf("shardmap: view %s shard %d: empty range %s", mp.View, m.ID, m.RangeString())
		}
		if i > 0 {
			prev := mp.Members[i-1]
			if prev.Hi == NoUpperBound || m.Lo < prev.Hi {
				return fmt.Errorf("shardmap: view %s: shards %d and %d overlap", mp.View, prev.ID, m.ID)
			}
		}
		if m.Table == "" {
			return fmt.Errorf("shardmap: view %s shard %d has no member table", mp.View, m.ID)
		}
	}
	return nil
}

// Move tracks one in-flight rebalance: the key range being copied and the
// DML delta accumulated while the copy ran without blocking writers.
type Move struct {
	View   string
	SrcID  int
	Lo, Hi int64

	mu    sync.Mutex
	keys  map[int64]struct{}
	dirty bool
}

// Manager owns the shard maps of one engine plus the statement gate that
// serializes topology cutovers against in-flight statements.
type Manager struct {
	// gate is the statement gate: statements hold it shared for their whole
	// lifetime; cutovers hold it exclusively (drain semantics).
	gate sync.RWMutex

	// topoMu serializes topology operations (one add/split/rebalance/remove
	// at a time per engine).
	topoMu sync.Mutex

	mu      sync.RWMutex
	maps    map[string]*Map
	version int64
	moves   int64
	move    *Move
}

// NewManager returns an empty manager.
func NewManager() *Manager {
	return &Manager{maps: map[string]*Map{}}
}

// PinStatement takes the statement gate in shared mode, pinning the caller
// to the current map version for its whole statement; the returned func
// releases it. Cheap when no topology change is pending (one uncontended
// RLock), and never re-entrant — engine entry points pin exactly once.
func (g *Manager) PinStatement() func() {
	g.gate.RLock()
	return g.gate.RUnlock
}

// Barrier takes the statement gate exclusively: it returns once every
// in-flight statement has finished, and blocks new ones until the returned
// release func runs. Topology cutovers and move registrations run inside it.
func (g *Manager) Barrier() func() {
	g.gate.Lock()
	return g.gate.Unlock
}

// LockTopology serializes whole topology operations (which take the
// statement barrier only briefly, at registration and cutover).
func (g *Manager) LockTopology() func() {
	g.topoMu.Lock()
	return g.topoMu.Unlock
}

// Lookup returns the current map for a view.
func (g *Manager) Lookup(view string) (*Map, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	mp, ok := g.maps[strings.ToLower(view)]
	return mp, ok
}

// Active reports whether any elastic view is registered.
func (g *Manager) Active() bool {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.maps) > 0
}

// Maps lists the current maps sorted by view name.
func (g *Manager) Maps() []*Map {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make([]*Map, 0, len(g.maps))
	for _, mp := range g.maps {
		out = append(out, mp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].View < out[j].View })
	return out
}

// Install makes mp the view's current map under a fresh global version and
// returns that version. Callers flip topology inside Barrier; registration
// of a brand-new view needs no barrier (no statement can reference it yet).
func (g *Manager) Install(mp *Map) (int64, error) {
	c := mp.Clone()
	c.View = strings.ToLower(c.View)
	if err := c.Validate(); err != nil {
		return 0, err
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.version++
	c.Version = g.version
	g.maps[c.View] = c
	return c.Version, nil
}

// Version reports the manager-global map version (0 = never installed).
func (g *Manager) Version() int64 {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.version
}

// Moves reports the count of committed topology changes.
func (g *Manager) Moves() int64 {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.moves
}

// NoteMove counts one committed topology change.
func (g *Manager) NoteMove() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.moves++
}

// CheckFor returns the synthesized CHECK text for a member table resolved
// during binding, identified by (server, table). The empty string with
// ok=true means "member of an unconstrained single-shard view".
func (g *Manager) CheckFor(server, table string) (string, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	for _, mp := range g.maps {
		for _, m := range mp.Members {
			if strings.EqualFold(m.Server, server) && strings.EqualFold(m.Table, table) {
				return m.CheckText(mp.KeyCol), true
			}
		}
	}
	return "", false
}

// SkipLabel decorates a partial-results skip label: when the skipped server
// hosts elastic members, the label names the shard range(s) and the map
// version the pinned statement planned against, not the static DDL member.
func (g *Manager) SkipLabel(server string) string {
	g.mu.RLock()
	defer g.mu.RUnlock()
	var ranges []string
	var version int64
	for _, mp := range g.maps {
		for _, m := range mp.Members {
			if strings.EqualFold(m.Server, server) {
				ranges = append(ranges, m.RangeString())
				if mp.Version > version {
					version = mp.Version
				}
			}
		}
	}
	if len(ranges) == 0 {
		return server
	}
	sort.Strings(ranges)
	return fmt.Sprintf("%s%s@v%d", server, strings.Join(ranges, ""), version)
}

// BeginMove registers an in-flight rebalance of [lo, hi) out of shard srcID.
// Callers run it inside Barrier so every subsequent DML statement observes
// the move. One move at a time per manager.
func (g *Manager) BeginMove(view string, srcID int, lo, hi int64) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.move != nil {
		return fmt.Errorf("shardmap: a move is already in flight on view %s", g.move.View)
	}
	g.move = &Move{View: strings.ToLower(view), SrcID: srcID, Lo: lo, Hi: hi, keys: map[int64]struct{}{}}
	return nil
}

// EndMove clears the in-flight move.
func (g *Manager) EndMove() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.move = nil
}

// moveFor returns the in-flight move touching a view, if any.
func (g *Manager) moveFor(view string) *Move {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if g.move != nil && g.move.View == strings.ToLower(view) {
		return g.move
	}
	return nil
}

// MoveActive reports whether a move is in flight on the view.
func (g *Manager) MoveActive(view string) bool { return g.moveFor(view) != nil }

// MoveSourceTable names the member table an in-flight move is draining
// (DML routers compare their targets against it to detect writes that must
// flag the move dirty).
func (g *Manager) MoveSourceTable(view string) (server, table string, ok bool) {
	mv := g.moveFor(view)
	if mv == nil {
		return "", "", false
	}
	g.mu.RLock()
	defer g.mu.RUnlock()
	mp, found := g.maps[mv.View]
	if !found {
		return "", "", false
	}
	m, found := mp.MemberByID(mv.SrcID)
	if !found {
		return "", "", false
	}
	return m.Server, m.Table, true
}

// NoteKeys records partition keys written through the view while a move is
// in flight; keys outside the moving range are ignored. DML paths call it
// after their commit, still under their statement pin, so the cutover
// barrier cannot miss a committed write.
func (g *Manager) NoteKeys(view string, keys []int64) {
	mv := g.moveFor(view)
	if mv == nil {
		return
	}
	mv.mu.Lock()
	defer mv.mu.Unlock()
	for _, k := range keys {
		if k >= mv.Lo && (k < mv.Hi || mv.Hi == NoUpperBound) {
			mv.keys[k] = struct{}{}
		}
	}
}

// MarkDirty flags the in-flight move for a full range re-copy: a statement
// may have modified the source shard in a way that cannot be replayed per
// key (an UPDATE/DELETE whose predicate the router could not analyze).
func (g *Manager) MarkDirty(view string) {
	mv := g.moveFor(view)
	if mv == nil {
		return
	}
	mv.mu.Lock()
	mv.dirty = true
	mv.mu.Unlock()
}

// TakeDelta returns the accumulated DML delta of the view's in-flight move:
// the touched keys (sorted) and whether a full re-copy is required. Called
// at cutover, inside Barrier, after which no further writes can race.
func (g *Manager) TakeDelta(view string) (keys []int64, dirty bool) {
	mv := g.moveFor(view)
	if mv == nil {
		return nil, false
	}
	mv.mu.Lock()
	defer mv.mu.Unlock()
	keys = make([]int64, 0, len(mv.keys))
	for k := range mv.keys {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys, mv.dirty
}
