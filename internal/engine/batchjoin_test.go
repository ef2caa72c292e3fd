package engine

import (
	"sort"
	"strings"
	"testing"
	"time"

	"dhqp/internal/netsim"
	"dhqp/internal/oledb"
	"dhqp/internal/providers/sqlful"
	"dhqp/internal/rowset"
)

// buildBatchFixture creates a head server holding a local probe table and a
// remote server holding a key-addressed table `big`, linked as "rsrv" over
// the given link with the given provider capabilities.
//
// probe has outerRows rows with k = i (every key hits big when i <
// remoteRows); big has remoteRows rows keyed 0..remoteRows-1.
func buildBatchFixture(t testing.TB, outerRows, remoteRows int, caps oledb.Capabilities, link *netsim.Link) *Server {
	t.Helper()
	head := NewServer("head", "app")
	head.MustExec(`CREATE TABLE probe (k INT, tag VARCHAR(16))`)
	var b strings.Builder
	for start := 0; start < outerRows; start += 500 {
		b.Reset()
		b.WriteString("INSERT INTO probe VALUES ")
		end := start + 500
		if end > outerRows {
			end = outerRows
		}
		for i := start; i < end; i++ {
			if i > start {
				b.WriteString(", ")
			}
			b.WriteString("(" + itoa(i) + ", 'tag" + itoa(i) + "')")
		}
		head.MustExec(b.String())
	}
	remote := NewServer("rsrv", "rdb")
	remote.MustExec(`CREATE TABLE big (k INT PRIMARY KEY, payload VARCHAR(64))`)
	for start := 0; start < remoteRows; start += 500 {
		b.Reset()
		b.WriteString("INSERT INTO big VALUES ")
		end := start + 500
		if end > remoteRows {
			end = remoteRows
		}
		for i := start; i < end; i++ {
			if i > start {
				b.WriteString(", ")
			}
			b.WriteString("(" + itoa(i) + ", 'payload" + itoa(i) + "')")
		}
		remote.MustExec(b.String())
	}
	if err := head.AddLinkedServer("rsrv", sqlful.New(remote, link, caps), link); err != nil {
		t.Fatal(err)
	}
	return head
}

const batchProbeQuery = `SELECT p.tag, b.payload FROM probe p, rsrv.rdb.dbo.big b WHERE p.k = b.k`

// TestBatchLoopJoinPlanChoice: with a slow WAN link and a large outer, the
// optimizer must pick the batched parameterized join on cost alone — and
// keep the serial plan for a 1-row outer, where one round trip already
// suffices and a padded 100-key IN-list only ships more bytes back.
func TestBatchLoopJoinPlanChoice(t *testing.T) {
	head := buildBatchFixture(t, 1000, 24000, sqlful.FullSQLCapabilities(), netsim.WAN())

	plan, _, _, err := head.Plan(batchProbeQuery)
	if err != nil {
		t.Fatal(err)
	}
	planStr := plan.String()
	if !strings.Contains(planStr, "BatchLoopJoin") {
		t.Errorf("WAN + 1000-row outer should choose the batched join:\n%s", planStr)
	}
	if !strings.Contains(planStr, "RemoteQuery") {
		t.Errorf("batched join's inner side should be a pushed remote query:\n%s", planStr)
	}

	// 1-row outer: serial parameterization wins (a single probe ships one
	// key, not a padded batch).
	head.MustExec(`CREATE TABLE single (k INT, tag VARCHAR(16))`)
	head.MustExec(`INSERT INTO single VALUES (42, 'only')`)
	plan, _, _, err = head.Plan(`SELECT p.tag, b.payload FROM single p, rsrv.rdb.dbo.big b WHERE p.k = b.k`)
	if err != nil {
		t.Fatal(err)
	}
	planStr = plan.String()
	if strings.Contains(planStr, "BatchLoopJoin") {
		t.Errorf("1-row outer should not batch:\n%s", planStr)
	}
	if !strings.Contains(planStr, "LoopJoin") {
		t.Errorf("1-row outer should use the serial parameterized loop join:\n%s", planStr)
	}
}

// TestBatchLoopJoinCallCountAndVirtualTime: batching must amortize the
// per-call latency — ceil(1000/100) executions of one command call and one
// result fetch each, instead of a round trip or two per outer row — and
// beat per-probe round trips by well over the 5× acceptance bar in link
// time. With batching off the optimizer does not pay those round trips for
// a 1000-row outer (it ships the 24 000-row table, which is one round trip
// per fetch of its rows), so the per-probe cost is measured where the
// serial parameterized join is the plan — a 5-row outer — and scaled; the
// batched join must also still beat the table ship it displaced.
func TestBatchLoopJoinCallCountAndVirtualTime(t *testing.T) {
	link := netsim.WAN()
	head := buildBatchFixture(t, 1000, 24000, sqlful.FullSQLCapabilities(), link)

	// Warm metadata caches (histogram fetches cross the link too).
	batched := q(t, head, batchProbeQuery)
	if len(batched.Rows) != 1000 {
		t.Fatalf("batched rows = %d, want 1000", len(batched.Rows))
	}
	link.Reset()
	batched = q(t, head, batchProbeQuery)
	bStats := link.Stats()

	// ceil(1000/100) = 10 executions, each one command call plus one fetch
	// of its ≤ 100 matching rows; allow slack for the plan's exact shape
	// but stay far below the ≥ 1000 calls per-probe execution pays.
	if bStats.Calls > 35 {
		t.Errorf("batched execution made %d remote calls, want ≤ 35", bStats.Calls)
	}

	head.Configure(func(c *Config) { c.DisableRemoteBatching = true })
	plan, _, _, err := head.Plan(batchProbeQuery)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plan.String(), "BatchLoopJoin") {
		t.Fatalf("DisableRemoteBatching left a batched join in the plan:\n%s", plan.String())
	}
	serial := q(t, head, batchProbeQuery) // warm the serial plan
	link.Reset()
	serial = q(t, head, batchProbeQuery)
	sStats := link.Stats()

	if !sameRowMultiset(batched.Rows, serial.Rows) {
		t.Error("batched and serial plans disagree on the result multiset")
	}
	if bStats.VirtualTime >= sStats.VirtualTime {
		t.Errorf("batched link time %v not better than the best non-batched plan's %v",
			bStats.VirtualTime, sStats.VirtualTime)
	}
	if bStats.Bytes >= sStats.Bytes {
		t.Errorf("batched shipped %d bytes, serial %d — batching should ship only matching rows",
			bStats.Bytes, sStats.Bytes)
	}

	// Per-probe round trips, measured: five outer rows, five probes.
	const probes = 5
	head.MustExec(`CREATE TABLE few (k INT, tag VARCHAR(16))`)
	head.MustExec(`INSERT INTO few VALUES (1, 'a'), (2, 'b'), (3, 'c'), (4, 'd'), (5, 'e')`)
	const fewQuery = `SELECT p.tag, b.payload FROM few p, rsrv.rdb.dbo.big b WHERE p.k = b.k`
	plan, _, _, err = head.Plan(fewQuery)
	if err != nil {
		t.Fatal(err)
	}
	if ps := plan.String(); !strings.Contains(ps, "LoopJoin") || strings.Contains(ps, "BatchLoopJoin") {
		t.Fatalf("5-row outer without batching should probe per row:\n%s", ps)
	}
	q(t, head, fewQuery)
	link.Reset()
	if few := q(t, head, fewQuery); len(few.Rows) != probes {
		t.Fatalf("per-probe rows = %d, want %d", len(few.Rows), probes)
	}
	pStats := link.Stats()
	if pStats.Calls < probes {
		t.Errorf("per-probe execution made %d calls for %d probes, want a round trip each", pStats.Calls, probes)
	}
	perProbe := pStats.VirtualTime / probes
	if 1000*perProbe < 5*bStats.VirtualTime {
		t.Errorf("batched link time %v not ≥5× better than 1000 probes at %v each", bStats.VirtualTime, perProbe)
	}
	t.Logf("link time: batched %v, table ship %v, 1000 probes at %v each = %.0f× batched",
		bStats.VirtualTime, sStats.VirtualTime, perProbe, float64(1000*perProbe)/float64(bStats.VirtualTime))
}

// TestBatchLoopJoinSerialFallbackNoInList: a Jet-class SQL-Minimum provider
// (Profile.InList = false) cannot render the batch IN-list, so the
// exploration rule must decline and the plan must fall back to the serial
// parameterized loop join — with identical results to the full-SQL preset.
// The link is tuned (10ms per call, 20 KB/s) and the outer kept small so
// serial parameterization genuinely beats shipping the whole table under
// the provider's statistics-free estimates, proving the fallback is chosen
// on merit rather than by accident.
func TestBatchLoopJoinSerialFallbackNoInList(t *testing.T) {
	paramLink := func() *netsim.Link {
		return &netsim.Link{LatencyPerCall: 10 * time.Millisecond, BytesPerSecond: 20e3}
	}
	minimal := buildBatchFixture(t, 5, 16000, sqlful.MinimalSQLCapabilities(), paramLink())
	plan, _, _, err := minimal.Plan(batchProbeQuery)
	if err != nil {
		t.Fatal(err)
	}
	planStr := plan.String()
	if strings.Contains(planStr, "BatchLoopJoin") {
		t.Fatalf("SQL-Minimum provider cannot take IN lists; plan must not batch:\n%s", planStr)
	}
	if !strings.Contains(planStr, "LoopJoin") {
		t.Errorf("expected serial parameterized fallback:\n%s", planStr)
	}

	// Same data and link under the SQL-92-full preset: parity between the
	// capability-limited fallback and the full-capability plan. (At a 5-row
	// outer the full preset rightly keeps serial indexed probes too —
	// batching at scale is asserted by TestBatchLoopJoinPlanChoice.)
	full := buildBatchFixture(t, 5, 16000, sqlful.FullSQLCapabilities(), paramLink())
	rMin := q(t, minimal, batchProbeQuery)
	rFull := q(t, full, batchProbeQuery)
	if !sameRowMultiset(rMin.Rows, rFull.Rows) {
		t.Error("serial fallback and full-capability plans disagree on the result multiset")
	}
	if len(rFull.Rows) != 5 {
		t.Errorf("rows = %d, want 5", len(rFull.Rows))
	}

	// Apples to apples on the workload where the full preset batches (the
	// TestBatchLoopJoinPlanChoice shape): the only difference is the
	// provider's capability set, so a missing IN-list must be the reason
	// no batched plan appears.
	minWAN := buildBatchFixture(t, 1000, 24000, sqlful.MinimalSQLCapabilities(), netsim.WAN())
	plan, _, _, err = minWAN.Plan(batchProbeQuery)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plan.String(), "BatchLoopJoin") {
		t.Errorf("SQL-Minimum provider batched on the WAN workload:\n%s", plan.String())
	}
	fullWAN := buildBatchFixture(t, 1000, 24000, sqlful.FullSQLCapabilities(), netsim.WAN())
	rMin = q(t, minWAN, batchProbeQuery)
	rFull = q(t, fullWAN, batchProbeQuery)
	if !sameRowMultiset(rMin.Rows, rFull.Rows) {
		t.Error("capability-limited and batched WAN plans disagree on the result multiset")
	}
}

// buildParityFixture sets up duplicate and NULL join keys on both sides:
// probe rows repeat keys, include NULLs and keys missing from big; big has
// ~6 rows per key (k = i % 500) plus NULL-keyed rows.
func buildParityFixture(t *testing.T) *Server {
	t.Helper()
	head := NewServer("head", "app")
	head.MustExec(`CREATE TABLE probe (k INT, tag VARCHAR(16))`)
	head.MustExec(`INSERT INTO probe VALUES
		(7, 'a'), (7, 'b'), (499, 'c'), (0, 'd'), (123, 'e'), (123, 'f'),
		(NULL, 'null1'), (NULL, 'null2'), (9999, 'miss1'), (777777, 'miss2'),
		(250, 'g'), (250, 'h')`)
	remote := NewServer("rsrv", "rdb")
	remote.MustExec(`CREATE TABLE big (k INT, payload VARCHAR(64))`)
	var b strings.Builder
	for start := 0; start < 3000; start += 500 {
		b.Reset()
		b.WriteString("INSERT INTO big VALUES ")
		for i := start; i < start+500; i++ {
			if i > start {
				b.WriteString(", ")
			}
			b.WriteString("(" + itoa(i%500) + ", 'p" + itoa(i) + "')")
		}
		remote.MustExec(b.String())
	}
	remote.MustExec(`INSERT INTO big VALUES (NULL, 'rnull1'), (NULL, 'rnull2')`)
	link := netsim.WAN()
	if err := head.AddLinkedServer("rsrv", sqlful.New(remote, link, sqlful.FullSQLCapabilities()), link); err != nil {
		t.Fatal(err)
	}
	return head
}

// TestBatchLoopJoinParityAllJoinTypes checks multiset result parity between
// the batched plan and the non-batched plan for inner, left-outer, semi and
// anti joins over duplicate and NULL join keys.
func TestBatchLoopJoinParityAllJoinTypes(t *testing.T) {
	queries := []struct {
		name      string
		sql       string
		wantBatch bool
	}{
		{"inner", `SELECT p.tag, b.payload FROM probe p, rsrv.rdb.dbo.big b WHERE p.k = b.k`, true},
		{"leftouter", `SELECT p.tag, b.payload FROM probe p LEFT JOIN rsrv.rdb.dbo.big b ON p.k = b.k`, true},
		{"semi", `SELECT p.tag FROM probe p WHERE EXISTS (SELECT 1 FROM rsrv.rdb.dbo.big b WHERE b.k = p.k)`, true},
		{"anti", `SELECT p.tag FROM probe p WHERE NOT EXISTS (SELECT 1 FROM rsrv.rdb.dbo.big b WHERE b.k = p.k)`, true},
	}
	for _, tc := range queries {
		t.Run(tc.name, func(t *testing.T) {
			batched := buildParityFixture(t)
			plan, _, _, err := batched.Plan(tc.sql)
			if err != nil {
				t.Fatal(err)
			}
			hasBatch := strings.Contains(plan.String(), "BatchLoopJoin")
			if hasBatch != tc.wantBatch {
				t.Errorf("batched plan (want batch=%v):\n%s", tc.wantBatch, plan.String())
			}
			serial := buildParityFixture(t)
			serial.Configure(func(c *Config) { c.DisableRemoteBatching = true })
			plan, _, _, err = serial.Plan(tc.sql)
			if err != nil {
				t.Fatal(err)
			}
			if strings.Contains(plan.String(), "BatchLoopJoin") {
				t.Fatalf("DisableRemoteBatching left a batched join:\n%s", plan.String())
			}
			rb := q(t, batched, tc.sql)
			rs := q(t, serial, tc.sql)
			if !sameRowMultiset(rb.Rows, rs.Rows) {
				t.Errorf("result mismatch: batched %d rows, serial %d rows", len(rb.Rows), len(rs.Rows))
			}
		})
	}
}

// TestSetRemoteBatchSizeKnob: the configured batch size is baked into new
// plans (a new planning generation) and bounds the remote call count.
func TestSetRemoteBatchSizeKnob(t *testing.T) {
	link := netsim.WAN()
	head := buildBatchFixture(t, 1000, 24000, sqlful.FullSQLCapabilities(), link)
	head.Configure(func(c *Config) { c.RemoteBatchSize = 250 })
	if got := head.Config().RemoteBatchSize; got != 250 {
		t.Fatalf("RemoteBatchSize = %d", got)
	}
	res := q(t, head, batchProbeQuery) // warm metadata + plan
	link.Reset()
	res = q(t, head, batchProbeQuery)
	if len(res.Rows) != 1000 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	stats := link.Stats()
	// ceil(1000/250) = 4 executions: 4 command calls + 4×ceil(250/64)
	// metered result batches = 20 calls.
	if stats.Calls > 24 {
		t.Errorf("calls = %d with batch size 250, want ≤ 24", stats.Calls)
	}
	// Re-enabling batching at the default size restores the batched plan.
	head.Configure(func(c *Config) { c.DisableRemoteBatching = true })
	plan, _, _, err := head.Plan(batchProbeQuery)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plan.String(), "BatchLoopJoin") {
		t.Error("disable did not stick")
	}
	head.Configure(func(c *Config) { c.RemoteBatchSize, c.DisableRemoteBatching = 0, false })
	plan, _, _, err = head.Plan(batchProbeQuery)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan.String(), "BatchLoopJoin") {
		t.Error("SetRemoteBatchSize did not re-enable batching")
	}
}

// sameRowMultiset compares two row slices as multisets of display strings.
func sameRowMultiset(a, b []rowset.Row) bool {
	if len(a) != len(b) {
		return false
	}
	key := func(rows []rowset.Row) []string {
		out := make([]string, len(rows))
		for i, r := range rows {
			var sb strings.Builder
			for j, v := range r {
				if j > 0 {
					sb.WriteByte('|')
				}
				sb.WriteString(v.Display())
			}
			out[i] = sb.String()
		}
		sort.Strings(out)
		return out
	}
	ka, kb := key(a), key(b)
	for i := range ka {
		if ka[i] != kb[i] {
			return false
		}
	}
	return true
}
