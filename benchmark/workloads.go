package main

// The five workloads: how each one's state is built, how its statements are
// generated from the seed, and how every answer is checked against the
// generator's own copy of the data (never against the engine).

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"time"

	"dhqp"
	"dhqp/internal/rowset"
	"dhqp/internal/telemetry"
)

// clients is the closed-loop client count: the sandbox has two cores and the
// engine runs in the benchmark's process.
const clients = 2

// sizes holds every size the workloads depend on; it is printed in the
// provenance block. The smoke test shrinks it.
type sizes struct {
	AcctRows          int           `json:"acct_rows"`
	Members           int           `json:"members"`
	AggRowsPerMember  int           `json:"agg_rows_per_member"`
	ShipRowsPerMember int           `json:"ship_rows_per_member"`
	ShipWindow        int           `json:"ship_window"`
	CustRows          int           `json:"cust_rows"`
	FactRows          int           `json:"fact_rows"`
	DimRows           int           `json:"dim_rows"`
	Builds            int           `json:"builds"`
	Warmup            time.Duration `json:"warmup_ns"`
	// ReplayScale divides the traced pass's statement counts.
	ReplayScale int `json:"replay_scale"`
}

var fullSizes = sizes{
	AcctRows: 100000, Members: 32, AggRowsPerMember: 1000, ShipRowsPerMember: 4000,
	ShipWindow: 1500, CustRows: 5000, FactRows: 200000, DimRows: 1000,
	Builds: 3, Warmup: 2 * time.Second, ReplayScale: 1,
}

const (
	regions   = 20
	amountMax = 1000
	factCats  = 50
)

// stmt is one generated statement with its expected answer.
type stmt struct {
	class     string // select, insert, update, delete
	sql       string
	params    map[string]dhqp.Value
	userBytes int                // bytes of column values a DML statement carries
	check     func(answer) error // nil error = the answer is right
	onOK      func()             // applies an acknowledged write to the generator's copy
}

func (s *stmt) dml() bool { return s.class != "select" }

// answer is what a statement returned, over either transport.
type answer struct {
	rows     []rowset.Row
	affected int64
	retries  int64
	stats    *dhqp.QueryStats      // in-process only
	spans    []telemetry.TraceSpan // traced statements only
}

// workload is one entry of the benchmark's workload table.
type workload struct {
	name   string
	why    string
	replay int // statements the traced pass replays (before ReplayScale)
	build  func(sz sizes, seed int64, dir string) (*instance, error)
}

var workloads = []workload{
	{"tcp_point_read", "serving layer does nearly all the work: frame, session, admission, plan-cache hit, one-row result; the control for optimizer, netsim and WAL changes", 2000, buildPointRead},
	{"tcp_durable_write", "storage used the other way: MVCC commit, WAL append and fsync on keyed insert/update/delete at full durability, recovery checked afterwards", 120, buildDurableWrite},
	{"fed_scatter_agg", "per-member fixed cost: a 32-member partial-aggregate scatter with a compile on every statement (texts never repeat, so the plan cache always misses)", 60, buildScatterAgg},
	{"fed_row_ship", "about 1500 rows cross netsim from 32 members, pass a hash join and leave as JSON frames over TCP: the remote-rowset and result-serialization paths, no compile", 30, buildRowShip},
	{"local_star_agg", "typed vectorized executor and columnar image only: cached 200k-row star join and aggregate in process; the control for every federated or serving change", 50, buildStarAgg},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// instance is one built workload state.
type instance struct {
	eng     *dhqp.Server // the served engine or the federation head
	members []*dhqp.Server
	links   []*dhqp.Link
	srv     *dhqp.TCPServer
	addr    string
	walDir  string
	conns   []conn // the window's clients, opened during the build
	// newGen returns client c's statement stream. Streams of different
	// clients never write the same key, so no statement can conflict.
	newGen func(c int) func() *stmt
	// verify, when set, runs untimed after the last statement.
	verify   func() (recoverySeconds float64, err error)
	factRows int
}

// dial opens one more client over the workload's transport.
func (in *instance) dial(trace bool) (conn, error) {
	if in.srv == nil {
		if trace {
			return &tracedLocalConn{localConn{s: in.eng}}, nil
		}
		return &localConn{s: in.eng}, nil
	}
	t := &tcpConn{}
	for i := 0; i < sessionsPerClient; i++ {
		c, err := dhqp.Dial(in.addr)
		if err != nil {
			t.close()
			return nil, fmt.Errorf("dial: %w", err)
		}
		c.SetTrace(trace)
		t.cs = append(t.cs, c)
	}
	return t, nil
}

// stopServing closes the clients and drains the TCP endpoint.
func (in *instance) stopServing() error {
	for _, c := range in.conns {
		c.close()
	}
	in.conns = nil
	if in.srv == nil {
		return nil
	}
	srv := in.srv
	in.srv = nil
	return srv.Close()
}

// close stops the serving layer, detaches the WAL and removes its directory.
func (in *instance) close() error {
	err := in.stopServing()
	if in.walDir != "" {
		if _, derr := in.eng.SetWALDir(""); err == nil {
			err = derr
		}
		if rerr := os.RemoveAll(in.walDir); err == nil {
			err = rerr
		}
		in.walDir = ""
	}
	return err
}

// serve attaches the engine to a TCP endpoint.
func (in *instance) serve() error {
	in.srv = dhqp.Serve(in.eng, dhqp.ServeOptions{})
	addr, err := in.srv.Listen("127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	in.addr = addr.String()
	return nil
}

func (in *instance) openClients() error {
	for c := 0; c < clients; c++ {
		cn, err := in.dial(false)
		if err != nil {
			return err
		}
		in.conns = append(in.conns, cn)
	}
	return nil
}

// firstRun executes n statements of generator client c once, checked, so that
// the build ends with every statement shape compiled and every remote schema
// and statistic fetched.
func (in *instance) firstRun(c, n int) error {
	gen := in.newGen(c)
	for i := 0; i < n; i++ {
		st := gen()
		if err := runChecked(in.conns[0], st); err != nil {
			return fmt.Errorf("first %s: %w", st.class, err)
		}
	}
	return nil
}

// conn is one client session: TCP or in-process.
type conn interface {
	do(st *stmt) (answer, error)
	close()
}

// sessionsPerClient is how many TCP sessions one client holds. The client still
// has one statement in flight at a time; it sends each on the session it used
// longest ago. A session's statement goroutine releases the statement slot a
// second time after the done frame has gone out (runStatement's deferred
// endStatement in internal/server/session.go), and a next statement that has
// begun on the same session by then is cancelled. That interval is the wait
// for one kernel time slice when the goroutine's thread loses its core on
// leaving the write: 3-7 ms, never 7 ms or more in 2.7 million statements. With
// 128 sessions a session rests for 127 of its client's statements, 23 ms at
// the fastest workload's rate and seconds at the others'.
const sessionsPerClient = 128

// tcpConn is one client's pool of sessions, used round robin.
type tcpConn struct {
	cs   []*dhqp.Client
	next int
}

func (t *tcpConn) do(st *stmt) (answer, error) {
	c := t.cs[t.next]
	t.next = (t.next + 1) % len(t.cs)
	res, err := c.Query(st.sql, st.params)
	if err != nil {
		return answer{}, err
	}
	return answer{rows: res.Rows, affected: res.RowsAffected, retries: res.Retries, spans: res.Spans}, nil
}

func (t *tcpConn) close() {
	for _, c := range t.cs {
		c.Close()
	}
}

type localConn struct{ s *dhqp.Server }

func (l *localConn) do(st *stmt) (answer, error) {
	if st.dml() {
		n, err := l.s.ExecParams(st.sql, st.params)
		return answer{affected: n}, err
	}
	res, err := l.s.Query(st.sql, st.params)
	if err != nil {
		return answer{}, err
	}
	return answer{rows: res.Rows, retries: res.Retries, stats: res.Stats}, nil
}

func (l *localConn) close() {}

// runChecked executes one statement; an error, a refusal and a wrong answer
// all come back as an error. An acknowledged right answer is applied to the
// generator's copy.
func runChecked(c conn, st *stmt) error {
	ans, err := c.do(st)
	if err != nil {
		return err
	}
	if err := st.check(ans); err != nil {
		return fmt.Errorf("%w: %v", errWrongAnswer, err)
	}
	if st.onOK != nil {
		st.onOK()
	}
	return nil
}

// insertRows loads n rows through multi-row INSERT statements.
func insertRows(s *dhqp.Server, table string, n int, row func(b *strings.Builder, i int)) error {
	const chunk = 1000
	var b strings.Builder
	for lo := 0; lo < n; lo += chunk {
		b.Reset()
		b.WriteString("INSERT INTO " + table + " VALUES ")
		for i := lo; i < lo+chunk && i < n; i++ {
			if i > lo {
				b.WriteString(", ")
			}
			row(&b, i)
		}
		if _, err := s.Exec(b.String()); err != nil {
			return fmt.Errorf("loading %s: %w", table, err)
		}
	}
	return nil
}

func affectedOne(a answer) error {
	if a.affected != 1 {
		return fmt.Errorf("affected %d, want 1", a.affected)
	}
	return nil
}

// --- acct: tcp_point_read and tcp_durable_write ---------------------------

// bank is the generator's copy of acct. Client c alone writes the loaded keys
// with id % keyParts == c and its own fresh keys, so slots never race.
type bank struct {
	owner []string
	bal   []int64
	// extraRows/extraSum are the fresh keys each client has inserted and not
	// yet deleted, by client.
	extraRows [keyParts]int64
	extraSum  [keyParts]int64
}

// keyParts bounds the client indices in use: the window's two, the build's
// first run and the traced pass's replays.
const keyParts = 8

func buildBank(sz sizes, seed int64, dir string) (*instance, *bank, error) {
	rng := rand.New(rand.NewSource(seed))
	bk := &bank{owner: make([]string, sz.AcctRows), bal: make([]int64, sz.AcctRows)}
	for i := range bk.owner {
		bk.owner[i] = fmt.Sprintf("own-%07d-%05d", i, rng.Intn(100000))
		bk.bal[i] = int64(rng.Intn(10000))
	}
	in := &instance{eng: dhqp.NewServer("bench", "bank")}
	if _, err := in.eng.Exec(`CREATE TABLE acct (id INT PRIMARY KEY, owner VARCHAR(24), bal INT)`); err != nil {
		return nil, nil, err
	}
	err := insertRows(in.eng, "acct", sz.AcctRows, func(b *strings.Builder, i int) {
		fmt.Fprintf(b, "(%d, '%s', %d)", i, bk.owner[i], bk.bal[i])
	})
	if err != nil {
		return nil, nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	if _, err := in.eng.SetWALDir(dir); err != nil {
		return nil, nil, fmt.Errorf("attaching WAL: %w", err)
	}
	in.walDir = dir
	if err := in.serve(); err != nil {
		return nil, nil, err
	}
	if err := in.openClients(); err != nil {
		return nil, nil, err
	}
	return in, bk, nil
}

func buildPointRead(sz sizes, seed int64, dir string) (*instance, error) {
	in, bk, err := buildBank(sz, seed, dir)
	if err != nil {
		return nil, err
	}
	in.newGen = func(c int) func() *stmt {
		rng := rand.New(rand.NewSource(seed*1000 + int64(c)))
		return func() *stmt {
			id := rng.Intn(len(bk.owner))
			return &stmt{
				class:  "select",
				sql:    `SELECT owner, bal FROM acct WHERE id = @id`,
				params: dhqp.Params("id", dhqp.Int(int64(id))),
				check: func(a answer) error {
					if len(a.rows) != 1 {
						return fmt.Errorf("%d rows for id %d, want 1", len(a.rows), id)
					}
					if o, b := a.rows[0][0].Str(), a.rows[0][1].Int(); o != bk.owner[id] || b != bk.bal[id] {
						return fmt.Errorf("id %d: got (%s, %d), want (%s, %d)", id, o, b, bk.owner[id], bk.bal[id])
					}
					return nil
				},
			}
		}
	}
	return in, in.firstRun(keyParts-1, 1)
}

func buildDurableWrite(sz sizes, seed int64, dir string) (*instance, error) {
	in, bk, err := buildBank(sz, seed, dir)
	if err != nil {
		return nil, err
	}
	in.newGen = func(c int) func() *stmt { return bk.writeCycle(seed, c) }
	in.verify = func() (float64, error) {
		// A fresh engine on the same log must hold exactly what the clients
		// had acknowledged.
		if err := in.stopServing(); err != nil {
			return 0, err
		}
		if _, err := in.eng.SetWALDir(""); err != nil {
			return 0, err
		}
		wantRows, wantSum := int64(len(bk.bal)), int64(0)
		for _, b := range bk.bal {
			wantSum += b
		}
		for c := 0; c < keyParts; c++ {
			wantRows += bk.extraRows[c]
			wantSum += bk.extraSum[c]
		}
		start := time.Now()
		fresh := dhqp.NewServer("bench", "bank")
		if _, err := fresh.SetWALDir(in.walDir); err != nil {
			return 0, fmt.Errorf("recovery: %w", err)
		}
		secs := time.Since(start).Seconds()
		res, err := fresh.Query(`SELECT COUNT(id), SUM(bal) FROM acct`, nil)
		if _, derr := fresh.SetWALDir(""); err == nil {
			err = derr
		}
		if err != nil {
			return secs, fmt.Errorf("recovery: %w", err)
		}
		if n, s := res.Rows[0][0].Int(), res.Rows[0][1].Int(); n != wantRows || s != wantSum {
			return secs, fmt.Errorf("recovered %d rows sum %d, acknowledged %d rows sum %d", n, s, wantRows, wantSum)
		}
		return secs, nil
	}
	return in, in.firstRun(keyParts-1, 4)
}

// writeCycle is client c's stream: INSERT a fresh key, UPDATE a loaded key of
// its own partition, UPDATE the fresh key, DELETE it — so the table stays at
// its loaded size. A step whose predecessor failed is skipped, not guessed.
func (bk *bank) writeCycle(seed int64, c int) func() *stmt {
	rng := rand.New(rand.NewSource(seed*1000 + int64(c)))
	next := int64(c+1) * 100_000_000
	var key, keyBal int64
	live := false
	step := 0
	return func() *stmt {
		if step >= 2 && !live {
			step = 0
		}
		st := &stmt{check: affectedOne}
		switch step {
		case 0:
			key, keyBal = next, int64(rng.Intn(10000))
			next++
			k, b := key, keyBal
			st.class, st.sql = "insert", `INSERT INTO acct VALUES (@id, @owner, @bal)`
			st.params = dhqp.Params("id", dhqp.Int(k), "owner", dhqp.Str(fmt.Sprintf("new-%d", k)), "bal", dhqp.Int(b))
			st.userBytes = 16 + len(st.params["owner"].Str())
			st.onOK = func() { live = true; bk.extraRows[c]++; bk.extraSum[c] += b }
		case 1:
			id := rng.Intn(len(bk.bal)/keyParts)*keyParts + c
			b := int64(rng.Intn(10000))
			st.class, st.sql = "update", `UPDATE acct SET bal = @bal WHERE id = @id`
			st.params = dhqp.Params("id", dhqp.Int(int64(id)), "bal", dhqp.Int(b))
			st.userBytes = 8
			st.onOK = func() { bk.bal[id] = b }
		case 2:
			b := int64(rng.Intn(10000))
			st.class, st.sql = "update", `UPDATE acct SET bal = @bal WHERE id = @id`
			st.params = dhqp.Params("id", dhqp.Int(key), "bal", dhqp.Int(b))
			st.userBytes = 8
			st.onOK = func() { bk.extraSum[c] += b - keyBal; keyBal = b }
		case 3:
			st.class, st.sql = "delete", `DELETE FROM acct WHERE id = @id`
			st.params = dhqp.Params("id", dhqp.Int(key))
			st.onOK = func() { live = false; bk.extraRows[c]--; bk.extraSum[c] -= keyBal }
		}
		step = (step + 1) % 4
		return st
	}
}

// --- orders: fed_scatter_agg and fed_row_ship ------------------------------

// orders is the generator's copy of the elastic view.
type orders struct {
	cust, amount []int32
	custName     []string
	// geCount/geSum[r][a] cover the rows of region r with amount >= a.
	geCount, geSum [regions][amountMax + 1]int64
}

func buildFed(sz sizes, seed int64, perMember, custRows int) (*instance, *orders, error) {
	rng := rand.New(rand.NewSource(seed))
	rows := sz.Members * perMember
	od := &orders{cust: make([]int32, rows), amount: make([]int32, rows), custName: make([]string, sz.CustRows)}
	region := make([]int32, rows)
	for i := 0; i < rows; i++ {
		od.cust[i] = int32(rng.Intn(sz.CustRows))
		region[i] = int32(rng.Intn(regions))
		od.amount[i] = int32(rng.Intn(amountMax))
		od.geCount[region[i]][od.amount[i]]++
		od.geSum[region[i]][od.amount[i]] += int64(od.amount[i])
	}
	for r := 0; r < regions; r++ {
		for a := amountMax - 1; a >= 0; a-- {
			od.geCount[r][a] += od.geCount[r][a+1]
			od.geSum[r][a] += od.geSum[r][a+1]
		}
	}
	in := &instance{eng: dhqp.NewServer("head", "fed")}
	var placements []dhqp.ShardPlacement
	for i := 0; i < sz.Members; i++ {
		m := dhqp.NewServer(fmt.Sprintf("w%d", i), "fed")
		// A member needs its database to exist before forwarded DDL lands.
		if _, err := m.Exec(`CREATE TABLE bootstrap (x INT)`); err != nil {
			return nil, nil, err
		}
		link := dhqp.LAN()
		link.Sleep = true
		name := fmt.Sprintf("server%d", i+1)
		if err := in.eng.AddLinkedServer(name, dhqp.SQLProvider(m, link), link); err != nil {
			return nil, nil, err
		}
		in.members = append(in.members, m)
		in.links = append(in.links, link)
		placements = append(placements, dhqp.ShardPlacement{Server: name, Lo: int64(i * perMember), Hi: int64((i + 1) * perMember)})
	}
	cols := []dhqp.Column{
		{Name: "o_id", Kind: dhqp.KindInt}, {Name: "o_cust", Kind: dhqp.KindInt},
		{Name: "o_region", Kind: dhqp.KindInt}, {Name: "amount", Kind: dhqp.KindInt},
	}
	if err := in.eng.CreateElasticView("orders", "o_id", cols, placements); err != nil {
		return nil, nil, err
	}
	err := insertRows(in.eng, "orders", rows, func(b *strings.Builder, i int) {
		fmt.Fprintf(b, "(%d, %d, %d, %d)", i, od.cust[i], region[i], od.amount[i])
	})
	if err != nil {
		return nil, nil, err
	}
	if custRows > 0 {
		if _, err := in.eng.Exec(`CREATE TABLE cust (c_id INT PRIMARY KEY, c_name VARCHAR(24))`); err != nil {
			return nil, nil, err
		}
		err := insertRows(in.eng, "cust", custRows, func(b *strings.Builder, i int) {
			od.custName[i] = fmt.Sprintf("cust-%06d", i)
			fmt.Fprintf(b, "(%d, '%s')", i, od.custName[i])
		})
		if err != nil {
			return nil, nil, err
		}
	}
	// The members were empty when the head first saw them: drop the cached
	// cardinalities so the first statement fetches the loaded ones.
	for i := range in.members {
		in.eng.InvalidateRemoteSchema(fmt.Sprintf("server%d", i+1))
	}
	return in, od, nil
}

func buildScatterAgg(sz sizes, seed int64, _ string) (*instance, error) {
	in, od, err := buildFed(sz, seed, sz.AggRowsPerMember, 0)
	if err != nil {
		return nil, err
	}
	if err := in.openClients(); err != nil {
		return nil, err
	}
	in.newGen = func(c int) func() *stmt {
		rng := rand.New(rand.NewSource(seed*1000 + int64(c)))
		n := 0
		return func() *stmt {
			lit := rng.Intn(amountMax / 10)
			// o_cust is below CustRows, so the second conjunct is always
			// true; its literal makes every text new to the plan cache.
			unique := sz.CustRows + n*keyParts + c
			n++
			return &stmt{
				class: "select",
				sql: fmt.Sprintf(`SELECT o_region, COUNT(o_id), SUM(amount), AVG(amount) FROM orders WHERE amount >= %d AND o_cust < %d GROUP BY o_region`,
					lit, unique),
				check: func(a answer) error { return od.checkAgg(a.rows, lit) },
			}
		}
	}
	return in, in.firstRun(keyParts-1, 1)
}

func (od *orders) checkAgg(rows []rowset.Row, lit int) error {
	want := 0
	for r := 0; r < regions; r++ {
		if od.geCount[r][lit] > 0 {
			want++
		}
	}
	if len(rows) != want {
		return fmt.Errorf("%d groups, want %d", len(rows), want)
	}
	seen := [regions]bool{}
	for _, row := range rows {
		r := row[0].Int()
		if r < 0 || r >= regions || seen[r] {
			return fmt.Errorf("region %d out of range or repeated", r)
		}
		seen[r] = true
		n, s := od.geCount[r][lit], od.geSum[r][lit]
		if row[1].Int() != n || row[2].Int() != s {
			return fmt.Errorf("region %d amount>=%d: got count %d sum %d, want %d %d", r, lit, row[1].Int(), row[2].Int(), n, s)
		}
		if avg := float64(s) / float64(n); !near(row[3].Float(), avg) {
			return fmt.Errorf("region %d: avg %v, want %v", r, row[3].Float(), avg)
		}
	}
	return nil
}

func near(got, want float64) bool {
	return math.Abs(got-want) <= 1e-6*math.Max(1, math.Abs(want))
}

func buildRowShip(sz sizes, seed int64, _ string) (*instance, error) {
	in, od, err := buildFed(sz, seed, sz.ShipRowsPerMember, sz.CustRows)
	if err != nil {
		return nil, err
	}
	if err := in.serve(); err != nil {
		return nil, err
	}
	if err := in.openClients(); err != nil {
		return nil, err
	}
	in.newGen = func(c int) func() *stmt {
		rng := rand.New(rand.NewSource(seed*1000 + int64(c)))
		return func() *stmt {
			lo := rng.Intn(len(od.amount) - sz.ShipWindow + 1)
			hi := lo + sz.ShipWindow
			return &stmt{
				class:  "select",
				sql:    `SELECT o.o_id, c.c_name, o.amount FROM orders o JOIN cust c ON o.o_cust = c.c_id WHERE o.o_id >= @lo AND o.o_id < @hi`,
				params: dhqp.Params("lo", dhqp.Int(int64(lo)), "hi", dhqp.Int(int64(hi))),
				check: func(a answer) error {
					if len(a.rows) != hi-lo {
						return fmt.Errorf("%d rows for [%d,%d), want %d", len(a.rows), lo, hi, hi-lo)
					}
					var ids int64
					for _, row := range a.rows {
						id := row[0].Int()
						if id < int64(lo) || id >= int64(hi) {
							return fmt.Errorf("o_id %d outside [%d,%d)", id, lo, hi)
						}
						if row[1].Str() != od.custName[od.cust[id]] || row[2].Int() != int64(od.amount[id]) {
							return fmt.Errorf("o_id %d: got (%s, %d), want (%s, %d)", id, row[1].Str(), row[2].Int(), od.custName[od.cust[id]], od.amount[id])
						}
						ids += id
					}
					// In-range ids that sum to the range's sum, hi-lo of them: each once.
					if want := int64(lo+hi-1) * int64(hi-lo) / 2; ids != want {
						return fmt.Errorf("o_id sum %d over [%d,%d), want %d", ids, lo, hi, want)
					}
					return nil
				},
			}
		}
	}
	return in, in.firstRun(keyParts-1, 1)
}

// --- star: local_star_agg --------------------------------------------------

func buildStarAgg(sz sizes, seed int64, _ string) (*instance, error) {
	rng := rand.New(rand.NewSource(seed))
	// ltCount/ltSum/ltFv[d*(factCats+1)+c] cover the fact rows of dimension d
	// with f_cat < c.
	ltCount := make([]int64, sz.DimRows*(factCats+1))
	ltSum := make([]int64, len(ltCount))
	ltFv := make([]float64, len(ltCount))
	in := &instance{eng: dhqp.NewServer("bench", "star"), factRows: sz.FactRows}
	for _, ddl := range []string{
		`CREATE TABLE fact (f_id INT PRIMARY KEY, f_dim INT, f_val INT, f_cat INT, f_fv FLOAT)`,
		`CREATE TABLE dim (d_id INT PRIMARY KEY, d_name VARCHAR(20))`,
	} {
		if _, err := in.eng.Exec(ddl); err != nil {
			return nil, err
		}
	}
	err := insertRows(in.eng, "dim", sz.DimRows, func(b *strings.Builder, i int) {
		fmt.Fprintf(b, "(%d, 'dim%04d')", i, i)
	})
	if err != nil {
		return nil, err
	}
	err = insertRows(in.eng, "fact", sz.FactRows, func(b *strings.Builder, i int) {
		d, val, cat := rng.Intn(sz.DimRows), rng.Intn(10000), rng.Intn(factCats)
		fv := float64(rng.Intn(10_000_000)) / 1000
		k := d*(factCats+1) + cat + 1
		ltCount[k]++
		ltSum[k] += int64(val)
		ltFv[k] += fv
		fmt.Fprintf(b, "(%d, %d, %d, %d, %.3f)", i, d, val, cat, fv)
	})
	if err != nil {
		return nil, err
	}
	for d := 0; d < sz.DimRows; d++ {
		for c := 1; c <= factCats; c++ {
			k := d*(factCats+1) + c
			ltCount[k] += ltCount[k-1]
			ltSum[k] += ltSum[k-1]
			ltFv[k] += ltFv[k-1]
		}
	}
	if err := in.openClients(); err != nil {
		return nil, err
	}
	in.newGen = func(c int) func() *stmt {
		rng := rand.New(rand.NewSource(seed*1000 + int64(c)))
		return func() *stmt {
			cat := factCats/2 + rng.Intn(factCats/5)
			return &stmt{
				class:  "select",
				sql:    `SELECT d.d_name, COUNT(f.f_id), SUM(f.f_val), AVG(f.f_fv) FROM fact f JOIN dim d ON f.f_dim = d.d_id WHERE f.f_cat < @c GROUP BY d.d_name`,
				params: dhqp.Params("c", dhqp.Int(int64(cat))),
				check: func(a answer) error {
					want := 0
					for d := 0; d < sz.DimRows; d++ {
						if ltCount[d*(factCats+1)+cat] > 0 {
							want++
						}
					}
					if len(a.rows) != want {
						return fmt.Errorf("%d groups for f_cat<%d, want %d", len(a.rows), cat, want)
					}
					var total int64
					for _, row := range a.rows {
						name := row[0].Str()
						d, err := strconv.Atoi(strings.TrimPrefix(name, "dim"))
						if err != nil || d < 0 || d >= sz.DimRows {
							return fmt.Errorf("unknown group %q", name)
						}
						k := d*(factCats+1) + cat
						if row[1].Int() != ltCount[k] || row[2].Int() != ltSum[k] {
							return fmt.Errorf("%s f_cat<%d: got count %d sum %d, want %d %d", name, cat, row[1].Int(), row[2].Int(), ltCount[k], ltSum[k])
						}
						if avg := ltFv[k] / float64(ltCount[k]); !near(row[3].Float(), avg) {
							return fmt.Errorf("%s: avg %v, want %v", name, row[3].Float(), avg)
						}
						total += ltCount[k]
					}
					// Distinct names whose counts add up to the whole: no group twice.
					var all int64
					for d := 0; d < sz.DimRows; d++ {
						all += ltCount[d*(factCats+1)+cat]
					}
					if total != all {
						return fmt.Errorf("f_cat<%d: counts total %d, want %d", cat, total, all)
					}
					return nil
				},
			}
		}
	}
	return in, in.firstRun(keyParts-1, 1)
}
