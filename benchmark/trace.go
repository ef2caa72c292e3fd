package main

// The traced pass: after the window, one client replays a fixed number of
// statements from the same generator — untraced for exact counter deltas,
// then traced for spans — and the benchmark times direct calls into single
// layers. Everything is observed from outside the program: public functions,
// Result.Stats, Server.Metrics(), Link.Stats() and PlanCacheStats().

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"dhqp/internal/engine"
	"dhqp/internal/parser"
	"dhqp/internal/rowset"
	"dhqp/internal/server"
	"dhqp/internal/sqltypes"
	"dhqp/internal/telemetry"
)

// span is one traced interval. Spans of one statement share Stmt; Parent 0
// marks the statement's root, the client's call. The benchmark's direct calls
// into single layers belong to no statement and carry Stmt = direct.
type span struct {
	Stmt    int     `json:"stmt"`
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Name    string  `json:"name"`
	Server  string  `json:"server,omitempty"`
	StartUS float64 `json:"start_us"` // since the traced pass began
	EndUS   float64 `json:"end_us"`
	SelfUS  float64 `json:"self_us"` // duration minus what child spans cover
}

const direct = -1

// recorder keeps spans in memory until the run ends.
type recorder struct {
	t0    time.Time
	spans []span
}

func (r *recorder) add(stmt, parent int, name, srv string, start time.Time, d time.Duration) int {
	id := len(r.spans) + 1
	s := float64(start.Sub(r.t0)) / float64(time.Microsecond)
	r.spans = append(r.spans, span{Stmt: stmt, ID: id, Parent: parent, Name: name, Server: srv,
		StartUS: s, EndUS: s + float64(d)/float64(time.Microsecond)})
	return id
}

// graft hangs the program's own span tree of one statement under the client's
// call. Trace spans carry wall-clock starts; r.t0 supplies the same clock.
func (r *recorder) graft(stmt, root int, spans []telemetry.TraceSpan) {
	ids := make(map[uint64]int, len(spans))
	first := len(r.spans)
	for _, sp := range spans {
		ids[sp.SpanID] = r.add(stmt, root, sp.Name, sp.Server, sp.Start, sp.Elapsed)
	}
	for i, sp := range spans {
		if p, ok := ids[sp.ParentID]; ok {
			r.spans[first+i].Parent = p
		}
	}
}

// phases lays a statement's compile and execute phases end to end under the
// client's call: the program reports their durations, not their starts.
func (r *recorder) phases(stmt, root int, start time.Time, phases []telemetry.Span) {
	for _, p := range phases {
		r.add(stmt, root, p.Name, "", start, p.Elapsed)
		start = start.Add(p.Elapsed)
	}
}

// selfTimes fills SelfUS and returns the total self time by span name.
func (r *recorder) selfTimes() map[string]float64 {
	children := make(map[int][]int)
	for i, s := range r.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	byName := make(map[string]float64)
	for i := range r.spans {
		s := &r.spans[i]
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return r.spans[kids[a]].StartUS < r.spans[kids[b]].StartUS })
		covered, edge := 0.0, s.StartUS
		for _, k := range kids {
			lo, hi := max(r.spans[k].StartUS, edge), min(r.spans[k].EndUS, s.EndUS)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		s.SelfUS = s.EndUS - s.StartUS - covered
		byName[s.Name] += s.SelfUS
	}
	return byName
}

func (r *recorder) write(path, workload string, seed int64) error {
	byName := r.selfTimes()
	out, err := json.Marshal(struct {
		Workload string             `json:"workload"`
		Seed     int64              `json:"seed"`
		SelfUS   map[string]float64 `json:"self_us_by_name"`
		Spans    []span             `json:"spans"`
	}{workload, seed, byName, r.spans})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// counters is a point-in-time reading of what the program exports.
type counters struct {
	samples map[string]float64 // metric name, label values summed
	waits   map[string]time.Duration
	cache   engine.PlanCacheStats
	calls   int64
	rows    int64
	bytes   int64
	virtual time.Duration
}

func readCounters(in *instance) counters {
	c := counters{samples: map[string]float64{}, waits: map[string]time.Duration{}, cache: in.eng.PlanCacheStats()}
	for _, s := range in.eng.Metrics().Samples() {
		c.samples[s.Name] += s.Value
	}
	for _, w := range in.eng.Metrics().Waits().Snapshot() {
		c.waits[w.WaitType] = w.WaitTime
	}
	for _, l := range in.links {
		st := l.Stats()
		c.calls += st.Calls
		c.rows += st.Rows
		c.bytes += st.Bytes
		c.virtual += st.VirtualTime
	}
	return c
}

// replay is one single-client pass over n statements of one generator.
type replay struct {
	stmts    []*stmt
	answers  []answer
	starts   []time.Time
	lats     []time.Duration
	elapsed  time.Duration
	failed   int // as in the window: errors, refusals and wrong answers, none retried
	wrong    int
	userByte int
}

func runReplay(c conn, gen func() *stmt, n int) *replay {
	rp := &replay{}
	begin := time.Now()
	for i := 0; i < n; i++ {
		st := gen()
		t0 := time.Now()
		ans, err := c.do(st)
		d := time.Since(t0)
		if err == nil {
			if err = st.check(ans); err != nil {
				rp.wrong++
			}
		}
		if err != nil {
			rp.failed++
			fmt.Fprintf(os.Stderr, "traced pass: failed statement: %s: %v\n", st.class, err)
			continue
		}
		if st.onOK != nil {
			st.onOK()
		}
		rp.stmts = append(rp.stmts, st)
		rp.answers = append(rp.answers, ans)
		rp.starts = append(rp.starts, t0)
		rp.lats = append(rp.lats, d)
		rp.userByte += st.userBytes
	}
	rp.elapsed = time.Since(begin)
	return rp
}

func (rp *replay) p50() time.Duration {
	ms := make([]float64, len(rp.lats))
	for i, d := range rp.lats {
		ms[i] = float64(d)
	}
	sort.Float64s(ms)
	return time.Duration(quantile(ms, 0.5))
}

func (rp *replay) rate() float64 { return float64(len(rp.lats)) / rp.elapsed.Seconds() }

// tracedLocalConn runs in-process statements under a distributed trace, so
// the head's statement span and its remote calls come back with the answer.
type tracedLocalConn struct{ localConn }

func (l *tracedLocalConn) do(st *stmt) (answer, error) {
	if st.dml() {
		return l.localConn.do(st)
	}
	tr := telemetry.NewTrace()
	res, err := l.s.QueryContext(telemetry.WithTrace(context.Background(), tr, 0), st.sql, st.params)
	if err != nil {
		return answer{}, err
	}
	return answer{rows: res.Rows, retries: res.Retries, stats: res.Stats, spans: tr.Spans()}, nil
}

// Client indices of the traced pass's generators; the window uses 0 and 1
// and the build's first run keyParts-1.
const (
	genUntraced = 2
	genTraced   = 3
	genInProc   = 4
)

// counterMetrics turns the counter readings around the untraced replay into
// per-statement figures; with one client they are exact.
func counterMetrics(m map[string]float64, before, after counters, plain *replay) {
	perStmt := func(v float64) float64 { return v / float64(max(len(plain.lats), 1)) }
	delta := func(name string) float64 { return after.samples[name] - before.samples[name] }
	waitMS := func(name string) float64 {
		return float64(after.waits[name]-before.waits[name]) / float64(time.Millisecond)
	}
	mean := func(hist string) float64 {
		if c := delta(hist + "_count"); c > 0 {
			return delta(hist+"_sum") / c * 1000
		}
		return 0
	}
	m["netsim.calls_per_stmt"] = perStmt(float64(after.calls - before.calls))
	m["netsim.rows_per_stmt"] = perStmt(float64(after.rows - before.rows))
	m["netsim.kb_per_stmt"] = perStmt(float64(after.bytes-before.bytes) / 1024)
	m["netsim.virtual_ms_per_stmt"] = perStmt(float64(after.virtual-before.virtual) / float64(time.Millisecond))
	m["netsim.remote_wait_ms_per_stmt"] = perStmt(waitMS("REMOTE_CALL"))
	var retries int64
	for _, a := range plain.answers {
		retries += a.retries
	}
	m["exec.retries_per_stmt"] = perStmt(float64(retries))
	m["exec.batches_per_stmt"] = perStmt(delta("dhqp_exec_batches_total"))
	m["storage.wal_fsyncs_per_stmt"] = perStmt(delta("dhqp_wal_fsyncs_total"))
	m["storage.wal_appends_per_stmt"] = perStmt(delta("dhqp_wal_appends_total"))
	m["storage.wal_bytes_per_stmt"] = perStmt(delta("dhqp_wal_bytes_total"))
	m["storage.wal_bytes_per_user_byte"] = 0
	if plain.userByte > 0 {
		m["storage.wal_bytes_per_user_byte"] = delta("dhqp_wal_bytes_total") / float64(plain.userByte)
	}
	m["storage.fsync_ms_mean"] = mean("dhqp_wal_fsync_seconds")
	m["storage.commit_ms_mean"] = mean("dhqp_commit_seconds")
	m["storage.fsync_wait_ms_per_stmt"] = perStmt(waitMS("WAL_FSYNC"))
	m["storage.write_conflicts"] = delta("dhqp_mvcc_write_conflicts_total")
	m["server.bytes_written_per_stmt"] = perStmt(delta("dhqp_server_bytes_written_total"))
	m["server.frames_written_per_stmt"] = perStmt(delta("dhqp_server_frames_written_total"))
	m["server.admission_wait_ms_total"] = waitMS("ADMISSION_QUEUE")
	m["engine.plan_cache_hit_frac"] = 0
	if hits, misses := after.cache.Hits-before.cache.Hits, after.cache.Misses-before.cache.Misses; hits+misses > 0 {
		m["engine.plan_cache_hit_frac"] = float64(hits) / float64(hits+misses)
	}
}

// tracedPass yields the per-layer metrics that do not come from the window,
// and writes the span file. A statement that fails in a replay is left out of
// the per-statement figures and comes back in the replays' tally.
func tracedPass(wl workload, in *instance, sz sizes, seed int64, outDir string) (map[string]float64, *window, error) {
	n := max(wl.replay/sz.ReplayScale, 8)
	m := map[string]float64{}
	per := func(v float64, rp *replay) float64 { return v / float64(max(len(rp.lats), 1)) }

	// Untraced, over the workload's own transport: exact counter deltas.
	cn, err := in.dial(false)
	if err != nil {
		return nil, nil, err
	}
	defer cn.close()
	before := readCounters(in)
	plain := runReplay(cn, in.newGen(genUntraced), n)
	after := readCounters(in)
	counterMetrics(m, before, after, plain)

	// Traced, same transport: spans, and the cost of tracing itself.
	rec := &recorder{t0: time.Now()}
	in.eng.SetCollectStats(true)
	defer in.eng.SetCollectStats(false)
	tcn, err := in.dial(true)
	if err != nil {
		return nil, nil, err
	}
	defer tcn.close()
	traced := runReplay(tcn, in.newGen(genTraced), n)
	roots := make([]int, len(traced.lats))
	for i := range traced.lats {
		roots[i] = rec.add(i, 0, "client."+traced.stmts[i].class, "", traced.starts[i], traced.lats[i])
		rec.graft(i, roots[i], traced.answers[i].spans)
	}
	m["client.trace_overhead_frac"] = 1 - traced.rate()/plain.rate()
	var tracedTotal time.Duration
	for _, d := range traced.lats {
		tracedTotal += d
	}
	m["client.traced_stmt_ms"] = per(float64(tracedTotal)/float64(time.Millisecond), traced)

	// Phase spans come from in-process statements; a TCP workload's
	// statements are replayed in process on the same engine for them.
	inproc := traced
	m["server.overhead_us_per_stmt"] = 0
	if in.srv != nil {
		inproc = runReplay(&localConn{s: in.eng}, in.newGen(genInProc), n)
		m["server.overhead_us_per_stmt"] = float64(plain.p50()-inproc.p50()) / float64(time.Microsecond)
	}
	phase := map[string]time.Duration{}
	var parseWatch, inprocTotal time.Duration
	var groups, exprs, fired int
	for i, st := range inproc.stmts {
		inprocTotal += inproc.lats[i]
		stmtID, root := i, 0
		if inproc == traced {
			root = roots[i]
		} else {
			stmtID = n + i
			root = rec.add(stmtID, 0, "inproc."+st.class, "", inproc.starts[i], inproc.lats[i])
		}
		stats := inproc.answers[i].stats
		if stats != nil {
			for _, p := range stats.Spans {
				phase[p.Name] += p.Elapsed
			}
			rec.phases(stmtID, root, inproc.starts[i], stats.Spans)
		}
		// Direct calls into single layers, on the same texts.
		t0 := time.Now()
		_, err := parser.Parse(st.sql)
		d := time.Since(t0)
		if err != nil {
			return nil, nil, fmt.Errorf("parser.Parse: %w", err)
		}
		parseWatch += d
		rec.add(direct, 0, "parser.Parse", "", t0, d)
		if stats != nil && !stats.PlanCacheHit {
			t0 = time.Now()
			_, _, report, err := in.eng.Plan(st.sql)
			d = time.Since(t0)
			if err != nil {
				return nil, nil, fmt.Errorf("Server.Plan: %w", err)
			}
			rec.add(direct, 0, "engine.Plan", "", t0, d)
			groups, exprs, fired = groups+report.Groups, exprs+report.Exprs, fired+report.RulesFired
		}
	}
	us := func(d time.Duration) float64 { return per(float64(d)/float64(time.Microsecond), inproc) }
	m["parser.parse_us_per_stmt"] = us(phase["parse"])
	m["binder.bind_us_per_stmt"] = us(phase["bind"])
	m["opt.optimize_ms_per_stmt"] = us(phase["optimize"]) / 1000
	m["decoder.decode_us_per_stmt"] = us(phase["decode"])
	m["exec.execute_ms_per_stmt"] = us(phase["execute"]) / 1000
	if len(inproc.stmts) > 0 && inproc.stmts[0].dml() {
		// DML reports no phases. The engine parses every DML text, so the
		// stopwatch around parser.Parse is its parse time and the rest of
		// the in-process call is execution.
		m["parser.parse_us_per_stmt"] = us(parseWatch)
		m["exec.execute_ms_per_stmt"] = us(inprocTotal-parseWatch) / 1000
	}
	m["opt.memo_groups_per_stmt"] = per(float64(groups), inproc)
	m["opt.memo_exprs_per_stmt"] = per(float64(exprs), inproc)
	m["opt.rules_fired_per_stmt"] = per(float64(fired), inproc)

	enc, dec, err := frameCosts(rec, traced.answers)
	if err != nil {
		return nil, nil, err
	}
	m["server.frame_encode_us_per_krow"], m["server.frame_decode_us_per_krow"] = enc, dec

	const acquires = 20000
	t0 := time.Now()
	for i := 0; i < acquires; i++ {
		snap := in.eng.Store().AcquireSnapshot()
		snap.Release()
	}
	d := time.Since(t0)
	rec.add(direct, 0, "storage.AcquireSnapshot x"+fmt.Sprint(acquires), "", t0, d)
	m["storage.snapshot_acquire_ns"] = float64(d) / acquires

	m["exec.member_agg_ms"] = 0
	if len(in.members) > 0 && len(traced.stmts) > 0 {
		ms, err := memberStatement(rec, in, traced.stmts[0])
		if err != nil {
			return nil, nil, err
		}
		m["exec.member_agg_ms"] = ms
	}

	tally := &window{}
	passes := []*replay{plain, traced}
	if inproc != traced {
		passes = append(passes, inproc)
	}
	for _, rp := range passes {
		tally.attempted += len(rp.lats) + rp.failed
		tally.failed += rp.failed
		tally.wrong += rp.wrong
	}
	return m, tally, rec.write(filepath.Join(outDir, "trace-"+wl.name+".json"), wl.name, seed)
}

// frameCosts times server.WriteFrame and server.ReadFrame on the rows the
// traced statements returned, framed as the serving layer frames them.
func frameCosts(rec *recorder, answers []answer) (encUS, decUS float64, err error) {
	const rowsPerFrame = 256 // ServeOptions{}'s RowBatch
	var frames []*server.Frame
	total := 0
	for _, a := range answers {
		for lo := 0; lo < len(a.rows); lo += rowsPerFrame {
			hi := min(lo+rowsPerFrame, len(a.rows))
			f := &server.Frame{Type: server.FrameRows, QueryID: 1}
			for _, r := range a.rows[lo:hi] {
				f.Rows = append(f.Rows, wireRow(r))
			}
			frames = append(frames, f)
			total += hi - lo
		}
	}
	if total == 0 {
		return 0, 0, nil
	}
	var buf bytes.Buffer
	t0 := time.Now()
	for _, f := range frames {
		if err := server.WriteFrame(&buf, f); err != nil {
			return 0, 0, err
		}
	}
	enc := time.Since(t0)
	rec.add(direct, 0, fmt.Sprintf("server.WriteFrame x%d", len(frames)), "", t0, enc)
	br := bufio.NewReader(&buf)
	t0 = time.Now()
	for range frames {
		if _, err := server.ReadFrame(br); err != nil {
			return 0, 0, err
		}
	}
	dec := time.Since(t0)
	rec.add(direct, 0, fmt.Sprintf("server.ReadFrame x%d", len(frames)), "", t0, dec)
	perK := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) / float64(total) * 1000 }
	return perK(enc), perK(dec), nil
}

func wireRow(r rowset.Row) []server.WireValue {
	out := make([]server.WireValue, len(r))
	for i, v := range r {
		switch v.Kind() {
		case sqltypes.KindInt:
			out[i] = server.WireValue{K: "i", I: v.Int()}
		case sqltypes.KindFloat:
			out[i] = server.WireValue{K: "f", F: v.Float()}
		case sqltypes.KindString:
			out[i] = server.WireValue{K: "s", S: v.Str()}
		}
	}
	return out
}

// memberStatement issues the decoded text the head ships to its first member
// directly on that member, and returns the median time in ms.
func memberStatement(rec *recorder, in *instance, st *stmt) (float64, error) {
	if st.params != nil {
		return 0, nil // the decoded text of a parameterized statement is not self-contained
	}
	ex, err := in.eng.ExplainAnalyze(st.sql, nil)
	if err != nil {
		return 0, fmt.Errorf("ExplainAnalyze: %w", err)
	}
	text := ""
	for _, r := range ex.RemoteSQL {
		if r.Server == "server1" {
			text = r.Text
		}
	}
	if text == "" {
		return 0, nil
	}
	const runs = 50
	var ms []float64
	for i := 0; i < runs; i++ {
		t0 := time.Now()
		if _, err := in.members[0].Query(text, nil); err != nil {
			return 0, fmt.Errorf("member statement: %w", err)
		}
		d := time.Since(t0)
		rec.add(direct, 0, "member.Query", in.members[0].Name(), t0, d)
		ms = append(ms, float64(d)/float64(time.Millisecond))
	}
	return median(ms), nil
}
