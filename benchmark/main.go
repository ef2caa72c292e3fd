// Command benchmark is the repository's benchmark: five closed-loop
// workloads that drive the whole stack from outside, three end-to-end metrics
// that gate later changes, and a traced pass that yields per-layer metrics.
// See README.md in this directory and BENCHMARK.json at the repository root.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef is one row of BENCHMARK.json's metric tables.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

var endToEnd = []metricDef{
	{"stmt_per_s", "1/s", "higher", 0.25},
	{"stmt_p50_ms", "ms", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

var perLayer = []metricDef{
	{Name: "client.stmt_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "client.stmt_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "client.samples", Unit: "count", Better: "higher"},
	{Name: "client.attempted", Unit: "count", Better: "higher"},
	{Name: "client.failed", Unit: "count", Better: "lower"},
	{Name: "client.slice_spread_frac", Unit: "frac", Better: "lower"},
	{Name: "client.insert_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "client.update_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "client.delete_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "client.trace_overhead_frac", Unit: "frac", Better: "lower"},
	{Name: "client.traced_stmt_ms", Unit: "ms", Better: "lower"},
	{Name: "server.overhead_us_per_stmt", Unit: "us", Better: "lower"},
	{Name: "server.frame_encode_us_per_krow", Unit: "us", Better: "lower"},
	{Name: "server.frame_decode_us_per_krow", Unit: "us", Better: "lower"},
	{Name: "server.bytes_written_per_stmt", Unit: "B", Better: "lower"},
	{Name: "server.frames_written_per_stmt", Unit: "count", Better: "lower"},
	{Name: "server.admission_wait_ms_total", Unit: "ms", Better: "lower"},
	{Name: "engine.plan_cache_hit_frac", Unit: "frac", Better: "higher"},
	{Name: "parser.parse_us_per_stmt", Unit: "us", Better: "lower"},
	{Name: "binder.bind_us_per_stmt", Unit: "us", Better: "lower"},
	{Name: "opt.optimize_ms_per_stmt", Unit: "ms", Better: "lower"},
	{Name: "decoder.decode_us_per_stmt", Unit: "us", Better: "lower"},
	{Name: "opt.memo_groups_per_stmt", Unit: "count", Better: "lower"},
	{Name: "opt.memo_exprs_per_stmt", Unit: "count", Better: "lower"},
	{Name: "opt.rules_fired_per_stmt", Unit: "count", Better: "lower"},
	{Name: "exec.execute_ms_per_stmt", Unit: "ms", Better: "lower"},
	{Name: "exec.member_agg_ms", Unit: "ms", Better: "lower"},
	{Name: "exec.fact_rows_per_s", Unit: "1/s", Better: "higher"},
	{Name: "exec.batches_per_stmt", Unit: "count", Better: "lower"},
	{Name: "exec.retries_per_stmt", Unit: "count", Better: "lower"},
	{Name: "netsim.calls_per_stmt", Unit: "count", Better: "lower"},
	{Name: "netsim.rows_per_stmt", Unit: "count", Better: "lower"},
	{Name: "netsim.kb_per_stmt", Unit: "KiB", Better: "lower"},
	{Name: "netsim.virtual_ms_per_stmt", Unit: "ms", Better: "lower"},
	{Name: "netsim.remote_wait_ms_per_stmt", Unit: "ms", Better: "lower"},
	{Name: "storage.wal_fsyncs_per_stmt", Unit: "count", Better: "lower"},
	{Name: "storage.wal_appends_per_stmt", Unit: "count", Better: "lower"},
	{Name: "storage.wal_bytes_per_stmt", Unit: "B", Better: "lower"},
	{Name: "storage.wal_bytes_per_user_byte", Unit: "B/B", Better: "lower"},
	{Name: "storage.fsync_ms_mean", Unit: "ms", Better: "lower"},
	{Name: "storage.commit_ms_mean", Unit: "ms", Better: "lower"},
	{Name: "storage.fsync_wait_ms_per_stmt", Unit: "ms", Better: "lower"},
	{Name: "storage.write_conflicts", Unit: "count", Better: "lower"},
	{Name: "storage.snapshot_acquire_ns", Unit: "ns", Better: "lower"},
	{Name: "storage.recovery_s", Unit: "s", Better: "lower"},
	{Name: "storage.recovered_ok", Unit: "bool", Better: "higher"},
	{Name: "proc.alloc_kb_per_stmt", Unit: "KiB", Better: "lower"},
	{Name: "proc.cpu_ms_per_stmt", Unit: "ms", Better: "lower"},
	{Name: "proc.gc_cycles_per_s", Unit: "1/s", Better: "lower"},
	{Name: "proc.gc_pause_ms_total", Unit: "ms", Better: "lower"},
	{Name: "proc.peak_rss_mb", Unit: "MiB", Better: "lower"},
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string
	sizes    sizes
}

// runWorkload builds one workload, measures one window, checks every answer
// and, with trace, makes the traced pass. It prints the human-readable report
// to stdout and returns the result line.
func runWorkload(cfg runConfig) (*result, error) {
	wl, ok := findWorkload(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	sz := cfg.sizes
	if cfg.trace {
		sz.Builds = 1 // set-up time is an end-to-end metric; the traced run does not report it
	}
	in, setup, err := buildTimed(wl, sz, cfg.seed, cfg.outDir)
	if err != nil {
		return nil, err
	}
	defer in.close()
	w := measure(in, sz, time.Duration(cfg.seconds*float64(time.Second)))
	for _, e := range w.errs {
		fmt.Fprintf(os.Stderr, "%s: failed statement: %s\n", wl.name, e)
	}

	defs, metrics := endToEnd, w.endToEndMetrics(setup)
	layer := w.windowLayerMetrics()
	if cfg.trace {
		defs = perLayer
		var replays *window
		metrics, replays, err = tracedPass(wl, in, sz, cfg.seed, cfg.outDir)
		if err != nil {
			return nil, err
		}
		w.attempted, w.failed, w.wrong = w.attempted+replays.attempted, w.failed+replays.failed, w.wrong+replays.wrong
		metrics["exec.fact_rows_per_s"] = float64(in.factRows) * median(w.sliceRates())
	}
	recovered, recoverySeconds := true, 0.0
	if in.verify != nil {
		recoverySeconds, err = in.verify()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", wl.name, err)
			recovered = false
		}
	}
	layer["storage.recovery_s"] = recoverySeconds
	layer["storage.recovered_ok"] = 0
	if recovered {
		layer["storage.recovered_ok"] = 1
	}
	if cfg.trace {
		for k, v := range layer {
			metrics[k] = v
		}
	}

	res := &result{Correct: w.wrong == 0 && recovered, Attempted: w.attempted, Failed: w.failed, Metrics: map[string]value{}}
	fmt.Printf("workload %s  seed %d  window %.1fs  clients %d\n", wl.name, cfg.seed, cfg.seconds, clients)
	for _, d := range defs {
		v, ok := metrics[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		res.Metrics[d.Name] = value{v, d.Unit}
		fmt.Printf("  %-36s %16.4f %s\n", d.Name, v, d.Unit)
	}
	if !cfg.trace {
		// The window's own layer view rides along on every run.
		for _, d := range perLayer {
			if v, ok := layer[d.Name]; ok {
				fmt.Printf("  %-36s %16.4f %s\n", d.Name, v, d.Unit)
			}
		}
	}
	fmt.Printf("  slice rates %.2f 1/s\n", w.sliceRates())
	fmt.Printf("  samples %d  attempted %d  failed %d (wrong answers %d)  failure share %.2e\n",
		len(w.samples), w.attempted, w.failed, w.wrong, float64(w.failed)/float64(max(w.attempted, 1)))
	prov, err := json.Marshal(provenance(cfg))
	if err != nil {
		return nil, err
	}
	fmt.Printf("provenance %s\n", prov)
	return res, nil
}

// provenance stamps a run with what produced it.
func provenance(cfg runConfig) map[string]any {
	return map[string]any{
		"git_commit": gitCommit(), "go_version": runtime.Version(),
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"workload": cfg.workload, "seed": cfg.seed, "seconds": cfg.seconds, "trace": cfg.trace,
		"clients": clients, "sizes": cfg.sizes,
	}
}

// gitCommit reads the checked-out commit from .git in the working directory
// without running git; a checkout that is not a repository reports "unknown".
func gitCommit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, _ := os.ReadFile(".git/packed-refs")
	for _, line := range strings.Split(string(packed), "\n") {
		if hash, ok := strings.CutSuffix(line, " "+ref); ok {
			return hash
		}
	}
	return "unknown"
}

// runSets runs the named workloads as child processes of this binary, one
// run per workload per set — each set with the next seed, the way the driver
// does — and prints per workload and metric the values and their spread.
func runSets(names []string, sets int, cfg runConfig) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	values := map[string][]float64{} // "workload metric" -> one value per set
	for set := 0; set < sets; set++ {
		for _, name := range names {
			cmd := exec.Command(self, "--workload", name, "--seed", fmt.Sprint(cfg.seed+int64(set)),
				"--seconds", fmt.Sprint(cfg.seconds), "--trace", trace, "--out", cfg.outDir)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("set %d, %s: %w", set+1, name, err)
			}
			if sets == 1 {
				os.Stdout.Write(out)
				continue
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var res result
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				return fmt.Errorf("set %d, %s: result line: %w", set+1, name, err)
			}
			fmt.Printf("set %d %s: correct %v attempted %d failed %d\n", set+1, name, res.Correct, res.Attempted, res.Failed)
			if !res.Correct {
				return fmt.Errorf("set %d, %s: incorrect", set+1, name)
			}
			for metric, v := range res.Metrics {
				values[name+" "+metric] = append(values[name+" "+metric], v.Value)
			}
		}
	}
	if sets == 1 {
		return nil
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	fmt.Printf("\n%-18s %-28s %12s %12s %12s %8s %8s %8s  values\n", "workload", "metric", "median", "q1", "q3", "iqr/med", "range", "odd/even")
	within := true
	for _, name := range names {
		for _, d := range defs {
			vs := values[name+" "+d.Name]
			sorted := append([]float64(nil), vs...)
			sort.Float64s(sorted)
			med, q1, q3 := quantile(sorted, 0.5), quartile(sorted, 1), quartile(sorted, 3)
			var odd, even []float64
			for i, v := range vs {
				if i%2 == 0 {
					odd = append(odd, v)
				} else {
					even = append(even, v)
				}
			}
			scale := max(med, 1e-12)
			split := math.Abs(median(odd)-median(even)) / scale
			fmt.Printf("%-18s %-28s %12.4f %12.4f %12.4f %8.4f %8.4f %8.4f  %.4f\n", name, d.Name, med, q1, q3,
				(q3-q1)/scale, (sorted[len(sorted)-1]-sorted[0])/scale, split, vs)
			if d.Bound > 0 && split > d.Bound {
				within = false
				fmt.Printf("  ^ sets 1,3,5.. and 2,4,6.. differ by more than the bound %.2f\n", d.Bound)
			}
		}
	}
	if !within {
		return errors.New("two halves of the same code differ by more than a bound")
	}
	return nil
}

// quartile is the k-th quartile as Python's statistics.quantiles(values, n=4)
// gives it, which is what the driver judges the spread by.
func quartile(sorted []float64, k int) float64 {
	n := len(sorted)
	if n < 2 {
		return sorted[0]
	}
	pos := float64(k*(n+1)) / 4 // 1-based, exclusive method
	j := min(max(int(pos), 1), n-1)
	return sorted[j-1] + (pos-float64(j))*(sorted[j]-sorted[j-1])
}

func main() {
	cfg := runConfig{sizes: fullSizes}
	var trace, repeat int
	flag.StringVar(&cfg.workload, "workload", "all", "workload name, or all for one set of the five")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed; set k of --repeat uses seed+k-1")
	flag.Float64Var(&cfg.seconds, "seconds", 16, "measured window per run")
	flag.IntVar(&trace, "trace", 0, "1 = traced run: per-layer metrics and a span file per workload")
	flag.IntVar(&repeat, "repeat", 1, "run this many sets back to back and print their spread")
	flag.StringVar(&cfg.outDir, "out", "benchmark/out", "directory for span files and WAL scratch, inside the checkout")
	flag.Parse()
	cfg.trace = trace != 0

	var err error
	if cfg.workload == "all" || repeat > 1 {
		names := []string{cfg.workload}
		if cfg.workload == "all" {
			names = nil
			for _, w := range workloads {
				names = append(names, w.name)
			}
		}
		err = runSets(names, repeat, cfg)
	} else {
		var res *result
		if res, err = runWorkload(cfg); err == nil {
			var line []byte
			if line, err = json.Marshal(res); err == nil {
				fmt.Printf("%s\n", line)
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}
