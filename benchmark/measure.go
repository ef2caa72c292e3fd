package main

// The closed-loop measured window and the statistics taken from it.

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// slices is how many equal parts the window is cut into; stmt_per_s is the
// median of their rates, so one stall moves one slice and not the result.
const slices = 10

var errWrongAnswer = errors.New("wrong answer")

// sample is one correct statement.
type sample struct {
	end   time.Duration // completion, since the window opened
	lat   time.Duration
	class string
}

// window is what one closed-loop run of the clients observed.
type window struct {
	dur       time.Duration
	samples   []sample
	attempted int
	failed    int // errors, refusals and wrong answers, each once
	wrong     int // the wrong answers among failed
	errs      []string
	proc      procDelta
}

// procDelta is the process's resource use across a window.
type procDelta struct {
	allocBytes uint64
	cpu        time.Duration
	gcCycles   uint32
	gcPause    time.Duration
	peakRSSKB  int64
}

type procSnap struct {
	mem runtime.MemStats
	ru  syscall.Rusage
}

func readProc() procSnap {
	var p procSnap
	runtime.ReadMemStats(&p.mem)
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &p.ru) // cannot fail for RUSAGE_SELF
	return p
}

func (a procSnap) until(b procSnap) procDelta {
	cpu := func(r syscall.Rusage) time.Duration {
		return time.Duration(r.Utime.Nano() + r.Stime.Nano())
	}
	return procDelta{
		allocBytes: b.mem.TotalAlloc - a.mem.TotalAlloc,
		cpu:        cpu(b.ru) - cpu(a.ru),
		gcCycles:   b.mem.NumGC - a.mem.NumGC,
		gcPause:    time.Duration(b.mem.PauseTotalNs - a.mem.PauseTotalNs),
		peakRSSKB:  b.ru.Maxrss,
	}
}

// runClients drives one closed loop per connection for dur: each client sends
// its next statement when the previous one has returned. Nothing is retried.
func runClients(conns []conn, gens []func() *stmt, dur time.Duration) *window {
	w := &window{dur: dur}
	per := make([]window, len(conns))
	before := readProc()
	start := time.Now()
	var wg sync.WaitGroup
	for i := range conns {
		wg.Add(1)
		go func(c conn, gen func() *stmt, out *window) {
			defer wg.Done()
			for {
				st := gen()
				t0 := time.Now()
				if t0.Sub(start) >= dur {
					return
				}
				err := runChecked(c, st)
				t1 := time.Now()
				out.attempted++
				if err != nil {
					out.failed++
					if errors.Is(err, errWrongAnswer) {
						out.wrong++
					}
					if len(out.errs) < 3 {
						out.errs = append(out.errs, st.class+": "+err.Error())
					}
					continue
				}
				out.samples = append(out.samples, sample{end: t1.Sub(start), lat: t1.Sub(t0), class: st.class})
			}
		}(conns[i], gens[i], &per[i])
	}
	wg.Wait()
	w.proc = before.until(readProc())
	for i := range per {
		w.samples = append(w.samples, per[i].samples...)
		w.attempted += per[i].attempted
		w.failed += per[i].failed
		w.wrong += per[i].wrong
		w.errs = append(w.errs, per[i].errs...)
	}
	if len(w.errs) > 3 {
		w.errs = w.errs[:3]
	}
	return w
}

// sliceRates returns the correct statements completed per second in each of
// the window's slices. A statement that spans a slice boundary counts in each
// slice by the share of its time spent there, so a rate is not quantized to
// whole statements; one still in flight when the window closes counts nowhere.
func (w *window) sliceRates() []float64 {
	rates := make([]float64, slices)
	width := w.dur / slices
	for _, s := range w.samples {
		if s.end >= w.dur {
			continue
		}
		begin := s.end - s.lat
		for i := int(begin / width); i <= int(s.end/width); i++ {
			lo, hi := max(begin, time.Duration(i)*width), min(s.end, time.Duration(i+1)*width)
			rates[i] += float64(hi-lo) / float64(s.lat)
		}
	}
	for i := range rates {
		rates[i] /= width.Seconds()
	}
	return rates
}

// latenciesMS returns the sorted latencies of one statement class ("" = all).
func (w *window) latenciesMS(class string) []float64 {
	var out []float64
	for _, s := range w.samples {
		if class == "" || s.class == class {
			out = append(out, float64(s.lat)/float64(time.Millisecond))
		}
	}
	sort.Float64s(out)
	return out
}

// quantile interpolates the q-quantile of sorted values; 0 when there are none.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// endToEndMetrics are the three gating numbers of one window.
func (w *window) endToEndMetrics(setupSeconds float64) map[string]float64 {
	return map[string]float64{
		"stmt_per_s":  median(w.sliceRates()),
		"stmt_p50_ms": quantile(w.latenciesMS(""), 0.5),
		"setup_s":     setupSeconds,
	}
}

// windowLayerMetrics are the per-layer metrics the window itself yields.
func (w *window) windowLayerMetrics() map[string]float64 {
	lat := w.latenciesMS("")
	rates := w.sliceRates()
	sorted := append([]float64(nil), rates...)
	sort.Float64s(sorted)
	spread := 0.0
	if m := quantile(sorted, 0.5); m > 0 {
		spread = (sorted[len(sorted)-1] - sorted[0]) / m
	}
	n := float64(max(len(w.samples), 1))
	return map[string]float64{
		"client.stmt_p95_ms":       quantile(lat, 0.95),
		"client.stmt_p99_ms":       quantile(lat, 0.99),
		"client.samples":           float64(len(w.samples)),
		"client.attempted":         float64(w.attempted),
		"client.failed":            float64(w.failed),
		"client.slice_spread_frac": spread,
		"client.insert_p50_ms":     quantile(w.latenciesMS("insert"), 0.5),
		"client.update_p50_ms":     quantile(w.latenciesMS("update"), 0.5),
		"client.delete_p50_ms":     quantile(w.latenciesMS("delete"), 0.5),
		"proc.alloc_kb_per_stmt":   float64(w.proc.allocBytes) / 1024 / n,
		"proc.cpu_ms_per_stmt":     float64(w.proc.cpu) / float64(time.Millisecond) / n,
		"proc.gc_cycles_per_s":     float64(w.proc.gcCycles) / w.dur.Seconds(),
		"proc.gc_pause_ms_total":   float64(w.proc.gcPause) / float64(time.Millisecond),
		"proc.peak_rss_mb":         float64(w.proc.peakRSSKB) / 1024,
	}
}

// buildTimed builds the workload's state sz.Builds times and keeps the last.
// Every discarded build is closed and collected before the next one starts;
// the reported set-up time is the median build.
func buildTimed(wl workload, sz sizes, seed int64, outDir string) (*instance, float64, error) {
	var times []float64
	for i := 0; ; i++ {
		dir := fmt.Sprintf("%s/wal-%s-%d-%d", outDir, wl.name, syscall.Getpid(), i)
		start := time.Now()
		in, err := wl.build(sz, seed, dir)
		if err != nil {
			if in != nil {
				in.close()
			}
			return nil, 0, fmt.Errorf("building %s: %w", wl.name, err)
		}
		times = append(times, time.Since(start).Seconds())
		if len(times) >= sz.Builds {
			return in, median(times), nil
		}
		if err := in.close(); err != nil {
			return nil, 0, fmt.Errorf("closing a %s build: %w", wl.name, err)
		}
		runtime.GC()
	}
}

// measure warms the instance up, then runs the measured window.
func measure(in *instance, sz sizes, dur time.Duration) *window {
	gens := make([]func() *stmt, clients)
	for c := range gens {
		gens[c] = in.newGen(c)
	}
	runClients(in.conns, gens, sz.Warmup)
	runtime.GC()
	return runClients(in.conns, gens, dur)
}
