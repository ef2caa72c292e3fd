package metrics

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Wait types instrumented across the engine, mirroring SQL Server's
// wait_type taxonomy where a close analogue exists.
const (
	WaitAdmissionQueue = "ADMISSION_QUEUE" // THREADPOOL analogue: waiting for an admission slot
	WaitWALFsync       = "WAL_FSYNC"       // WRITELOG: waiting on the log device
	WaitRemoteCall     = "REMOTE_CALL"     // OLEDB: waiting on a linked-server round trip
	WaitRowLock        = "ROW_LOCK"        // LCK_M_X: blocked by a concurrent writer's row lock
	WaitRetryBackoff   = "RETRY_BACKOFF"   // waiting out backoff before a remote retry
)

// waitCell accumulates one wait type's statistics with atomics only.
type waitCell struct {
	count   atomic.Int64
	totalNS atomic.Int64
	maxNS   atomic.Int64
}

// WaitTable aggregates time spent at instrumented wait points, keyed by
// wait type. It backs the sys.dm_os_wait_stats DMV. All methods are
// nil-safe.
type WaitTable struct {
	mu sync.RWMutex
	m  map[string]*waitCell
}

// NewWaitTable returns an empty wait table.
func NewWaitTable() *WaitTable {
	return &WaitTable{m: make(map[string]*waitCell)}
}

func (t *WaitTable) cell(waitType string) *waitCell {
	t.mu.RLock()
	c := t.m[waitType]
	t.mu.RUnlock()
	if c != nil {
		return c
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if c = t.m[waitType]; c == nil {
		c = &waitCell{}
		t.m[waitType] = c
	}
	return c
}

// Record adds one completed wait of duration d under waitType.
// No-op on a nil receiver or non-positive duration with zero count
// semantics preserved (a zero-duration wait still counts a task).
func (t *WaitTable) Record(waitType string, d time.Duration) {
	if t == nil {
		return
	}
	c := t.cell(waitType)
	c.count.Add(1)
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	c.totalNS.Add(ns)
	for {
		old := c.maxNS.Load()
		if ns <= old || c.maxNS.CompareAndSwap(old, ns) {
			return
		}
	}
}

// WaitStat is one row of the wait-statistics snapshot.
type WaitStat struct {
	WaitType     string
	WaitingTasks int64
	WaitTime     time.Duration
	MaxWaitTime  time.Duration
}

// Snapshot returns all wait rows sorted by descending total wait time.
func (t *WaitTable) Snapshot() []WaitStat {
	if t == nil {
		return nil
	}
	t.mu.RLock()
	out := make([]WaitStat, 0, len(t.m))
	for wt, c := range t.m {
		out = append(out, WaitStat{
			WaitType:     wt,
			WaitingTasks: c.count.Load(),
			WaitTime:     time.Duration(c.totalNS.Load()),
			MaxWaitTime:  time.Duration(c.maxNS.Load()),
		})
	}
	t.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].WaitTime != out[j].WaitTime {
			return out[i].WaitTime > out[j].WaitTime
		}
		return out[i].WaitType < out[j].WaitType
	})
	return out
}

// Reset zeroes every wait cell, keeping handed-out cells live.
func (t *WaitTable) Reset() {
	if t == nil {
		return
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, c := range t.m {
		c.count.Store(0)
		c.totalNS.Store(0)
		c.maxNS.Store(0)
	}
}
