package engine

import (
	"io"
	"strings"
	"time"

	"dhqp/internal/circuit"
	"dhqp/internal/opt"
	"dhqp/internal/sqltypes"
)

// Config is every per-statement knob of a server. It is immutable once
// installed: Server.Config returns a copy, Server.Configure swaps in an
// edited one, and each statement loads the current one exactly once, so a
// statement never sees two configurations.
//
// What a change does depends on the field's group, and Configure alone
// applies it:
//   - planning fields are baked into compiled plans; changing one starts a
//     new planning generation, and cached plans of older generations
//     recompile on their next use;
//   - breaker fields discard the existing circuit breakers;
//   - every other field is read per execution.
type Config struct {
	// Planning fields.

	// OptConfig tunes the optimizer (phases, thresholds, cost model).
	OptConfig opt.Config
	// UseRemoteStatistics fetches remote histograms for cardinality
	// estimation (the E4 contrast). Turning it off also drops the remote
	// histograms already cached.
	UseRemoteStatistics bool
	// DisableSpool and DisableParameterization turn off the corresponding
	// remote rules (ablation experiments).
	DisableSpool            bool
	DisableParameterization bool
	// DisableAggSplit turns off partial-aggregation pushdown through UNION
	// ALL (the aggsplit rule): the row-shipping baseline of E19.
	DisableAggSplit bool
	// RemoteBatchSize is how many outer-row keys a batched remote access
	// (batched key-lookup join, bookmark-fetch batch) ships per call; 0 is
	// cost.DefaultRemoteBatch.
	RemoteBatchSize int
	// DisableRemoteBatching plans parameterized joins serially, one remote
	// call per outer row. Bookmark fetches keep their batching.
	DisableRemoteBatching bool

	// Execution fields, read per execution.

	// Today is the session date for today().
	Today sqltypes.Value
	// CollectStats wraps every iterator of a Query in an instrumented shim
	// and records phase spans (SET STATISTICS PROFILE ON). Cheap
	// per-statement metrics are collected either way, and ExplainAnalyze
	// always collects.
	CollectStats bool
	// MaxDOP caps exchange parallelism (the parallel UNION ALL fan-out): 0
	// puts every child of an exchange in flight at once, n caps the
	// workers at n, 1 is serial.
	MaxDOP int
	// BatchSize is the ceiling on rows per batch between local operators,
	// and the fetch size of a remote rowset; 0 is rowset.DefaultBatchSize,
	// values above rowset.MaxBatchSize clamp down.
	BatchSize int
	// QueryTimeout bounds each statement's wall-clock execution; remote
	// waits abort when it passes. 0 is no deadline.
	QueryTimeout time.Duration
	// PartialResults lets a UNION ALL fan-out skip members whose breaker is
	// open, listing them in Result.Skipped, instead of failing the query.
	PartialResults bool
	// RemoteRetries is the attempt budget per remote operation, the first
	// attempt included: 1 disables retries, 0 is exec.DefaultRetryAttempts.
	RemoteRetries int
	// RetryBackoff is the base backoff between attempts (doubled per retry,
	// full jitter); 0 is the exec default.
	RetryBackoff time.Duration
	// SlowQueryThreshold logs every statement whose elapsed time reaches it
	// as one JSON line to SlowQueryWriter (stderr when nil); 0 is off.
	SlowQueryThreshold time.Duration
	SlowQueryWriter    io.Writer

	// Breaker fields.

	// BreakerThreshold consecutive transient failures trip a linked
	// server's breaker, which then stays open for BreakerCooldown before it
	// admits a half-open probe. Values below 1 (or 0 for the cooldown)
	// restore DefaultBreakerThreshold and DefaultBreakerCooldown.
	BreakerThreshold int
	BreakerCooldown  time.Duration

	// planGen is the planning generation: Configure bumps it whenever a
	// planning field changes, and a cached plan serves only statements of
	// the generation it was compiled under.
	planGen uint64
}

// Circuit-breaker defaults: a server must fail more than a full default
// retry ladder (4 attempts) before its breaker trips, and it stays open for
// a cooldown long enough that a burst of concurrent branches fails fast
// rather than queueing probes.
const (
	DefaultBreakerThreshold = 5
	DefaultBreakerCooldown  = 250 * time.Millisecond
)

func defaultConfig() Config {
	return Config{
		OptConfig:           opt.DefaultConfig(),
		UseRemoteStatistics: true,
		Today:               sqltypes.NewDate(2004, 6, 15),
		BreakerThreshold:    DefaultBreakerThreshold,
		BreakerCooldown:     DefaultBreakerCooldown,
	}
}

// normalize maps out-of-range values onto their documented meaning.
func (c *Config) normalize() {
	c.MaxDOP = max(c.MaxDOP, 0)
	c.RemoteBatchSize = max(c.RemoteBatchSize, 0)
	c.BatchSize = max(c.BatchSize, 0)
	c.QueryTimeout = max(c.QueryTimeout, 0)
	c.RemoteRetries = max(c.RemoteRetries, 0)
	c.RetryBackoff = max(c.RetryBackoff, 0)
	c.SlowQueryThreshold = max(c.SlowQueryThreshold, 0)
	if c.BreakerThreshold < 1 {
		c.BreakerThreshold = DefaultBreakerThreshold
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = DefaultBreakerCooldown
	}
}

// samePlanning reports whether two configurations compile identical plans.
func (c *Config) samePlanning(o *Config) bool {
	return c.OptConfig == o.OptConfig &&
		c.UseRemoteStatistics == o.UseRemoteStatistics &&
		c.DisableSpool == o.DisableSpool &&
		c.DisableParameterization == o.DisableParameterization &&
		c.DisableAggSplit == o.DisableAggSplit &&
		c.RemoteBatchSize == o.RemoteBatchSize &&
		c.DisableRemoteBatching == o.DisableRemoteBatching
}

// Config returns a copy of the server's current configuration.
func (s *Server) Config() Config { return *s.cfg.Load() }

// Configure edits the server's configuration: edit receives a copy of the
// current one, and the result is normalized and installed atomically.
// Statements already running keep the configuration they loaded. No edit
// is lost to a concurrent one: an edit made from a configuration that was
// replaced meanwhile is redone on the new one, so edit may run more than
// once and must change nothing but its argument.
func (s *Server) Configure(edit func(*Config)) {
	for {
		old := s.cfg.Load()
		next := *old
		edit(&next)
		next.normalize()
		next.planGen = old.planGen
		if !next.samePlanning(old) {
			next.planGen++
		}
		if s.swapConfig(old, &next) {
			return
		}
	}
}

// swapConfig installs next if old is still current, applying what the
// change does to the breakers and the statistics cache. It swaps under mu,
// so breakerFor never pairs the new configuration with an old breaker.
func (s *Server) swapConfig(old, next *Config) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cfg.Load() != old {
		return false
	}
	if old.UseRemoteStatistics && !next.UseRemoteStatistics {
		for k := range s.histCache {
			if !strings.HasPrefix(k, "|") { // remote: keyed "server|catalog|table|column"
				delete(s.histCache, k)
			}
		}
	}
	if next.BreakerThreshold != old.BreakerThreshold || next.BreakerCooldown != old.BreakerCooldown {
		s.breakers = map[string]*circuit.Breaker{}
	}
	s.cfg.Store(next)
	return true
}

// SetCollectStats sets Config.CollectStats.
func (s *Server) SetCollectStats(on bool) {
	s.Configure(func(c *Config) { c.CollectStats = on })
}
