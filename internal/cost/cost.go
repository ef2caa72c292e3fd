// Package cost implements the optimizer's cost model. Local operators are
// charged CPU/IO unit costs; remote operators follow the paper's model
// (§4.1.3): "a simple cost model based on the output cardinality of a remote
// operator [aiming] at finding plans with minimal network traffic" — the
// dominant term is output rows × row width over the link, plus a per-call
// latency charge. Costs are expressed in microsecond-equivalent units so
// network times and CPU times share a scale.
package cost

import (
	"math"

	"dhqp/internal/netsim"
)

// Unit costs for local operators (µs-equivalents per row).
const (
	SeqRowCost    = 1.0  // scan one row sequentially
	IndexSeekCost = 12.0 // descend an index (per seek)
	IndexRowCost  = 1.4  // produce one row from an index range
	FilterRowCost = 0.3  // evaluate a predicate
	// ContainsRowCost is the per-row price of naive CONTAINS evaluation:
	// tokenizing and stemming the document text dwarfs a comparison, which
	// is why indexed full-text search wins on real corpora (§2.3).
	ContainsRowCost = 25.0
	ComputeCost     = 0.3  // evaluate a projection
	HashBuildCost   = 1.8  // insert one row into a hash table
	HashProbeCost   = 1.1  // probe one row
	LoopJoinCost    = 0.4  // per (outer row × inner row) pairing overhead
	SortRowFactor   = 0.8  // × n log2 n
	AggRowCost      = 1.2  // accumulate one row
	SpoolRowCost    = 0.7  // materialize one row
	RescanRowCost   = 0.15 // replay one spooled row
	OutputRowCost   = 0.2  // hand one row to the parent
	// RemoteCPUDiscount charges remote-side execution at a fraction of
	// local CPU — the remote server does the work, not this one, and in
	// autonomous environments we cannot reason about its implementation
	// (§4.1.3); what we charge for is the traffic.
	RemoteCPUDiscount = 0.1
	// ExchangeStartupCost is charged once per remote child of a parallel
	// exchange (worker scheduling, channel setup), keeping tiny fan-outs
	// from looking free relative to a single pushed-down query.
	ExchangeStartupCost = 25.0
	// DefaultRemoteBatch is the default number of keys per batched remote
	// call: bookmark-fetch batches and batched key-lookup joins share it,
	// so one knob governs all batched remote access.
	DefaultRemoteBatch = 100
)

// Model computes operator costs. LinkFor resolves the netsim link of a
// linked server; a nil function (or link) yields a default link.
type Model struct {
	LinkFor func(server string) *netsim.Link
}

// defaultLink stands in when no link is registered.
var defaultLink = netsim.LAN()

func (m *Model) link(server string) *netsim.Link {
	if m != nil && m.LinkFor != nil {
		if l := m.LinkFor(server); l != nil {
			return l
		}
	}
	return defaultLink
}

// TransferCost returns the µs cost of shipping rows×width bytes across the
// server's link (bandwidth only; PerCallLatency charges the round trip).
func (m *Model) TransferCost(server string, rows, width float64) float64 {
	l := m.link(server)
	bytes := rows * width
	if bytes <= 0 || l.BytesPerSecond <= 0 {
		return 0
	}
	return bytes / l.BytesPerSecond * 1e6
}

// PerCallLatency returns the µs latency of one round trip to the server.
func (m *Model) PerCallLatency(server string) float64 {
	return float64(m.link(server).LatencyPerCall.Microseconds())
}

// Scan is the cost of a full local table scan.
func (m *Model) Scan(tableRows float64) float64 {
	return tableRows * SeqRowCost
}

// IndexRange is the cost of a local index range producing outRows.
func (m *Model) IndexRange(outRows float64) float64 {
	return IndexSeekCost + outRows*IndexRowCost
}

// RemoteScan ships the whole table: the remote reads tableRows and the link
// carries them all.
func (m *Model) RemoteScan(server string, tableRows, width float64) float64 {
	return m.PerCallLatency(server) +
		tableRows*SeqRowCost*RemoteCPUDiscount +
		m.TransferCost(server, tableRows, width)
}

// RemoteRange ships only the matching rows via the remote index.
func (m *Model) RemoteRange(server string, outRows, width float64) float64 {
	return m.PerCallLatency(server) +
		(IndexSeekCost+outRows*IndexRowCost)*RemoteCPUDiscount +
		m.TransferCost(server, outRows, width)
}

// RemoteQuery is the paper's output-cardinality model: the remote executes
// the pushed statement (charged at the CPU discount against its estimated
// work) and ships only the result.
func (m *Model) RemoteQuery(server string, remoteWork, outRows, width float64) float64 {
	return m.PerCallLatency(server) +
		remoteWork*RemoteCPUDiscount +
		m.TransferCost(server, outRows, width)
}

// RemoteFetch is one bookmark-lookup batch: a round trip per batch plus the
// fetched rows' transfer.
func (m *Model) RemoteFetch(server string, keys, width float64) float64 {
	calls := math.Ceil(keys / DefaultRemoteBatch)
	if calls < 1 {
		calls = 1
	}
	return calls*m.PerCallLatency(server) +
		keys*IndexSeekCost*RemoteCPUDiscount +
		m.TransferCost(server, keys, width)
}

// ParallelConcat costs a concurrent UNION ALL fan-out over remote children
// (the exchange operator). The children's link round trips overlap, so the
// remote charge is the maximum of the remote children's costs rather than
// their sum; local children still execute on this server's CPU and are
// summed. A per-child startup term charges the exchange machinery itself.
func (m *Model) ParallelConcat(remoteKidCosts []float64, localKidCost, outRows float64) float64 {
	maxRemote := 0.0
	for _, c := range remoteKidCosts {
		if c > maxRemote {
			maxRemote = c
		}
	}
	return localKidCost + maxRemote +
		float64(len(remoteKidCosts))*ExchangeStartupCost +
		outRows*OutputRowCost
}

// Filter charges predicate evaluation over inRows.
func (m *Model) Filter(inRows float64) float64 { return inRows * FilterRowCost }

// Compute charges projection over inRows.
func (m *Model) Compute(inRows float64) float64 { return inRows * ComputeCost }

// HashJoin builds on the right input and probes with the left.
func (m *Model) HashJoin(leftRows, rightRows, outRows float64) float64 {
	return rightRows*HashBuildCost + leftRows*HashProbeCost + outRows*OutputRowCost
}

// LoopJoin charges the outer side once plus one inner execution per outer
// row; innerFirst is the inner's first-execution cost and innerRescan each
// subsequent one (spooled inners make rescans cheap, parameterized inners
// make every execution cheap).
func (m *Model) LoopJoin(outerRows, innerFirst, innerRescan, outRows float64) float64 {
	if outerRows < 1 {
		outerRows = 1
	}
	return innerFirst + (outerRows-1)*innerRescan + outRows*LoopJoinCost
}

// BatchLoopJoin charges the batched parameterized join: the inner (one
// remote call carrying a batch of keys) executes ceil(outer/batch) times
// instead of once per outer row — that ratio is exactly the per-call
// latency amortization batching buys. On top of the remote executions the
// local side builds a hash table over each batch of outer rows and probes
// it with every returned inner row (approximated by outRows).
func (m *Model) BatchLoopJoin(outerRows, batchSize, innerFirst, innerRescan, outRows float64) float64 {
	if batchSize < 1 {
		batchSize = 1
	}
	execs := math.Ceil(outerRows / batchSize)
	if execs < 1 {
		execs = 1
	}
	return innerFirst + (execs-1)*innerRescan +
		outerRows*HashBuildCost + outRows*(HashProbeCost+LoopJoinCost)
}

// Sort charges n·log₂n.
func (m *Model) Sort(rows float64) float64 {
	if rows < 2 {
		return rows * SortRowFactor
	}
	return rows * math.Log2(rows) * SortRowFactor
}

// Agg charges one pass of accumulation; hash aggregation pays a constant
// factor over stream aggregation.
func (m *Model) Agg(inRows float64, hash bool) float64 {
	c := inRows * AggRowCost
	if hash {
		c *= 1.3
	}
	return c
}

// Spool charges materialization; replays cost RescanRowCost per row.
func (m *Model) Spool(rows float64) float64 { return rows * SpoolRowCost }

// SpoolRescan is the cost of replaying a spool.
func (m *Model) SpoolRescan(rows float64) float64 { return rows * RescanRowCost }
