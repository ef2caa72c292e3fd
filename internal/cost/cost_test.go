package cost

import (
	"testing"
	"time"

	"dhqp/internal/netsim"
)

func model(latencyMS int, mbps float64) *Model {
	link := &netsim.Link{
		LatencyPerCall: time.Duration(latencyMS) * time.Millisecond,
		BytesPerSecond: mbps * 1e6,
	}
	return &Model{LinkFor: func(string) *netsim.Link { return link }}
}

func TestTransferCostExcludesLatency(t *testing.T) {
	m := model(10, 1)                        // 1 MB/s
	got := m.TransferCost("srv", 1000, 1000) // 1 MB
	if got != 1e6 {
		t.Errorf("TransferCost = %v µs, want 1e6", got)
	}
	if m.TransferCost("srv", 0, 100) != 0 {
		t.Error("zero rows should cost 0")
	}
	// Infinite bandwidth.
	inf := &Model{LinkFor: func(string) *netsim.Link { return &netsim.Link{LatencyPerCall: time.Millisecond} }}
	if inf.TransferCost("srv", 1000, 1000) != 0 {
		t.Error("infinite bandwidth should transfer free")
	}
}

func TestPerCallLatency(t *testing.T) {
	m := model(10, 100)
	if got := m.PerCallLatency("srv"); got != 10000 {
		t.Errorf("latency = %v", got)
	}
	// Nil model / nil LinkFor falls back to the default link.
	var nilModel *Model
	if nilModel.PerCallLatency("x") <= 0 {
		t.Error("default link should have latency")
	}
}

func TestRemoteScanDominatedByTraffic(t *testing.T) {
	m := model(1, 100)
	small := m.RemoteScan("srv", 10, 20)
	big := m.RemoteScan("srv", 100000, 20)
	if big <= small {
		t.Error("bigger tables must cost more to scan remotely")
	}
	// The remote CPU discount keeps remote work cheaper than local.
	localScan := m.Scan(100000)
	remoteWork := 100000 * SeqRowCost * RemoteCPUDiscount
	if remoteWork >= localScan {
		t.Error("remote CPU should be discounted")
	}
}

func TestRemoteRangeBeatsScanForSelectiveAccess(t *testing.T) {
	m := model(1, 100)
	scan := m.RemoteScan("srv", 100000, 30)
	rng := m.RemoteRange("srv", 10, 30)
	if rng >= scan {
		t.Errorf("selective range (%v) should beat full scan (%v)", rng, scan)
	}
}

func TestRemoteQueryOutputCardinalityModel(t *testing.T) {
	// The paper's model: cost follows the *output* cardinality, so a
	// pushed aggregate producing few rows beats shipping the inputs.
	m := model(1, 100)
	pushed := m.RemoteQuery("srv", 100000, 10, 30)
	shipAll := m.RemoteScan("srv", 100000, 30)
	if pushed >= shipAll {
		t.Errorf("pushed aggregation (%v) should beat shipping inputs (%v)", pushed, shipAll)
	}
}

func TestRemoteFetchBatches(t *testing.T) {
	m := model(1, 100)
	one := m.RemoteFetch("srv", 1, 30)
	manyBatches := m.RemoteFetch("srv", 1000, 30)
	if manyBatches <= one {
		t.Error("more keys should cost more")
	}
	// 1000 keys = 10 batches of 100 → at least 10 latencies.
	if manyBatches < 10*m.PerCallLatency("srv") {
		t.Errorf("batching not charged: %v", manyBatches)
	}
}

func TestLoopJoinRescanDominance(t *testing.T) {
	m := model(1, 100)
	spooled := m.LoopJoin(1000, 500, 10, 1000)
	unspooled := m.LoopJoin(1000, 500, 500, 1000)
	if spooled >= unspooled {
		t.Error("cheap rescans must reduce loop join cost")
	}
	if m.LoopJoin(0, 100, 50, 0) < 100 {
		t.Error("outer clamps to at least one inner execution")
	}
}

func TestSortGrowsSuperlinearly(t *testing.T) {
	m := &Model{}
	if m.Sort(1) >= m.Sort(1000) {
		t.Error("sort cost ordering")
	}
	// n log n: doubling n should more than double cost.
	if 2*m.Sort(1000) >= m.Sort(2000)*1.2 {
		t.Logf("sort(1000)=%v sort(2000)=%v", m.Sort(1000), m.Sort(2000))
	}
	if m.Sort(0) != 0 {
		t.Error("empty sort should be free")
	}
}

func TestAggAndSpool(t *testing.T) {
	m := &Model{}
	if m.Agg(100, true) <= m.Agg(100, false) {
		t.Error("hash agg should carry a constant factor over stream agg")
	}
	if m.SpoolRescan(100) >= m.Spool(100) {
		t.Error("spool replay must be cheaper than materialization")
	}
}

func TestJoinModels(t *testing.T) {
	m := &Model{}
	if m.HashJoin(100, 100, 50) <= 0 {
		t.Error("join costs must be positive")
	}
	if m.Filter(100) <= 0 || m.Compute(100) <= 0 || m.IndexRange(10) <= 0 {
		t.Error("unary costs must be positive")
	}
}
