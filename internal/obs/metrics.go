package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// The registry. All series are created at package init via NewCounter /
// NewGauge / NewHistogram below, so the catalogue is closed and dump order
// is stable. A mutex guards registration only; reads and writes of the
// series themselves are lock-free atomics.
var registry struct {
	mu     sync.Mutex
	byName map[string]any
	names  []string
}

func register(name string, series any) {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if registry.byName == nil {
		registry.byName = make(map[string]any)
	}
	if _, dup := registry.byName[name]; dup {
		panic("obs: duplicate metric name " + name)
	}
	registry.byName[name] = series
	registry.names = append(registry.names, name)
	sort.Strings(registry.names)
}

// Counter is a monotonically increasing atomic counter. The zero Counter is
// unusable; create them with NewCounter (package-level, init time).
type Counter struct {
	name string
	v    atomic.Int64
}

// NewCounter registers a counter under name.
func NewCounter(name string) *Counter {
	c := &Counter{name: name}
	register(name, c)
	return c
}

// Inc adds 1. With metrics disabled it returns after one atomic load.
func (c *Counter) Inc() {
	if !MetricsOn() {
		return
	}
	c.v.Add(1)
}

// Add adds n. With metrics disabled it returns after one atomic load.
func (c *Counter) Add(n int64) {
	if !MetricsOn() {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (readable even while disabled).
func (c *Counter) Value() int64 { return c.v.Load() }

// Name returns the registered series name.
func (c *Counter) Name() string { return c.name }

// Gauge is a last-value-wins atomic gauge.
type Gauge struct {
	name string
	v    atomic.Int64
}

// NewGauge registers a gauge under name.
func NewGauge(name string) *Gauge {
	g := &Gauge{name: name}
	register(name, g)
	return g
}

// Set records v. With metrics disabled it returns after one atomic load.
func (g *Gauge) Set(v int64) {
	if !MetricsOn() {
		return
	}
	g.v.Store(v)
}

// Value returns the last recorded value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Name returns the registered series name.
func (g *Gauge) Name() string { return g.name }

// NumBuckets is the fixed bucket count of every Histogram. Buckets are
// log-scale: bucket 0 counts observations ≤ 0, and bucket i ≥ 1 counts
// observations v with 2^(i-1) ≤ v < 2^i (i.e. bit length i). Every positive
// int64 lands in a bucket, so there is no overflow bucket to mis-size.
const NumBuckets = 64

// Histogram is a fixed log-scale histogram with atomic buckets plus running
// count and sum (so dumps can report the mean without locking).
type Histogram struct {
	name    string
	count   atomic.Int64
	sum     atomic.Int64
	buckets [NumBuckets]atomic.Int64
}

// NewHistogram registers a histogram under name.
func NewHistogram(name string) *Histogram {
	h := &Histogram{name: name}
	register(name, h)
	return h
}

// bucketOf maps an observation to its bucket index.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v)) // 1..63 for positive int64
}

// Record observes v. With metrics disabled it returns after one atomic load.
func (h *Histogram) Record(v int64) {
	if !MetricsOn() {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bucketOf(v)].Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observations.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Bucket returns the count of bucket i.
func (h *Histogram) Bucket(i int) int64 { return h.buckets[i].Load() }

// Name returns the registered series name.
func (h *Histogram) Name() string { return h.name }

// Mean returns the arithmetic mean of the observations (0 when empty).
func (h *Histogram) Mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// BucketRange returns the half-open value range [lo, hi) of bucket i.
// Bucket 0 is the ≤ 0 bucket and reports [math.MinInt64, 1).
func BucketRange(i int) (lo, hi int64) {
	switch {
	case i <= 0:
		return math.MinInt64, 1
	case i >= 63:
		return 1 << 62, math.MaxInt64
	default:
		return 1 << uint(i-1), 1 << uint(i)
	}
}

// The metric catalogue. Names are the stable identifiers the dumps, the
// expvar bridge and docs/OBSERVABILITY.md key on.
var (
	// Solve lifecycle (core.SolveCtx): started = all entries; exactly one
	// of completed/degraded/failed follows per solve.
	SolvesStarted   = NewCounter("solves_started")
	SolvesCompleted = NewCounter("solves_completed")
	SolvesDegraded  = NewCounter("solves_degraded")
	SolvesFailed    = NewCounter("solves_failed")

	// Admission: tasks offered to the combined solver vs tasks scheduled in
	// the returned solution.
	TasksInput    = NewCounter("tasks_input")
	TasksAdmitted = NewCounter("tasks_admitted")

	// Substrate work counters.
	SegtreeOps     = NewCounter("segtree_ops")            // intervals.SegTree Add/Assign/Max calls
	KnapsackCells  = NewCounter("knapsack_dp_cells")      // knapsack profit-DP cells touched
	DPStates       = NewCounter("largesap_dp_states")     // MWIS path-DP states materialised
	BBNodes        = NewCounter("largesap_bb_nodes")      // MWIS branch-and-bound nodes
	BBFallbacks    = NewCounter("largesap_bb_fallback")   // path-DP → branch-and-bound fallbacks
	ExactBBNodes   = NewCounter("exact_bb_nodes")         // exact SAP branch-and-bound nodes (path, ring, window)
	ExactFallbacks = NewCounter("medium_exact_fallbacks") // medium classes degraded to incumbents
	OracleChecks   = NewCounter("oracle_checks")          // oracle feasibility verifications

	// MediumClassesShared counts the medium classes answered by the exact
	// search of an identical class of the same solve; ExactFallbacks still
	// counts every degraded class, shared or not.
	MediumClassesShared = NewCounter("medium_classes_shared")

	// Quality: 1000·(achieved weight)/(LP upper bound), recorded once per
	// strip-pack class of the small arm (the class's UFPP weight vs its LP
	// optimum). No per-solve ratio is recorded.
	RatioPermille = NewHistogram("ratio_vs_lp_permille")

	// Shard-and-scatter decomposition (internal/shard). ShardSolves counts
	// solves that took the sharded path; shard_count/shard_tasks record the
	// decomposition shape per sharded solve, and the _ns histograms time
	// the scan and stitch stages (the solve stage lands in solve_ns /
	// arm_*_ns as usual). shard_scan_ns is recorded on every scan, not just
	// the ones that decompose, so it prices the fall-through overhead too.
	ShardSolves   = NewCounter("shard_solves")
	ShardCount    = NewHistogram("shard_count")
	ShardTasks    = NewHistogram("shard_tasks")
	ShardScanNs   = NewHistogram("shard_scan_ns")
	ShardStitchNs = NewHistogram("shard_stitch_ns")

	// Wall time, nanoseconds. ArmNs is indexed by core.Arm.
	SolveNs = NewHistogram("solve_ns")
	ArmNs   = [3]*Histogram{
		NewHistogram("arm_small_ns"),
		NewHistogram("arm_medium_ns"),
		NewHistogram("arm_large_ns"),
	}

	// Serving layer (internal/serve). Requests counts every /v1/solve that
	// passed decoding; exactly one of hit/miss/dedup follows per request
	// (hit = answered from cache, miss = ran the solver, dedup = shared a
	// concurrent identical solve), and rejected counts load-shed 429s,
	// which are none of the three.
	ServeRequests   = NewCounter("serve_requests")
	ServeCacheHits  = NewCounter("serve_cache_hits")
	ServeCacheMiss  = NewCounter("serve_cache_misses")
	ServeCacheDedup = NewCounter("serve_cache_dedup")
	ServeRejected   = NewCounter("serve_rejected")

	// Admission control: live queue depth (requests admitted to the work
	// queue, waiting or solving), live in-flight solves, and the time each
	// admitted request waited for a worker slot.
	ServeQueueDepth  = NewGauge("serve_queue_depth")
	ServeInFlight    = NewGauge("serve_inflight")
	ServeQueueWaitNs = NewHistogram("serve_queue_wait_ns")

	// Admission-control outcome split: client_gone counts requests whose
	// client disconnected while queued (499); queue timeouts land in
	// serve_rejected's sibling 503 path.
	ServeClientGone = NewCounter("serve_client_gone")

	// Durable solve store (internal/store). Puts are records accepted into
	// the pending batch; batch_flushes counts batches written to the
	// segment log (flush_ns times the whole write, fsync_ns just the
	// fsync when -store-sync is on). replay_ns times the open-time replay
	// of one store, chain_verifies counts Merkle/chain verifications
	// (per batch on replay, plus explicit Verify passes), and
	// tail_truncations counts torn tails dropped during crash recovery.
	// store_records/store_bytes gauge the live index after the last
	// open/flush; serve_store_hits counts responses answered from the
	// persistent tier (an LRU miss that the store satisfied).
	StorePuts            = NewCounter("store_puts")
	StoreGetHits         = NewCounter("store_get_hits")
	StoreGetMisses       = NewCounter("store_get_misses")
	StoreBatchFlushes    = NewCounter("store_batch_flushes")
	StoreFlushNs         = NewHistogram("store_flush_ns")
	StoreFsyncNs         = NewHistogram("store_fsync_ns")
	StoreReplayNs        = NewHistogram("store_replay_ns")
	StoreChainVerifies   = NewCounter("store_chain_verifies")
	StoreTailTruncations = NewCounter("store_tail_truncations")
	StoreRecords         = NewGauge("store_records")
	StoreBytes           = NewGauge("store_bytes")
	ServeStoreHits       = NewCounter("serve_store_hits")

	// Incremental session engine (internal/session). session_deltas counts
	// every successfully applied delta; exactly one of full/incremental
	// follows per delta (full = the whole path re-solved cold because the
	// instance had no zero-load cut or the session forces full solves,
	// incremental = only the shards whose edge windows intersect the
	// delta's dirty region were re-solved). The histograms record per-delta
	// shape: dirty edges touched, shards re-solved, shards reused from the
	// previous allocation. creates/evictions/live track the serving layer's
	// session table (TTL eviction; the max-sessions bound sheds with 429).
	SessionCreates           = NewCounter("session_creates")
	SessionDeltas            = NewCounter("session_deltas")
	SessionFullSolves        = NewCounter("session_full_solves")
	SessionIncrementalSolves = NewCounter("session_incremental_solves")
	SessionEvictions         = NewCounter("session_evictions")
	SessionsLive             = NewGauge("sessions_live")
	SessionDirtyEdges        = NewHistogram("session_dirty_edges")
	SessionResolvedShards    = NewHistogram("session_resolved_shards")
	SessionReusedShards      = NewHistogram("session_reused_shards")
	SessionDeltaNs           = NewHistogram("session_delta_ns")
)

// Reset zeroes every registered series (counters, gauges, histogram counts
// and buckets). Intended for tests and for the start of a fresh run.
func Reset() {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	for _, s := range registry.byName {
		switch m := s.(type) {
		case *Counter:
			m.v.Store(0)
		case *Gauge:
			m.v.Store(0)
		case *Histogram:
			m.count.Store(0)
			m.sum.Store(0)
			for i := range m.buckets {
				m.buckets[i].Store(0)
			}
		}
	}
}

// HistSnapshot is the dumped form of one histogram.
type HistSnapshot struct {
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"`
	// Buckets maps the inclusive lower bound of each non-empty bucket to
	// its count (bucket 0, the ≤0 bucket, is keyed "0").
	Buckets map[string]int64 `json:"buckets,omitempty"`
}

// MetricsSnapshot is a point-in-time copy of the whole registry.
type MetricsSnapshot struct {
	Counters   map[string]int64        `json:"counters"`
	Gauges     map[string]int64        `json:"gauges"`
	Histograms map[string]HistSnapshot `json:"histograms"`
}

// Snapshot copies the registry. Safe to call at any time, including while
// solves are recording; each series is read atomically (the snapshot is
// per-series consistent, not cross-series).
func Snapshot() MetricsSnapshot {
	registry.mu.Lock()
	names := append([]string(nil), registry.names...)
	byName := registry.byName
	registry.mu.Unlock()

	snap := MetricsSnapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistSnapshot{},
	}
	for _, name := range names {
		switch m := byName[name].(type) {
		case *Counter:
			snap.Counters[name] = m.Value()
		case *Gauge:
			snap.Gauges[name] = m.Value()
		case *Histogram:
			hs := HistSnapshot{Count: m.Count(), Sum: m.Sum()}
			for i := 0; i < NumBuckets; i++ {
				if n := m.Bucket(i); n > 0 {
					lo, _ := BucketRange(i)
					if i == 0 {
						lo = 0
					}
					if hs.Buckets == nil {
						hs.Buckets = map[string]int64{}
					}
					hs.Buckets[fmt.Sprintf("%d", lo)] += n
				}
			}
			snap.Histograms[name] = hs
		}
	}
	return snap
}

// DumpText writes a human-readable dump: one line per series, sorted by
// name, histograms with count/mean and their non-empty buckets.
func DumpText(w io.Writer) error {
	snap := Snapshot()
	names := make([]string, 0, len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms))
	for n := range snap.Counters {
		names = append(names, n)
	}
	for n := range snap.Gauges {
		names = append(names, n)
	}
	for n := range snap.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		if v, ok := snap.Counters[name]; ok {
			if _, err := fmt.Fprintf(w, "counter %-28s %d\n", name, v); err != nil {
				return err
			}
			continue
		}
		if v, ok := snap.Gauges[name]; ok {
			if _, err := fmt.Fprintf(w, "gauge   %-28s %d\n", name, v); err != nil {
				return err
			}
			continue
		}
		h := snap.Histograms[name]
		mean := 0.0
		if h.Count > 0 {
			mean = float64(h.Sum) / float64(h.Count)
		}
		var bs []string
		los := make([]int64, 0, len(h.Buckets))
		for k := range h.Buckets {
			var lo int64
			fmt.Sscanf(k, "%d", &lo)
			los = append(los, lo)
		}
		sort.Slice(los, func(i, j int) bool { return los[i] < los[j] })
		for _, lo := range los {
			bs = append(bs, fmt.Sprintf("≥%d:%d", lo, h.Buckets[fmt.Sprintf("%d", lo)]))
		}
		if _, err := fmt.Fprintf(w, "hist    %-28s count=%d mean=%.1f %s\n",
			name, h.Count, mean, strings.Join(bs, " ")); err != nil {
			return err
		}
	}
	return nil
}

// DumpJSON writes the snapshot as indented JSON (map keys are emitted in
// sorted order by encoding/json, so the dump is deterministic for a given
// registry state).
func DumpJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(Snapshot())
}

// Summary renders the one-line operational summary sapstress prints
// periodically: solve ladder, admission, and the busiest work counters.
func Summary() string {
	return fmt.Sprintf(
		"solves=%d (ok=%d deg=%d fail=%d) tasks=%d/%d segtree=%d knap=%d dp=%d bb=%d spans=%d",
		SolvesStarted.Value(), SolvesCompleted.Value(), SolvesDegraded.Value(), SolvesFailed.Value(),
		TasksAdmitted.Value(), TasksInput.Value(),
		SegtreeOps.Value(), KnapsackCells.Value(), DPStates.Value(), BBNodes.Value(),
		SpanCount())
}

// SessionSummary is the incremental-engine counterpart of Summary: one line
// of churn health (deltas split into incremental vs full re-solves, shard
// re-solve vs reuse volume, live session count), appended to periodic
// summaries by tools running a session churn workload.
func SessionSummary() string {
	return fmt.Sprintf(
		"session: deltas=%d (inc=%d full=%d) resolved=%d reused=%d live=%d evicted=%d",
		SessionDeltas.Value(), SessionIncrementalSolves.Value(), SessionFullSolves.Value(),
		SessionResolvedShards.Sum(), SessionReusedShards.Sum(),
		SessionsLive.Value(), SessionEvictions.Value())
}
