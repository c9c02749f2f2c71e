package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"sapalloc/internal/core"
	"sapalloc/internal/exact"
	"sapalloc/internal/largesap"
	"sapalloc/internal/mediumsap"
	"sapalloc/internal/model"
	"sapalloc/internal/ringsap"
	"sapalloc/internal/sapcache"
	"sapalloc/internal/scratch"
	"sapalloc/internal/session"
	"sapalloc/internal/shard"
	"sapalloc/internal/smallsap"
	"sapalloc/internal/store"
)

// span is one timed call into a layer, replayed from the benchmark.
type span struct {
	Req    int    `json:"req"` // request sequence index; -1 for set-up
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a top-level span
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	N      int64  `json:"n,omitempty"` // a count the call returned (shards, degraded)
}

// tracer keeps the spans of a traced run in memory, one slice per client
// goroutine, until the run ends.
type tracer struct {
	epoch   time.Time
	clients []clientSpans
	// bodies keeps a few solve bodies for the decode-allocation pass.
	mu     sync.Mutex
	bodies [][]byte
	errs   []error
}

type clientSpans struct {
	spans []span
	next  int
}

const decodeAllocSample = 64

func newTracer(clients int) *tracer {
	return &tracer{epoch: time.Now(), clients: make([]clientSpans, clients+1)}
}

// recorder records the spans of one request on one client.
type recorder struct {
	t      *tracer
	client int
	req    int
}

// span times fn as a span named name under parent and returns its ID. fn
// returns the span's count attribute.
func (r *recorder) span(parent int, name string, fn func() int64) int {
	cs := &r.t.clients[r.client]
	cs.next++
	id := cs.next*len(r.t.clients) + r.client
	start := time.Since(r.t.epoch)
	n := fn()
	cs.spans = append(cs.spans, span{Req: r.req, ID: id, Parent: parent, Name: name,
		Start: int64(start), End: int64(time.Since(r.t.epoch)), N: n})
	return id
}

func (r *recorder) fail(err error) {
	r.t.mu.Lock()
	r.t.errs = append(r.t.errs, fmt.Errorf("replay of request %d: %w", r.req, err))
	r.t.mu.Unlock()
}

// replay records the call's HTTP span and replays it through the layers.
func (t *tracer) replay(client int, c *call, w workload) {
	cs := &t.clients[client]
	cs.next++
	cs.spans = append(cs.spans, span{Req: c.idx, ID: cs.next*len(t.clients) + client, Name: "http",
		Start: int64(c.sentAt.Sub(t.epoch)), End: int64(c.sentAt.Add(c.latency).Sub(t.epoch))})
	if _, ok := c.meta.(*deltaMeta); !ok {
		t.mu.Lock()
		if len(t.bodies) < decodeAllocSample {
			t.bodies = append(t.bodies, c.body)
		}
		t.mu.Unlock()
	}
	w.replay(&recorder{t: t, client: client, req: c.idx}, c)
}

// setupSpan times fn as a top-level span of the set-up (request -1); set-up
// runs before the clients start.
func (t *tracer) setupSpan(name string, fn func()) {
	r := &recorder{t: t, client: len(t.clients) - 1, req: -1}
	r.span(0, name, func() int64 { fn(); return 0 })
}

func (t *tracer) all() []span {
	var out []span
	for _, cs := range t.clients {
		out = append(out, cs.spans...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// serveParams are the path solver parameters sapserved solves with: its
// default flags, and the default per-request deadline (no ?timeout=).
var serveParams = core.Params{Eps: 0.5, Deadline: 30 * time.Second}

// replaySolve replays a /v1/solve call in the handler's order: decode,
// canonicalize, key; then, by the response's cache source, the store read
// or the solve, its validation and the response rendering. A solve's arm
// calls follow as children of its core.solve span. st is the traced run's
// copy of the server's store, nil when the workload has none.
func replaySolve(r *recorder, c *call, st *store.File) {
	var in *model.Instance
	var ring *model.RingInstance
	var err error
	r.span(0, "model.decode", func() int64 {
		in, ring, err = decodeSolve(c.body)
		return 0
	})
	if err != nil {
		r.fail(err)
		return
	}
	var key sapcache.Key
	if ring != nil {
		r.span(0, "model.canonicalize", func() int64 { ring = ring.Canonicalize(); return 0 })
		r.span(0, "sapcache.key", func() int64 { key = sapcache.KeyOfRing(ring); return 0 })
	} else {
		r.span(0, "model.canonicalize", func() int64 { in = in.Canonicalize(); return 0 })
		r.span(0, "sapcache.key", func() int64 { key = sapcache.KeyOf(in); return 0 })
	}
	switch c.source {
	case "store":
		if st == nil {
			r.fail(fmt.Errorf("store hit without a store copy"))
			return
		}
		r.span(0, "store.get", func() int64 {
			var ok bool
			if _, ok, err = st.Get(store.Key(key)); err == nil && !ok {
				err = fmt.Errorf("key %v not in the store copy", key)
			}
			return 0
		})
	case "miss":
		if ring != nil {
			err = replayRing(r, ring)
		} else {
			err = replayPath(r, in)
		}
	}
	if err != nil {
		r.fail(err)
	}
}

// decodeSolve is the handler's kind probe plus the model reader (parse and
// Validate).
func decodeSolve(body []byte) (*model.Instance, *model.RingInstance, error) {
	var probe struct {
		Kind string `json:"kind"`
	}
	if err := json.Unmarshal(body, &probe); err != nil {
		return nil, nil, err
	}
	if probe.Kind == "ring" {
		ring, err := model.ReadRingJSON(bytes.NewReader(body))
		return nil, ring, err
	}
	in, err := model.ReadInstanceJSON(bytes.NewReader(body))
	return in, nil, err
}

func replayPath(r *recorder, in *model.Instance) error {
	var res *core.Result
	var err error
	solve := r.span(0, "core.solve", func() int64 {
		res, err = core.SolveCtx(context.Background(), in, serveParams)
		return 0
	})
	if err != nil {
		return err
	}
	r.span(0, "model.validsap", func() int64 { err = model.ValidSAP(in, res.Solution); return 0 })
	if err != nil {
		return err
	}
	r.span(0, "serve.encode", func() int64 {
		doc := solveDoc{Kind: "path", Weight: res.Solution.Weight(), Scheduled: res.Solution.Len(),
			Tasks: len(in.Tasks), Items: renderItems(res.Solution)}
		_, err = json.Marshal(doc)
		return 0
	})
	if err != nil {
		return err
	}
	replayArms(r, solve, in)
	return nil
}

// replayArms replays what core.SolveCtx runs inside, as children of its
// span: the shard scan, then per shard (or once, without a cut) the
// partition and the three arms with the parameters core gives them. Arms
// run concurrently in the server; here they run one after another, so
// their sum is busy time, not wall time.
func replayArms(r *recorder, parent int, in *model.Instance) {
	ctx := context.Background()
	var plan *shard.Plan
	r.span(parent, "shard.scan", func() int64 { plan = shard.Compute(ctx, in); return int64(plan.Len()) })
	exactOpts := exact.Options{Deadline: serveParams.Deadline / 2}
	if !plan.Decomposes() {
		replayMono(r, parent, in, 0, exactOpts)
		return
	}
	inner := core.Params{Eps: 0.5, Workers: 1, Small: smallsap.Params{Workers: 1}, Exact: exactOpts,
		Shard: shard.Options{Disable: true}}
	for i := 0; i < plan.Len(); i++ {
		sub := plan.SubInstance(i)
		r.span(parent, "shard.solve", func() int64 {
			withArena(ctx, func(ctx context.Context) { _, _ = core.SolveCtx(ctx, sub, inner) })
			return 0
		})
		replayMono(r, parent, sub, 1, exactOpts)
	}
}

func replayMono(r *recorder, parent int, in *model.Instance, workers int, exactOpts exact.Options) {
	var small, medium, large []model.Task
	r.span(parent, "core.partition", func() int64 { small, medium, large = core.Partition(in, 16); return 0 })
	r.span(parent, "smallsap.solve", func() int64 {
		withArena(context.Background(), func(ctx context.Context) {
			_, _ = smallsap.SolveCtx(ctx, in.Restrict(small), smallsap.Params{Workers: workers})
		})
		return 0
	})
	r.span(parent, "mediumsap.solve", func() int64 {
		var degraded int64
		withArena(context.Background(), func(ctx context.Context) {
			res, err := mediumsap.SolveCtx(ctx, in.Restrict(medium), mediumsap.Params{
				Eps: 0.5, BetaNum: 1, BetaDen: 4, Exact: exactOpts, Workers: workers})
			if err == nil && res.Degraded {
				degraded = 1
			}
		})
		return degraded
	})
	r.span(parent, "largesap.solve", func() int64 {
		withArena(context.Background(), func(ctx context.Context) {
			_, _ = largesap.SolveCtx(ctx, in.Restrict(large), largesap.Options{})
		})
		return 0
	})
}

// withArena runs fn with a scratch arena, as core gives each arm one.
func withArena(ctx context.Context, fn func(context.Context)) {
	a := scratch.Get()
	defer scratch.Put(a)
	fn(scratch.With(ctx, a))
}

func replayRing(r *recorder, ring *model.RingInstance) error {
	var res *ringsap.Result
	var err error
	r.span(0, "ringsap.solve", func() int64 {
		ctx, cancel := context.WithTimeout(context.Background(), serveParams.Deadline)
		defer cancel()
		res, err = ringsap.SolveCtx(ctx, ring, ringsap.Params{Eps: 0.5, Path: serveParams})
		return 0
	})
	if err != nil {
		return err
	}
	r.span(0, "model.validsap", func() int64 { err = model.ValidRingSAP(ring, res.Solution); return 0 })
	if err != nil {
		return err
	}
	r.span(0, "serve.encode", func() int64 {
		items := append([]model.RingPlacement(nil), res.Solution.Items...)
		sort.Slice(items, func(i, j int) bool { return items[i].Task.ID < items[j].Task.ID })
		doc := solveDoc{Kind: "ring", Weight: res.Solution.Weight(), Scheduled: len(items), Tasks: len(ring.Tasks)}
		for _, pl := range items {
			doc.Items = append(doc.Items, itemDoc{TaskID: pl.Task.ID, Height: pl.Height, Orientation: pl.Orientation.String()})
		}
		_, err = json.Marshal(doc)
		return 0
	})
	return err
}

// replayDelta replays a session delta in the handler's order on the
// session's mirror: decode, apply, and the response rendering; the shard
// scan of the new task set is timed on its own.
func replayDelta(r *recorder, c *call, sessions []*churnSession) {
	m := c.meta.(*deltaMeta)
	cs := sessions[m.s]
	var err error
	r.span(0, "serve.decode_delta", func() int64 {
		var doc deltaDoc
		err = json.Unmarshal(c.body, &doc)
		return 0
	})
	if err != nil {
		r.fail(err)
		return
	}
	var res *session.Result
	apply := r.span(0, "session.apply", func() int64 {
		res, err = cs.mirror.Apply(context.Background(), m.delta)
		return 0
	})
	if err != nil {
		r.fail(err)
		return
	}
	r.span(0, "serve.encode", func() int64 {
		_, err = json.Marshal(renderItems(res.Solution))
		return 0
	})
	// Apply scans the new task set for cuts; time that scan on its own.
	in := &model.Instance{Capacity: cs.capacity, Tasks: cs.mirror.Tasks()}
	r.span(apply, "shard.scan", func() int64 { return int64(shard.Compute(context.Background(), in).Len()) })
	if err != nil {
		r.fail(err)
	}
}

// decodeAllocKB measures the allocation of the handler's decode on a
// sample of the run's bodies, one at a time after the timed phase, so no
// other goroutine allocates meanwhile.
func (t *tracer) decodeAllocKB() float64 {
	if len(t.bodies) == 0 {
		return 0
	}
	var total uint64
	var before, after runtime.MemStats
	for _, body := range t.bodies {
		runtime.ReadMemStats(&before)
		_, _, _ = decodeSolve(body)
		runtime.ReadMemStats(&after)
		total += after.TotalAlloc - before.TotalAlloc
	}
	return float64(total) / float64(len(t.bodies)) / 1024
}

// layerDef is one per-layer metric, the end-to-end metric and workload it
// should move, and, for a mean span duration, the span it is measured on.
type layerDef struct {
	Name, Unit, Better, Moves, On string
	Span                          string
}

var layers = []layerDef{
	{"serve.self_ms", "ms", "lower", "latency_p50_ms", "hot-repeat", ""},
	{"serve.queue_wait_ms", "ms", "lower", "latency_p90_ms", "cold-dense", ""},
	{"serve.encode_us", "us", "lower", "latency_p50_ms", "session-churn", "serve.encode"},
	{"model.decode_us", "us", "lower", "throughput_rps", "hot-repeat", "model.decode"},
	{"model.decode_alloc_kb", "KiB", "lower", "alloc_kb_per_req", "hot-repeat", ""},
	{"model.canonicalize_us", "us", "lower", "throughput_rps", "hot-repeat", "model.canonicalize"},
	{"model.validsap_us", "us", "lower", "latency_p50_ms", "cold-archipelago", "model.validsap"},
	{"sapcache.key_us", "us", "lower", "throughput_rps", "hot-repeat", "sapcache.key"},
	{"sapcache.hit_ratio", "ratio", "higher", "latency_p50_ms", "hot-repeat", ""},
	{"store.hit_ratio", "ratio", "higher", "latency_p90_ms", "hot-repeat", ""},
	{"store.get_us", "us", "lower", "latency_p90_ms", "hot-repeat", "store.get"},
	{"store.replay_ms", "ms", "lower", "setup_s", "hot-repeat", "store.open"},
	{"store.flush_ms", "ms", "lower", "setup_s", "hot-repeat", ""},
	{"shard.scan_us", "us", "lower", "latency_p50_ms", "session-churn", "shard.scan"},
	{"shard.count", "count", "lower", "alloc_kb_per_req", "cold-archipelago", ""},
	{"shard.critical_path_frac", "ratio", "lower", "latency_p50_ms", "cold-archipelago", ""},
	{"shard.stitch_us", "us", "lower", "latency_p50_ms", "cold-archipelago", ""},
	{"core.solve_ms", "ms", "lower", "throughput_rps", "cold-dense", "core.solve"},
	{"core.partition_us", "us", "lower", "latency_p50_ms", "cold-archipelago", "core.partition"},
	{"smallsap.solve_ms", "ms", "lower", "cpu_ms_per_req", "cold-archipelago", "smallsap.solve"},
	{"mediumsap.solve_ms", "ms", "lower", "throughput_rps latency_p50_ms", "cold-dense", "mediumsap.solve"},
	{"mediumsap.degraded_frac", "ratio", "lower", "exact_frac weight_vs_lp", "cold-dense", ""},
	{"mediumsap.exact_fallbacks", "count", "lower", "exact_frac", "cold-dense", ""},
	{"largesap.solve_ms", "ms", "lower", "cpu_ms_per_req", "cold-archipelago", "largesap.solve"},
	{"largesap.dp_states", "count", "lower", "cpu_ms_per_req", "cold-archipelago", ""},
	{"ringsap.solve_ms", "ms", "lower", "latency_p90_ms", "cold-dense", "ringsap.solve"},
	{"session.apply_ms", "ms", "lower", "latency_p50_ms", "session-churn", "session.apply"},
	{"session.resolved_shards", "count", "lower", "cpu_ms_per_req", "session-churn", ""},
	{"session.reuse_ratio", "ratio", "higher", "throughput_rps", "session-churn", ""},
	{"session.full_frac", "ratio", "lower", "latency_p90_ms", "session-churn", ""},
	{"trace.latency_p50_ms", "ms", "lower", "latency_p50_ms", "every workload: the traced run's p50 beside the untraced one", ""},
}

// nsPer converts span nanoseconds to a layer metric's unit.
var nsPer = map[string]float64{"us": 1e3, "ms": 1e6}

// perLayer computes the per-layer metrics of a traced run from its
// spans, the server's obs series over the timed phase and the workload's
// own counts. A layer that does not run on the workload reads 0.
func perLayer(spans []span, p *phase, w workload, t *tracer) map[string]float64 {
	m := map[string]float64{}
	type agg struct {
		sum, n float64
		nsum   float64
	}
	byName := map[string]*agg{}
	type reqAgg struct {
		http, top        float64
		hasHTTP          bool
		shardMax, shards float64
	}
	byReq := map[int]*reqAgg{}
	for _, s := range spans {
		d := float64(s.End - s.Start)
		a := byName[s.Name]
		if a == nil {
			a = &agg{}
			byName[s.Name] = a
		}
		a.sum += d
		a.n++
		a.nsum += float64(s.N)
		if s.Req < 0 {
			continue
		}
		ra := byReq[s.Req]
		if ra == nil {
			ra = &reqAgg{}
			byReq[s.Req] = ra
		}
		switch {
		case s.Name == "http":
			ra.http, ra.hasHTTP = d, true
		case s.Parent == 0:
			ra.top += d
		case s.Name == "shard.solve":
			ra.shards += d
			if d > ra.shardMax {
				ra.shardMax = d
			}
		}
	}
	for _, l := range layers {
		if a := byName[l.Span]; l.Span != "" && a != nil && a.n > 0 {
			m[l.Name] = a.sum / a.n / nsPer[l.Unit]
		}
	}
	if a := byName["mediumsap.solve"]; a != nil && a.n > 0 {
		m["mediumsap.degraded_frac"] = a.nsum / a.n
	}
	if a := byName["shard.scan"]; a != nil && a.n > 0 {
		m["shard.count"] = a.nsum / a.n
	}
	var self, selfN, crit, critN float64
	for _, ra := range byReq {
		if ra.hasHTTP {
			self += ra.http - ra.top
			selfN++
		}
		if ra.shards > 0 {
			crit += ra.shardMax / ra.shards
			critN++
		}
	}
	if selfN > 0 {
		m["serve.self_ms"] = self / selfN / 1e6
	}
	if critN > 0 {
		m["shard.critical_path_frac"] = crit / critN
	}
	m["serve.queue_wait_ms"] = histMean([2]int64{}, p.hists["serve_queue_wait_ns"]) / 1e6
	m["shard.stitch_us"] = histMean([2]int64{}, p.hists["shard_stitch_ns"]) / 1e3
	m["mediumsap.exact_fallbacks"] = perRequest(float64(p.counters["medium_exact_fallbacks"]), p.attempted)
	m["largesap.dp_states"] = perRequest(float64(p.counters["largesap_dp_states"]), p.attempted)
	m["sapcache.hit_ratio"] = perRequest(float64(p.sources["hit"]), p.attempted)
	m["store.hit_ratio"] = perRequest(float64(p.sources["store"]), p.attempted)
	m["model.decode_alloc_kb"] = t.decodeAllocKB()
	if len(p.latMs) > 0 {
		m["trace.latency_p50_ms"] = percentile(p.latMs, 0.5)
	}
	w.layerMetrics(m)
	return m
}

// writeSpans writes the run's provenance and spans as one JSON document.
func writeSpans(path string, prov any, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Provenance any    `json:"provenance"`
		Spans      []span `json:"spans"`
	}{prov, spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
