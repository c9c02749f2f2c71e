package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/bits"
	"math/rand"
	"os"
	"path/filepath"

	"sapalloc/internal/core"
	"sapalloc/internal/gen"
	"sapalloc/internal/model"
	"sapalloc/internal/oracle"
	"sapalloc/internal/session"
	"sapalloc/internal/shard"
	"sapalloc/internal/store"
)

// workload is one seeded traffic mix.
type workload interface {
	info() workloadInfo
	// setup starts a fresh server and brings it to the state the timed
	// phase assumes; its duration is the workload's set-up time.
	setup(b *bench) (*server, error)
	// round encodes calls [seq, seq+n) of the request sequence.
	round(seq, n int) ([]*call, error)
	// check verifies one answered call of the timed phase and reports
	// whether its response is marked degraded.
	check(c *call) (degraded bool, err error)
	// finish runs the end-of-run checks and returns weight_vs_lp.
	finish() (float64, error)
	// replay re-runs an answered call through the layer functions.
	replay(r *recorder, c *call)
	// layerMetrics adds the per-layer metrics the workload observes in
	// responses and set-up.
	layerMetrics(m map[string]float64)
	close()
}

// workloadInfo is the provenance of a workload.
type workloadInfo struct {
	Name      string `json:"name"`
	Why       string `json:"why"`
	Generator string `json:"generator"`
	Clients   int    `json:"clients"`
	round     int    // calls encoded per round
}

var workloadNames = []string{"cold-dense", "cold-archipelago", "hot-repeat", "session-churn"}

// newWorkload builds a workload and encodes its set-up requests, so that
// set-up time is the server's preparation only.
func newWorkload(name string, seed int64, clients int) (workload, error) {
	switch name {
	case "cold-dense":
		return newColdDense(seed, clients)
	case "cold-archipelago":
		return newColdArchipelago(seed, clients)
	case "hot-repeat":
		return newHotRepeat(seed, clients)
	case "session-churn":
		return newSessionChurn(seed, clients)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// mix derives the generator seed of item i of a stream from the run seed
// (splitmix64), so every input is a pure function of the seed.
func mix(seed int64, stream, i int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(stream)<<40 + uint64(i)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return int64((z ^ z>>31) >> 1)
}

// Streams of mix: the timed sequence and the warm-up pass never share an
// instance. The warm-up pass draws from warmSeed, not the run's seed, so
// set-up does the same work on every run.
const (
	streamTimed = iota
	streamWarm
	streamPerm
	streamSession
	streamDelta
)

const warmSeed = 0

func encode(write func(*bytes.Buffer) error) ([]byte, error) {
	var buf bytes.Buffer
	err := write(&buf)
	return buf.Bytes(), err
}

// solveReq is what a /v1/solve call carried: exactly one of path and ring.
type solveReq struct {
	path *model.Instance
	ring *model.RingInstance
}

func solveCall(idx int, q *solveReq) (*call, error) {
	var body []byte
	var err error
	if q.ring != nil {
		body, err = encode(func(b *bytes.Buffer) error { return q.ring.WriteJSON(b) })
	} else {
		body, err = encode(func(b *bytes.Buffer) error { return q.path.WriteJSON(b) })
	}
	return &call{idx: idx, owner: -1, method: "POST", path: "/v1/solve", body: body, meta: q}, err
}

// solveDoc is the /v1/solve response.
type solveDoc struct {
	Kind      string    `json:"kind"`
	Weight    int64     `json:"weight"`
	Scheduled int       `json:"scheduled"`
	Tasks     int       `json:"tasks"`
	Degraded  bool      `json:"degraded"`
	Shards    int       `json:"shards"`
	Items     []itemDoc `json:"items"`
}

type itemDoc struct {
	TaskID      int    `json:"task_id"`
	Height      int64  `json:"height"`
	Orientation string `json:"orientation,omitempty"`
}

// checkSolve checks a /v1/solve response against the instance it answers:
// oracle feasibility, and the reported weight and counts against the items.
func checkSolve(q *solveReq, resp []byte) (*solveDoc, error) {
	var doc solveDoc
	if err := json.Unmarshal(resp, &doc); err != nil {
		return nil, fmt.Errorf("decode response: %w", err)
	}
	if doc.Scheduled != len(doc.Items) {
		return nil, fmt.Errorf("scheduled %d, %d items", doc.Scheduled, len(doc.Items))
	}
	if q.ring != nil {
		if doc.Kind != "ring" || doc.Tasks != len(q.ring.Tasks) {
			return nil, fmt.Errorf("kind %q with %d tasks for a ring of %d", doc.Kind, doc.Tasks, len(q.ring.Tasks))
		}
		byID := make(map[int]model.RingTask, len(q.ring.Tasks))
		for _, t := range q.ring.Tasks {
			byID[t.ID] = t
		}
		sol := &model.RingSolution{}
		for _, it := range doc.Items {
			t, ok := byID[it.TaskID]
			if !ok {
				return nil, fmt.Errorf("unknown task %d", it.TaskID)
			}
			o := model.Clockwise
			if it.Orientation == model.CounterClockwise.String() {
				o = model.CounterClockwise
			}
			sol.Items = append(sol.Items, model.RingPlacement{Task: t, Orientation: o, Height: it.Height})
		}
		if err := oracle.CheckRing(q.ring, sol); err != nil {
			return nil, err
		}
		if sol.Weight() != doc.Weight {
			return nil, fmt.Errorf("reported weight %d, items weigh %d", doc.Weight, sol.Weight())
		}
		return &doc, nil
	}
	if doc.Kind != "path" || doc.Tasks != len(q.path.Tasks) {
		return nil, fmt.Errorf("kind %q with %d tasks for a path of %d", doc.Kind, doc.Tasks, len(q.path.Tasks))
	}
	sol, err := pathSolution(q.path.Tasks, doc.Items)
	if err != nil {
		return nil, err
	}
	if err := oracle.CheckSAP(q.path, sol); err != nil {
		return nil, err
	}
	if err := oracle.CheckWeight(sol, doc.Weight); err != nil {
		return nil, err
	}
	return &doc, nil
}

func pathSolution(tasks []model.Task, items []itemDoc) (*model.Solution, error) {
	byID := make(map[int]model.Task, len(tasks))
	for _, t := range tasks {
		byID[t.ID] = t
	}
	sol := &model.Solution{}
	for _, it := range items {
		t, ok := byID[it.TaskID]
		if !ok {
			return nil, fmt.Errorf("unknown task %d", it.TaskID)
		}
		sol.Items = append(sol.Items, model.Placement{Task: t, Height: it.Height})
	}
	return sol, nil
}

// lpRatio accumulates Σ served weight and Σ oracle.LPBound over path
// instances.
type lpRatio struct {
	weight int64
	lp     float64
}

func (r *lpRatio) add(in *model.Instance, weight int64) error {
	b, err := oracle.LPBound(in)
	if err != nil {
		return err
	}
	r.weight += weight
	r.lp += b.Value
	return nil
}

func (r *lpRatio) value() (float64, error) {
	if r.lp <= 0 {
		return 0, fmt.Errorf("weight_vs_lp: no path instance with a positive LP bound")
	}
	return float64(r.weight) / r.lp, nil
}

// lpSample caps the timed path responses weight_vs_lp is computed over:
// the first lpSample path calls of the sequence.
const lpSample = 256

// cold sends distinct instances, each once: every request is a cache miss.
type cold struct {
	inf     workloadInfo
	seed    int64
	make    func(seed int64, stream, i int) *solveReq
	warm    []*call // the set-up's warm-up calls, never sent themselves
	quality lpRatio
}

func newColdDense(seed int64, clients int) (*cold, error) {
	return newCold(&cold{
		inf: workloadInfo{
			Name:      "cold-dense",
			Why:       "distinct dense paths and rings, each sent once: every request is a cache miss and nearly all time is the medium arm's exact search",
			Generator: "3 in 4: gen.Random{Edges 24, Tasks 56, MaxSpan 8, Mixed}, redrawn until no zero-load cut; 1 in 4: gen.Ring(seed, 16, 16, 64, 257)",
			Clients:   clients,
			round:     256,
		},
		seed: seed,
		make: func(seed int64, stream, i int) *solveReq {
			if i%4 == 3 {
				return &solveReq{ring: gen.Ring(mix(seed, stream, i), 16, 16, 64, 257)}
			}
			for k := 0; ; k++ {
				in := gen.Random(gen.Config{Seed: mix(seed, stream, i<<8|k), Edges: 24, Tasks: 56, MaxSpan: 8, Class: gen.Mixed})
				if !shard.Compute(context.Background(), in).Decomposes() {
					return &solveReq{path: in}
				}
			}
		},
	}, 4)
}

func newColdArchipelago(seed int64, clients int) (*cold, error) {
	return newCold(&cold{
		inf: workloadInfo{
			Name:      "cold-archipelago",
			Why:       "distinct archipelagos, each sent once: the only workload on the sharded solve path (scan, scatter, per-shard arms, stitch)",
			Generator: "gen.Archipelago{Islands 32, IslandEdges 8, GapEdges 2, TasksPerIsland 10, Mixed}",
			Clients:   clients,
			round:     512,
		},
		seed: seed,
		make: func(seed int64, stream, i int) *solveReq {
			return &solveReq{path: gen.Archipelago(gen.ArchipelagoConfig{
				Seed: mix(seed, stream, i), Islands: 32, IslandEdges: 8, GapEdges: 2, TasksPerIsland: 10, Class: gen.Mixed,
			})}
		},
	}, 16)
}

// newCold encodes the workload's warm calls.
func newCold(w *cold, warm int) (*cold, error) {
	for i := 0; i < warm; i++ {
		c, err := solveCall(i, w.make(warmSeed, streamWarm, i))
		if err != nil {
			return nil, err
		}
		w.warm = append(w.warm, c)
	}
	return w, nil
}

func (w *cold) info() workloadInfo { return w.inf }

func (w *cold) setup(b *bench) (*server, error) {
	srv, err := startServer()
	if err != nil {
		return nil, err
	}
	calls := make([]*call, len(w.warm))
	for i, tmpl := range w.warm {
		c := *tmpl
		calls[i] = &c
	}
	if err := sendAll(srv.url, calls, b.clients); err != nil {
		srv.kill()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	for _, c := range calls {
		if _, err := checkSolve(c.meta.(*solveReq), c.resp); err != nil {
			srv.kill()
			return nil, fmt.Errorf("warm-up request %d: %w", c.idx, err)
		}
	}
	return srv, nil
}

func (w *cold) round(seq, n int) ([]*call, error) {
	calls := make([]*call, n)
	for i := range calls {
		c, err := solveCall(seq+i, w.make(w.seed, streamTimed, seq+i))
		if err != nil {
			return nil, err
		}
		calls[i] = c
	}
	return calls, nil
}

func (w *cold) check(c *call) (bool, error) {
	q := c.meta.(*solveReq)
	doc, err := checkSolve(q, c.resp)
	if err != nil {
		return false, fmt.Errorf("request %d: %w", c.idx, err)
	}
	if q.path != nil && c.idx < lpSample {
		if err := w.quality.add(q.path, doc.Weight); err != nil {
			return false, err
		}
	}
	return doc.Degraded, nil
}

func (w *cold) finish() (float64, error)        { return w.quality.value() }
func (w *cold) replay(r *recorder, c *call)     { replaySolve(r, c, nil) }
func (w *cold) layerMetrics(map[string]float64) {}
func (w *cold) close()                          {}

// hotRepeat serves a working set that is already solved and stored: the
// solver never runs in the timed phase.
type hotRepeat struct {
	inf     workloadInfo
	seed    int64
	set     []*model.Instance
	bodies  [][]byte   // request body of instance k for the fill pass
	perms   [][][]byte // perms[k][p]: body of permutation p of instance k
	fill    [][]byte   // fill-pass response body per instance
	flushNs [2]int64   // store_flush_ns of the filling server
	dir     string
	copy    *store.File // the traced run's reopened copy of the filled log
}

const (
	hotSet      = 128
	hotPerms    = 4
	hotLRU      = 64
	hotMemSlots = 64
	hotObjects  = 400
)

func newHotRepeat(seed int64, clients int) (*hotRepeat, error) {
	w := &hotRepeat{
		inf: workloadInfo{
			Name:      "hot-repeat",
			Why:       "a solved, stored working set twice the LRU front, resent as task-order permutations: decode, canonicalize, key, LRU and store reads, no solver",
			Generator: fmt.Sprintf("%d x gen.MemTrace{Slots %d, Objects %d}, %d permutations each; LRU front %d entries over a store.File", hotSet, hotMemSlots, hotObjects, hotPerms, hotLRU),
			Clients:   clients,
			round:     2048,
		},
		seed: seed,
	}
	for k := 0; k < hotSet; k++ {
		in := gen.MemTrace(gen.MemTraceConfig{Seed: mix(w.seed, streamTimed, k), Slots: hotMemSlots, Objects: hotObjects})
		w.set = append(w.set, in)
		body, err := encode(func(b *bytes.Buffer) error { return in.WriteJSON(b) })
		if err != nil {
			return nil, err
		}
		w.bodies = append(w.bodies, body)
		r := rand.New(rand.NewSource(mix(w.seed, streamPerm, k)))
		var perms [][]byte
		for p := 0; p < hotPerms; p++ {
			perm := in.Clone()
			r.Shuffle(len(perm.Tasks), func(i, j int) { perm.Tasks[i], perm.Tasks[j] = perm.Tasks[j], perm.Tasks[i] })
			body, err := encode(func(b *bytes.Buffer) error { return perm.WriteJSON(b) })
			if err != nil {
				return nil, err
			}
			perms = append(perms, body)
		}
		w.perms = append(w.perms, perms)
	}
	return w, nil
}

func (w *hotRepeat) info() workloadInfo { return w.inf }

func (w *hotRepeat) serverArgs() []string {
	return []string{"-store-dir", w.dir, "-cache-entries", fmt.Sprint(hotLRU)}
}

// setup is the warm restart: a fill pass through a fresh server, which
// flushes and closes its store on shutdown, then a second server that
// replays and verifies the log.
func (w *hotRepeat) setup(b *bench) (*server, error) {
	w.dir = filepath.Join(b.workdir, "hot-store")
	if err := os.RemoveAll(w.dir); err != nil {
		return nil, err
	}
	filler, err := startServer(w.serverArgs()...)
	if err != nil {
		return nil, err
	}
	calls := make([]*call, hotSet)
	for k, body := range w.bodies {
		calls[k] = &call{idx: k, owner: -1, method: "POST", path: "/v1/solve", body: body}
	}
	if err := sendAll(filler.url, calls, b.clients); err != nil {
		filler.kill()
		return nil, fmt.Errorf("fill pass: %w", err)
	}
	w.fill = make([][]byte, hotSet)
	for k, c := range calls {
		doc, err := checkSolve(&solveReq{path: w.set[k]}, c.resp)
		if err == nil && doc.Degraded {
			err = fmt.Errorf("working-set instance %d degraded: it would be re-solved on every request", k)
		}
		if err != nil {
			filler.kill()
			return nil, fmt.Errorf("fill pass: %w", err)
		}
		w.fill[k] = c.resp
	}
	final, err := filler.stop()
	if err != nil {
		return nil, fmt.Errorf("fill server: %w", err)
	}
	w.flushNs = final.Hists["store_flush_ns"]
	if b.tr != nil {
		if err := w.openCopy(b.workdir, b.tr); err != nil {
			return nil, err
		}
	}
	return startServer(w.serverArgs()...)
}

// openCopy opens a copy of the filled log in this process for the traced
// replay's store reads, with a span around the open (replay and verify).
func (w *hotRepeat) openCopy(workdir string, tr *tracer) error {
	dst := filepath.Join(workdir, "hot-store-copy")
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(w.dir)
	if err != nil {
		return err
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(w.dir, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	if w.copy != nil {
		w.copy.Close()
	}
	tr.setupSpan("store.open", func() { w.copy, err = store.OpenFile(dst, store.FileConfig{FlushInterval: -1}) })
	return err
}

type hotMeta struct{ k, p int }

func (w *hotRepeat) round(seq, n int) ([]*call, error) {
	calls := make([]*call, n)
	for i := range calls {
		h := uint64(mix(w.seed, streamTimed, seq+i))
		k, p := int(h%hotSet), int(h>>32%hotPerms)
		calls[i] = &call{idx: seq + i, owner: -1, method: "POST", path: "/v1/solve", body: w.perms[k][p], meta: hotMeta{k, p}}
	}
	return calls, nil
}

func (w *hotRepeat) check(c *call) (bool, error) {
	m := c.meta.(hotMeta)
	if !bytes.Equal(c.resp, w.fill[m.k]) {
		return false, fmt.Errorf("request %d: body differs from the fill-pass body of instance %d", c.idx, m.k)
	}
	return false, nil
}

func (w *hotRepeat) finish() (float64, error) {
	var q lpRatio
	for k, in := range w.set {
		var doc solveDoc
		if err := json.Unmarshal(w.fill[k], &doc); err != nil {
			return 0, err
		}
		if err := q.add(in, doc.Weight); err != nil {
			return 0, err
		}
	}
	return q.value()
}

func (w *hotRepeat) replay(r *recorder, c *call) { replaySolve(r, c, w.copy) }

func (w *hotRepeat) layerMetrics(m map[string]float64) {
	m["store.flush_ms"] = histMean([2]int64{}, w.flushNs) / 1e6
}

func (w *hotRepeat) close() {
	if w.copy != nil {
		w.copy.Close()
	}
}

// sessionChurn drives incremental sessions with small deltas, each
// toggling tasks inside one island of an archipelago profile.
type sessionChurn struct {
	inf      workloadInfo
	seed     int64
	clients  int
	sessions []*churnSession
	rng      *rand.Rand
	// Counts over the timed phase's answered deltas.
	deltas, resolved, reused, full int
}

const (
	churnPerClient = 16
	churnIslands   = 16
	churnEdges     = 8
	churnCands     = 12 // candidate tasks per island
)

// churnSession is one session: its candidate tasks, the planned task set
// (advanced as deltas are encoded) and the applied one (advanced as
// deltas are answered).
type churnSession struct {
	capacity []int64
	cands    []model.Task // ID = index
	initial  bitset       // the task set at creation
	create   []byte       // the creation request body

	id      string
	planned bitset
	applied bitset
	last    []byte           // items of the last answered response
	lastW   int64            // its weight
	mirror  *session.Session // traced run: the replayed session
}

type bitset [(churnIslands*churnCands + 63) / 64]uint64

func (s *bitset) has(i int) bool { return s[i/64]>>(i%64)&1 != 0 }
func (s *bitset) flip(i int)     { s[i/64] ^= 1 << (i % 64) }
func (s *bitset) count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

func (s *churnSession) tasks(set bitset) []model.Task {
	var out []model.Task
	for i, t := range s.cands {
		if set.has(i) {
			out = append(out, t)
		}
	}
	return out
}

func newSessionChurn(seed int64, clients int) (*sessionChurn, error) {
	w := &sessionChurn{
		inf: workloadInfo{
			Name:      "session-churn",
			Why:       "incremental sessions whose deltas toggle 1-3 tasks in one island: session bookkeeping, one dirty shard, the shard scan and the whole-allocation response",
			Generator: fmt.Sprintf("%d sessions per client over gen.Archipelago{Islands %d, IslandEdges %d, GapEdges 2, TasksPerIsland %d, Mixed} candidates, each present at creation with probability 1/2", churnPerClient, churnIslands, churnEdges, churnCands),
			Clients:   clients,
			round:     2048,
		},
		seed:    seed,
		clients: clients,
	}
	n := churnPerClient * clients
	for s := 0; s < n; s++ {
		in := gen.Archipelago(gen.ArchipelagoConfig{
			Seed: mix(seed, streamSession, s), Islands: churnIslands, IslandEdges: churnEdges,
			GapEdges: 2, TasksPerIsland: churnCands, Class: gen.Mixed,
		})
		cs := &churnSession{capacity: in.Capacity, cands: in.Tasks}
		r := rand.New(rand.NewSource(mix(seed, streamSession, n+s)))
		for i := range cs.cands {
			if r.Intn(2) == 0 {
				cs.initial.flip(i)
			}
		}
		create := &model.Instance{Capacity: cs.capacity, Tasks: cs.tasks(cs.initial)}
		var err error
		if cs.create, err = encode(func(b *bytes.Buffer) error { return create.WriteJSON(b) }); err != nil {
			return nil, err
		}
		w.sessions = append(w.sessions, cs)
	}
	return w, nil
}

func (w *sessionChurn) info() workloadInfo { return w.inf }

// sessionParams are the solver parameters sapserved gives sessions.
var sessionParams = core.Params{Eps: 0.5}

func (w *sessionChurn) setup(b *bench) (*server, error) {
	srv, err := startServer()
	if err != nil {
		return nil, err
	}
	w.rng = rand.New(rand.NewSource(mix(w.seed, streamDelta, 0)))
	calls := make([]*call, len(w.sessions))
	for s, cs := range w.sessions {
		calls[s] = &call{idx: s, owner: s % w.clients, method: "POST", path: "/v1/session", body: cs.create}
	}
	if err := sendAll(srv.url, calls, b.clients); err != nil {
		srv.kill()
		return nil, fmt.Errorf("create sessions: %w", err)
	}
	for s, c := range calls {
		cs := w.sessions[s]
		var doc sessionDoc
		if err := json.Unmarshal(c.resp, &doc); err != nil || doc.SessionID == "" {
			srv.kill()
			return nil, fmt.Errorf("create session %d: %v", s, err)
		}
		cs.id, cs.planned, cs.mirror = doc.SessionID, cs.initial, nil
		if err := cs.accept(&doc, cs.initial); err != nil {
			srv.kill()
			return nil, fmt.Errorf("create session %d: %w", s, err)
		}
		if b.tr != nil {
			if cs.mirror, err = session.New(cs.capacity, session.Options{Params: sessionParams}); err != nil {
				srv.kill()
				return nil, err
			}
			if _, err := cs.mirror.Apply(context.Background(), session.Delta{Add: cs.tasks(cs.initial)}); err != nil {
				srv.kill()
				return nil, err
			}
		}
	}
	return srv, nil
}

// sessionDoc is the session create/delta response.
type sessionDoc struct {
	SessionID      string          `json:"session_id"`
	Weight         int64           `json:"weight"`
	Scheduled      int             `json:"scheduled"`
	Tasks          int             `json:"tasks"`
	ResolvedShards int             `json:"resolved_shards"`
	ReusedShards   int             `json:"reused_shards"`
	Full           bool            `json:"full"`
	Items          json.RawMessage `json:"items"`
}

// accept checks a response against the session's task set after the
// delta, and records it as the session's latest allocation.
func (cs *churnSession) accept(doc *sessionDoc, set bitset) error {
	var items []itemDoc
	if err := json.Unmarshal(doc.Items, &items); err != nil {
		return err
	}
	if doc.Tasks != set.count() || doc.Scheduled != len(items) {
		return fmt.Errorf("tasks %d scheduled %d, want %d tasks and %d items", doc.Tasks, doc.Scheduled, set.count(), len(items))
	}
	var weight int64
	for _, it := range items {
		if it.TaskID < 0 || it.TaskID >= len(cs.cands) || !set.has(it.TaskID) {
			return fmt.Errorf("item for absent task %d", it.TaskID)
		}
		weight += cs.cands[it.TaskID].Weight
	}
	if weight != doc.Weight {
		return fmt.Errorf("reported weight %d, items weigh %d", doc.Weight, weight)
	}
	cs.applied, cs.last, cs.lastW = set, doc.Items, doc.Weight
	return nil
}

type deltaMeta struct {
	s     int    // session index
	after bitset // planned task set after the delta
	delta session.Delta
}

type deltaDoc struct {
	Add    []taskDoc `json:"add"`
	Remove []int     `json:"remove"`
}

type taskDoc struct {
	ID     int   `json:"id"`
	Start  int   `json:"start"`
	End    int   `json:"end"`
	Demand int64 `json:"demand"`
	Weight int64 `json:"weight"`
}

// round encodes the next deltas, cycling over the sessions; each client
// sends the deltas of its own sessions in order.
func (w *sessionChurn) round(seq, n int) ([]*call, error) {
	calls := make([]*call, n)
	for i := range calls {
		s := (seq + i) % len(w.sessions)
		cs := w.sessions[s]
		island := w.rng.Intn(churnIslands)
		picks := w.rng.Perm(churnCands)[:1+w.rng.Intn(3)]
		m := &deltaMeta{s: s}
		var doc deltaDoc
		for _, p := range picks {
			id := island*churnCands + p
			t := cs.cands[id]
			if cs.planned.has(id) {
				doc.Remove = append(doc.Remove, id)
				m.delta.Remove = append(m.delta.Remove, id)
			} else {
				doc.Add = append(doc.Add, taskDoc{ID: t.ID, Start: t.Start, End: t.End, Demand: t.Demand, Weight: t.Weight})
				m.delta.Add = append(m.delta.Add, t)
			}
			cs.planned.flip(id)
		}
		m.after = cs.planned
		body, err := json.Marshal(doc)
		if err != nil {
			return nil, err
		}
		calls[i] = &call{idx: seq + i, owner: s % w.clients, method: "POST", path: "/v1/session/" + cs.id + "/delta", body: body, meta: m}
	}
	return calls, nil
}

func (w *sessionChurn) check(c *call) (bool, error) {
	m := c.meta.(*deltaMeta)
	var doc sessionDoc
	if err := json.Unmarshal(c.resp, &doc); err != nil {
		return false, fmt.Errorf("delta %d: %w", c.idx, err)
	}
	if err := w.sessions[m.s].accept(&doc, m.after); err != nil {
		return false, fmt.Errorf("delta %d: %w", c.idx, err)
	}
	w.deltas++
	w.resolved += doc.ResolvedShards
	w.reused += doc.ReusedShards
	if doc.Full {
		w.full++
	}
	return false, nil
}

// finish checks that every session's last allocation is byte-identical to
// a cold solve of its task set and feasible by the oracle, and returns
// weight_vs_lp over those final states.
func (w *sessionChurn) finish() (float64, error) {
	var q lpRatio
	for s, cs := range w.sessions {
		in := &model.Instance{Capacity: cs.capacity, Tasks: cs.tasks(cs.applied)}
		res, err := core.SolveCtx(context.Background(), in, sessionParams)
		if err != nil {
			return 0, fmt.Errorf("session %d: cold solve: %w", s, err)
		}
		want, err := json.Marshal(renderItems(res.Solution))
		if err != nil {
			return 0, err
		}
		if !bytes.Equal(want, cs.last) {
			return 0, fmt.Errorf("session %d: allocation differs from a cold solve of its %d tasks", s, len(in.Tasks))
		}
		var items []itemDoc
		if err := json.Unmarshal(cs.last, &items); err != nil {
			return 0, err
		}
		sol, err := pathSolution(in.Tasks, items)
		if err != nil {
			return 0, err
		}
		if err := oracle.CheckSAP(in, sol); err != nil {
			return 0, fmt.Errorf("session %d: %w", s, err)
		}
		if err := q.add(in, cs.lastW); err != nil {
			return 0, err
		}
	}
	return q.value()
}

// renderItems renders a path solution's items as the server does: sorted
// by task ID.
func renderItems(sol *model.Solution) []itemDoc {
	sorted := sol.Clone().SortByID()
	items := make([]itemDoc, 0, sorted.Len())
	for _, pl := range sorted.Items {
		items = append(items, itemDoc{TaskID: pl.Task.ID, Height: pl.Height})
	}
	return items
}

func (w *sessionChurn) replay(r *recorder, c *call) { replayDelta(r, c, w.sessions) }

func (w *sessionChurn) layerMetrics(m map[string]float64) {
	if w.deltas == 0 {
		return
	}
	m["session.resolved_shards"] = float64(w.resolved) / float64(w.deltas)
	if w.resolved+w.reused > 0 {
		m["session.reuse_ratio"] = float64(w.reused) / float64(w.resolved+w.reused)
	}
	m["session.full_frac"] = float64(w.full) / float64(w.deltas)
}

func (w *sessionChurn) close() {}
