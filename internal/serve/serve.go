// Package serve is the long-running serving layer over the solver
// pipeline: an HTTP/JSON API (POST /v1/solve for path and ring instances,
// GET /healthz, GET /metricsz) that reuses model.DecodeJSON / WriteJSON
// as the wire format and core.SolveCtx with per-request deadlines as the
// engine.
//
// In front of the solver sit three production shields, applied in order:
//
//  1. A canonicalization cache (internal/sapcache): the canonical key of
//     the decoded instance — sorted task normal form + capacity profile —
//     is looked up in a doubly-bounded LRU, and a hit is answered from the
//     stored answer without re-entering the solver. SAP workloads
//     are exactly the repeated-instance shape this exploits (the same
//     capacity profile solved under many task mixes), and reuse is sound
//     because responses carry certified approximation ratios.
//  2. A singleflight layer: concurrent identical requests share one
//     underlying solve, so a thundering herd costs one slot.
//  3. Admission control: a bounded work queue sheds load with Retry-After
//     429s on overflow, the per-request deadline is clamped to a server
//     maximum, and queue depth / wait time / in-flight solves are exported
//     through internal/obs.
//
// Cached responses are byte-identical to fresh ones: the server solves the
// canonical form of every instance, so response bytes depend only on the
// instance (not on task order or on which request populated the cache),
// and internal/difftest pins this. The cache and the store hold each
// answer packed (answer.go), and one renderer writes every /v1/solve body
// from it, fresh or cached.
package serve

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sapalloc/internal/core"
	"sapalloc/internal/faultinject"
	"sapalloc/internal/model"
	"sapalloc/internal/obs"
	"sapalloc/internal/ringsap"
	"sapalloc/internal/sapcache"
	"sapalloc/internal/saperr"
	"sapalloc/internal/scratch"
	"sapalloc/internal/session"
	"sapalloc/internal/store"
)

// Config tunes the server. The zero value serves with the documented
// defaults (see withDefaults).
type Config struct {
	// Params configures the path solver (Eps, DeltaDen, Workers, arm
	// knobs). Params.Deadline is ignored: deadlines are per-request,
	// clamped to MaxTimeout. Ring solves derive their parameters from the
	// same struct.
	Params core.Params
	// MaxTimeout is the hard per-request deadline ceiling (default 30s).
	// Requests may ask for less via the ?timeout= query parameter; asking
	// for more (or for nothing) gets DefaultTimeout.
	MaxTimeout time.Duration
	// DefaultTimeout applies when a request names no deadline (default
	// MaxTimeout).
	DefaultTimeout time.Duration
	// Concurrency bounds simultaneous solves (default GOMAXPROCS).
	Concurrency int
	// Queue bounds requests waiting for a solve slot beyond Concurrency
	// (default 64). Arrivals beyond Concurrency+Queue are shed with 429.
	Queue int
	// RetryAfter is the Retry-After hint attached to 429/503 responses
	// (default 1s).
	RetryAfter time.Duration
	// MaxBodyBytes caps the request body (default 32 MiB). Validate's own
	// size limits bound the decoded instance; this bounds the bytes read
	// before decoding.
	MaxBodyBytes int64
	// CacheEntries and CacheTasks bound the canonicalization cache:
	// at most CacheEntries responses, holding at most CacheTasks tasks in
	// total across their instances (defaults 4096 entries, 1<<20 tasks).
	CacheEntries int
	CacheTasks   int64
	// MaxSessions bounds concurrently live incremental sessions (default
	// 1024). Creations past the bound are shed with 429 + the unified
	// Retry-After hint; live sessions are never displaced.
	MaxSessions int
	// SessionTTL evicts sessions idle longer than this (default 15m).
	// Eviction is lazy, on the next session-table access.
	SessionTTL time.Duration
	// Store, when non-nil, is the durable solve store the cache reads
	// through (internal/store): cache misses fall through to it, fresh
	// non-degraded responses are persisted to it, and a restarted server
	// over the same store serves byte-identical responses without
	// re-solving. Nil serves exactly the storeless path. The server does
	// not own the store; the caller closes it after shutdown.
	Store store.Store
}

func (c Config) withDefaults() Config {
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 30 * time.Second
	}
	if c.DefaultTimeout <= 0 || c.DefaultTimeout > c.MaxTimeout {
		c.DefaultTimeout = c.MaxTimeout
	}
	if c.Concurrency <= 0 {
		c.Concurrency = runtime.GOMAXPROCS(0)
	}
	if c.Queue < 0 {
		c.Queue = 0
	} else if c.Queue == 0 {
		c.Queue = 64
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 32 << 20
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 4096
	}
	if c.CacheTasks <= 0 {
		c.CacheTasks = 1 << 20
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 1024
	}
	if c.SessionTTL <= 0 {
		c.SessionTTL = 15 * time.Minute
	}
	return c
}

// Server is the serving layer. Construct with New; it is ready to serve
// immediately and is safe for concurrent use.
type Server struct {
	cfg      Config
	cache    *sapcache.Backed
	flight   sapcache.Group
	queue    chan struct{} // admission tokens: waiting + running
	slots    chan struct{} // solve slots: running only
	draining atomic.Bool
	mux      *http.ServeMux
	sessions *session.Table
	// solveNs is an EWMA of completed solve durations, the basis of the
	// drain-aware Retry-After hint (see retryAfterHint).
	solveNs atomic.Int64
	// prov exposes the store's provenance lookup when the configured
	// store offers one (store.File does, store.Mem does not).
	prov interface {
		Provenance(store.Key) (store.Provenance, bool)
	}
}

// New builds a Server from the config and publishes the obs expvar bridge
// so /metricsz serves live metrics.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	cfg.Params.Deadline = 0 // per-request, never server-wide
	obs.PublishExpvar()
	s := &Server{
		cfg:   cfg,
		cache: sapcache.NewBacked(sapcache.New(cfg.CacheEntries, cfg.CacheTasks), cfg.Store, encodeStored, decodeStored),
		queue: make(chan struct{}, cfg.Concurrency+cfg.Queue),
		slots: make(chan struct{}, cfg.Concurrency),
		mux:   http.NewServeMux(),
	}
	if p, ok := cfg.Store.(interface {
		Provenance(store.Key) (store.Provenance, bool)
	}); ok {
		s.prov = p
	}
	s.sessions = session.NewTable(session.TableOptions{
		MaxSessions: cfg.MaxSessions,
		TTL:         cfg.SessionTTL,
		Session:     session.Options{Params: cfg.Params},
	})
	s.mux.HandleFunc("/v1/solve", s.handleSolve)
	s.mux.HandleFunc("POST /v1/session", s.handleSessionCreate)
	s.mux.HandleFunc("POST /v1/session/{id}/delta", s.handleSessionDelta)
	s.mux.HandleFunc("DELETE /v1/session/{id}", s.handleSessionDelete)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.Handle("/metricsz", expvar.Handler())
	return s
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// StartDrain flips the server into draining mode: /healthz reports 503 so
// load balancers stop routing here, and new solve requests are refused
// with 503 + Retry-After. In-flight requests are unaffected; pair with
// http.Server.Shutdown to let them finish.
func (s *Server) StartDrain() { s.draining.Store(true) }

// Draining reports whether StartDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Typed admission errors.
var (
	// errOverloaded: the work queue is full; the client should retry
	// after backing off (HTTP 429).
	errOverloaded = errors.New("server overloaded: work queue full")
	// errQueueTimeout: the request's deadline expired while it was still
	// waiting for a solve slot (HTTP 503 + Retry-After: the server was
	// busy, trying again later may succeed).
	errQueueTimeout = errors.New("deadline expired while queued")
	// errClientGone: the client closed the connection while the request
	// was still waiting for a solve slot (499-style close: there is
	// nobody left to answer, and no Retry-After to hint).
	errClientGone = errors.New("client closed request while queued")
)

// statusClientClosedRequest is the de-facto (nginx) status for a request
// whose client disconnected before a response could be written; net/http
// has no constant for it.
const statusClientClosedRequest = 499

// cachedResponse is the unit the cache and the singleflight group carry:
// the packed answer (see answer.go) plus the accounting the handler needs.
type cachedResponse struct {
	rec       []byte
	tasks     int  // instance task count = cache cost
	degraded  bool // degraded solves are returned but never cached or persisted
	fromHit   bool // singleflight answer came from a cache re-check
	fromStore bool // ...and that re-check was answered by the durable store
}

// encodeStored/decodeStored are the Backed codec for cachedResponse: the
// durable bytes are the packed answer, so a store hit renders a response
// byte-identical to the one the solve rendered. A value that is not a
// packed answer, such as one in the older format that held the JSON body,
// fails to decode and so reads as a miss: the solve re-runs and its Put
// replaces the value. Degraded responses refuse to encode — the
// degraded-never-persisted rule, enforced at the persistence boundary as
// well as at the Add call sites.
func encodeStored(v any) ([]byte, bool) {
	resp := v.(*cachedResponse)
	if resp.degraded {
		return nil, false
	}
	return resp.rec, true
}

func decodeStored(b []byte) (any, int64, error) {
	h, err := readAnswer(b)
	if err != nil {
		return nil, 0, err
	}
	// Store.Get already returns a copy, so the record can alias it.
	return &cachedResponse{rec: b, tasks: int(h.tasks), degraded: h.degraded}, h.tasks, nil
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		s.refuse(w, http.StatusServiceUnavailable, "draining")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleSolve is POST /v1/solve: decode and validate (the trust boundary),
// canonicalize, then cache → singleflight → admission control → solver.
func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	if s.Draining() {
		s.refuse(w, http.StatusServiceUnavailable, "server draining")
		return
	}
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	timeout, err := s.requestTimeout(r)
	if err != nil {
		body.release()
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	req, err := decodeSolve(body.b)
	body.release()
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	key := req.key
	obs.ServeRequests.Inc()

	// Fast path: canonical-key cache hit (LRU front or durable store)
	// answers without queueing.
	if v, src := s.cache.Get(key); src != sapcache.SourceMiss {
		obs.ServeCacheHits.Inc()
		s.setProvenance(w, key)
		writeSolveResponse(w, v.(*cachedResponse).rec, cacheSourceLabel(src))
		return
	}

	// Slow path: share one underlying solve among concurrent identical
	// requests. The leader re-checks the cache inside the flight (a
	// concurrent leader may have populated it between our Get and Do),
	// admits itself through the bounded queue, solves, and caches.
	v, err, shared := s.flight.Do(key, func() (any, error) {
		if ent, src := s.cache.Get(key); src != sapcache.SourceMiss {
			resp := ent.(*cachedResponse)
			return &cachedResponse{rec: resp.rec, tasks: resp.tasks,
				fromHit: true, fromStore: src == sapcache.SourceStore}, nil
		}
		release, err := s.admit(r.Context(), timeout)
		if err != nil {
			return nil, err
		}
		defer release()
		start := time.Now()
		resp, err := s.solve(req, timeout)
		if err != nil {
			return nil, err
		}
		s.observeSolve(time.Since(start))
		if !resp.degraded {
			s.cache.Add(key, resp, int64(resp.tasks))
		}
		return resp, nil
	})
	if err != nil {
		s.writeSolveError(w, err, shared)
		return
	}
	resp := v.(*cachedResponse)
	source := "miss"
	switch {
	case shared:
		obs.ServeCacheDedup.Inc()
		source = "dedup"
	case resp.fromStore:
		obs.ServeCacheHits.Inc()
		source = "store"
	case resp.fromHit:
		obs.ServeCacheHits.Inc()
		source = "hit"
	default:
		obs.ServeCacheMiss.Inc()
	}
	s.setProvenance(w, key)
	writeSolveResponse(w, resp.rec, source)
}

// maxBodyHint caps the buffer readBody sizes from Content-Length before
// the body arrives, so a request announcing a large body it never sends
// cannot make the server allocate MaxBodyBytes up front; a larger body
// grows the buffer as it is read.
const maxBodyHint = 1 << 20

// bodyBuf is a buffer from bodyPool that holds a request body or a
// rendered response body. Whoever took it calls release once the body is
// decoded or written; nothing may refer into the buffer after that,
// because the next request reads or renders into it.
type bodyBuf struct{ b []byte }

// bodyPool recycles body buffers of at most maxBodyHint+1 bytes, the most
// readBody sizes a buffer from Content-Length; a buffer grown past that
// by a larger body is left to the collector.
var bodyPool = sync.Pool{New: func() any { return new(bodyBuf) }}

func (rb *bodyBuf) release() {
	if cap(rb.b) > maxBodyHint+1 {
		return
	}
	if scratch.Poisoning() {
		// Under test poisoning, anything that kept a reference into
		// the body reads garbage.
		b := rb.b[:cap(rb.b)]
		for i := range b {
			b[i] = 0xA5
		}
	}
	rb.b = rb.b[:0]
	bodyPool.Put(rb)
}

// readBody reads the request body once, bounded by MaxBodyBytes, into a
// pooled buffer of at least the Content-Length: a body of at most
// maxBodyHint bytes costs no allocation once the pool holds a buffer its
// size. On failure readBody writes the 413 or 400 response and returns
// false.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) (*bodyBuf, bool) {
	size := int64(bytes.MinRead)
	if r.ContentLength >= 0 {
		// One byte past the body leaves room for the read that returns
		// io.EOF.
		size = min(r.ContentLength, maxBodyHint, s.cfg.MaxBodyBytes) + 1
	}
	rb := bodyPool.Get().(*bodyBuf)
	b := rb.b[:0]
	if int64(cap(b)) < size {
		b = make([]byte, 0, size)
	}
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	for {
		n, err := body.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			rb.b = b
			return rb, true
		}
		if err != nil {
			rb.b = b
			rb.release()
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				httpError(w, http.StatusRequestEntityTooLarge, "body exceeds %d bytes", tooLarge.Limit)
				return nil, false
			}
			httpError(w, http.StatusBadRequest, "read body: %v", err)
			return nil, false
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)] // let append pick the next capacity
		}
	}
}

// requestTimeout resolves the per-request deadline: the ?timeout= query
// parameter (a Go duration) clamped to MaxTimeout, DefaultTimeout when
// absent.
func (s *Server) requestTimeout(r *http.Request) (time.Duration, error) {
	raw := r.URL.Query().Get("timeout")
	if raw == "" {
		return s.cfg.DefaultTimeout, nil
	}
	d, err := time.ParseDuration(raw)
	if err != nil {
		return 0, fmt.Errorf("timeout parameter: %w", err)
	}
	if d <= 0 {
		return 0, fmt.Errorf("timeout parameter: %v is not positive", d)
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return d, nil
}

// solveRequest is a decoded /v1/solve instance, in sorted normal form, and
// its cache key. Exactly one of path and ring is set.
type solveRequest struct {
	key  sapcache.Key
	path *model.Instance
	ring *model.RingInstance
}

// decodeSolve parses and validates the request body (the trust boundary:
// model.DecodeJSON rejects anything model.Validate would not accept, and
// the canonical key is computed only for admissible instances). The
// handler owns the decoded instance, so its tasks are sorted into normal
// form in place, and the key is hashed from that form.
func decodeSolve(body []byte) (solveRequest, error) {
	in, ring, err := model.DecodeJSON(body)
	if err != nil {
		return solveRequest{}, err
	}
	if ring != nil {
		ring.Normalize()
		return solveRequest{key: sapcache.KeyOfRing(ring), ring: ring}, nil
	}
	in.Normalize()
	return solveRequest{key: sapcache.KeyOf(in), path: in}, nil
}

// solve runs the right solver on the request's instance.
func (s *Server) solve(req solveRequest, timeout time.Duration) (*cachedResponse, error) {
	if req.ring != nil {
		return s.solveRing(req.ring, timeout)
	}
	return s.solvePath(req.path, timeout)
}

// admit passes the request through admission control: a non-blocking
// reservation in the bounded queue (full queue = shed with 429 material),
// then a wait for a solve slot bounded by BOTH the request deadline and the
// client's continued interest (ctx is the request context, done when the
// client disconnects). The two give-up paths are distinguished by typed
// error: a server-side queue-wait expiry is errQueueTimeout (503 +
// Retry-After — the server was busy, a later retry may land), a client
// hang-up is errClientGone (499-style close — nobody is listening, a
// Retry-After hint would be nonsense). The returned release must be called
// when the solve finishes.
func (s *Server) admit(ctx context.Context, timeout time.Duration) (release func(), err error) {
	select {
	case s.queue <- struct{}{}:
	default:
		obs.ServeRejected.Inc()
		return nil, errOverloaded
	}
	obs.ServeQueueDepth.Set(int64(len(s.queue)))
	waitStart := time.Now()
	waitCtx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	select {
	case s.slots <- struct{}{}:
		obs.ServeQueueWaitNs.Record(int64(time.Since(waitStart)))
		obs.ServeInFlight.Set(int64(len(s.slots)))
		return func() {
			<-s.slots
			<-s.queue
			obs.ServeInFlight.Set(int64(len(s.slots)))
			obs.ServeQueueDepth.Set(int64(len(s.queue)))
		}, nil
	case <-waitCtx.Done():
		<-s.queue
		obs.ServeQueueDepth.Set(int64(len(s.queue)))
		// saperr.FromContext types the cause: a cancellation on the
		// request context means the client hung up; otherwise the
		// queue-wait deadline (ours) expired.
		if cerr := saperr.FromContext(ctx); errors.Is(cerr, context.Canceled) {
			obs.ServeClientGone.Inc()
			return nil, errClientGone
		}
		return nil, errQueueTimeout
	}
}

// solvePath runs the combined path solver on the canonical instance and
// renders the response. The solve runs under its own deadline-bound
// context, deliberately detached from any single HTTP request: the result
// is shared with every deduplicated follower and populates the cache, so
// one disconnecting client must not abort it.
func (s *Server) solvePath(in *model.Instance, timeout time.Duration) (*cachedResponse, error) {
	p := s.cfg.Params
	p.Deadline = timeout
	faultinject.Fire(context.Background(), "serve/solve")
	res, err := core.SolveCtx(context.Background(), in, p)
	if err != nil {
		return nil, err
	}
	if err := model.ValidSAP(in, res.Solution); err != nil {
		return nil, fmt.Errorf("%w: solver produced infeasible solution: %v", saperr.ErrInternal, err)
	}
	shards := 0
	if res.Shards != nil {
		shards = res.Shards.Shards
	}
	degraded := res.Report != nil && res.Report.Degraded
	return packResponse(len(in.Tasks), degraded, func(dst []byte) ([]byte, error) {
		return appendPathAnswer(dst, res.Winner.String(), degraded, len(in.Tasks), shards, res.Solution.Items)
	})
}

// solveRing is solvePath for ring instances.
func (s *Server) solveRing(ring *model.RingInstance, timeout time.Duration) (*cachedResponse, error) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	p := ringsap.Params{Eps: s.cfg.Params.Eps, Workers: s.cfg.Params.Workers, Path: s.cfg.Params}
	p.Path.Deadline = timeout
	faultinject.Fire(ctx, "serve/solve")
	res, err := ringsap.SolveCtx(ctx, ring, p)
	if err != nil {
		return nil, err
	}
	if err := model.ValidRingSAP(ring, res.Solution); err != nil {
		return nil, fmt.Errorf("%w: solver produced infeasible ring solution: %v", saperr.ErrInternal, err)
	}
	return packResponse(len(ring.Tasks), res.Degraded, func(dst []byte) ([]byte, error) {
		return appendRingAnswer(dst, res.Winner.String(), res.Degraded, len(ring.Tasks), res.Solution.Items)
	})
}

// packResponse packs a fresh answer with pack in a pooled buffer and keeps
// a copy of just its length, which the cache and the store hold.
func packResponse(tasks int, degraded bool, pack func([]byte) ([]byte, error)) (*cachedResponse, error) {
	buf := bodyPool.Get().(*bodyBuf)
	defer buf.release()
	rec, err := pack(buf.b[:0])
	if err != nil {
		return nil, err
	}
	buf.b = rec
	return &cachedResponse{rec: bytes.Clone(rec), tasks: tasks, degraded: degraded}, nil
}

// solveResponseDoc is the response wire format: appendBody writes exactly
// its json.Marshal from a packed answer. The solution items reuse the
// (task_id, height) shape of model.Solution.WriteJSON, extended with the
// orientation for ring placements.
type solveResponseDoc struct {
	Kind      string `json:"kind"`
	Weight    int64  `json:"weight"`
	Winner    string `json:"winner"`
	Scheduled int    `json:"scheduled"`
	Tasks     int    `json:"tasks"`
	Degraded  bool   `json:"degraded,omitempty"`
	// Shards is the number of independent sub-instances the solve
	// decomposed into at zero-load cut edges; omitted for monolithic
	// solves (no cut) and for ring instances.
	Shards int            `json:"shards,omitempty"`
	Items  []solveItemDoc `json:"items"`
}

type solveItemDoc struct {
	TaskID      int    `json:"task_id"`
	Height      int64  `json:"height"`
	Orientation string `json:"orientation,omitempty"`
}

// byTaskID orders response items by task ID, the order every response
// lists them in. A valid solution places each task once, so the order is
// total.
func byTaskID(a, b solveItemDoc) int { return cmp.Compare(a.TaskID, b.TaskID) }

// pathItems returns the placements as response items in task-ID order,
// leaving the solution itself as it is.
func pathItems(pls []model.Placement) []solveItemDoc {
	items := make([]solveItemDoc, 0, len(pls))
	for _, pl := range pls {
		items = append(items, solveItemDoc{TaskID: pl.Task.ID, Height: pl.Height})
	}
	slices.SortFunc(items, byTaskID)
	return items
}

// provenanceHeader carries the stored solution's position in the durable
// store's tamper-evident log (see store.Provenance.String): batch
// sequence, index within the batch, record leaf hash, batch Merkle root,
// and chain head. Present only when a store with provenance is configured
// and the key's record has been flushed.
const provenanceHeader = "X-Sapalloc-Provenance"

// cacheSourceLabel maps a read-through source to the X-Sapalloc-Cache
// value: "hit" for the in-memory front, "store" for the durable layer.
func cacheSourceLabel(src sapcache.Source) string {
	if src == sapcache.SourceStore {
		return "store"
	}
	return "hit"
}

// setProvenance attaches the provenance header when the durable store
// holds a flushed record for key.
func (s *Server) setProvenance(w http.ResponseWriter, key sapcache.Key) {
	if s.prov == nil {
		return
	}
	if p, ok := s.prov.Provenance(store.Key(key)); ok {
		w.Header().Set(provenanceHeader, p.String())
	}
}

// observeSolve folds a completed solve's duration into the EWMA behind
// the drain-aware Retry-After hint (α = ¼; a lost concurrent update only
// delays convergence of a hint that is already an estimate).
func (s *Server) observeSolve(d time.Duration) {
	old := s.solveNs.Load()
	if old == 0 {
		s.solveNs.Store(int64(d))
		return
	}
	s.solveNs.Store(old + (int64(d)-old)/4)
}

// maxRetryAfter caps the drain-aware hint: past a minute the estimate
// says "come back much later", and 60 is hint enough.
const maxRetryAfter = 60 * time.Second

// retryAfterHint is the single source of the Retry-After header for every
// refusal — 429 queue-full sheds, 503 queue-deadline expiries, 503 drain
// refusals, and 503 leader-abandoned followers all call it, so the two
// back-pressure paths can never drift apart again. The hint is the
// expected drain interval of the current queue: EWMA solve duration ×
// occupied admission tokens / solve slots, floored at the configured
// RetryAfter (which is also the whole hint before any solve completes)
// and capped at maxRetryAfter.
func (s *Server) retryAfterHint() time.Duration {
	hint := s.cfg.RetryAfter
	if ewma := s.solveNs.Load(); ewma > 0 {
		if depth := int64(len(s.queue)); depth > 0 {
			if est := time.Duration(ewma * depth / int64(s.cfg.Concurrency)); est > hint {
				hint = est
			}
		}
	}
	if hint > maxRetryAfter {
		hint = maxRetryAfter
	}
	return hint
}

// refuse writes a refusal that is worth retrying later: the unified
// Retry-After hint plus the standard JSON error document.
func (s *Server) refuse(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Retry-After", retryAfterSeconds(s.retryAfterHint()))
	httpError(w, status, format, args...)
}

// writeSolveResponse renders the packed answer into a pooled buffer and
// writes it.
func writeSolveResponse(w http.ResponseWriter, rec []byte, source string) {
	buf := bodyPool.Get().(*bodyBuf)
	defer buf.release()
	body, err := appendBody(buf.b[:0], rec)
	buf.b = body
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v: render response: %v", saperr.ErrInternal, err)
		return
	}
	writeBody(w, body, source)
}

// writeBody writes a JSON response body, labelled with its cache source.
func writeBody(w http.ResponseWriter, body []byte, source string) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	h.Set("X-Sapalloc-Cache", source)
	_, _ = w.Write(body)
}

// writeSolveError maps the typed error taxonomy onto HTTP statuses:
// overload → 429 (with Retry-After), server queue-wait expiry → 503 (with
// Retry-After), client hang-up while queued → 499 (no Retry-After — the
// requester is gone), infeasible input → 400, cancellation/deadline with
// nothing to show → 504, contained solver bugs → 500.
//
// shared reports that the error came from a deduplicated flight this
// request merely followed. A followed errClientGone means the LEADER's
// client hung up, not ours, so the follower is answered with 503 +
// Retry-After instead: its client is still listening and a retry will
// elect a new leader.
func (s *Server) writeSolveError(w http.ResponseWriter, err error, shared bool) {
	switch {
	case errors.Is(err, errOverloaded):
		s.refuse(w, http.StatusTooManyRequests, "%v", err)
	case errors.Is(err, errQueueTimeout):
		s.refuse(w, http.StatusServiceUnavailable, "%v", err)
	case errors.Is(err, errClientGone):
		if shared {
			s.refuse(w, http.StatusServiceUnavailable, "shared solve abandoned by its leader: %v", err)
			return
		}
		httpError(w, statusClientClosedRequest, "%v", err)
	case errors.Is(err, saperr.ErrInfeasibleInput):
		httpError(w, http.StatusBadRequest, "%v", err)
	case saperr.IsCancelled(err):
		httpError(w, http.StatusGatewayTimeout, "solve deadline expired with no completed arm: %v", err)
	default:
		httpError(w, http.StatusInternalServerError, "%v", err)
	}
}

// httpError writes a small JSON error document (the error counterpart of
// the solve response format).
func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	doc := struct {
		Error  string `json:"error"`
		Status int    `json:"status"`
	}{Error: fmt.Sprintf(format, args...), Status: status}
	_ = json.NewEncoder(w).Encode(doc)
}

func retryAfterSeconds(d time.Duration) string {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}
