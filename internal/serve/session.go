package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"time"

	"sapalloc/internal/model"
	"sapalloc/internal/obs"
	"sapalloc/internal/session"
)

// The session API exposes internal/session's incremental engine over HTTP:
//
//	POST   /v1/session            create a session from a path-instance doc
//	POST   /v1/session/{id}/delta apply a task add/remove batch
//	DELETE /v1/session/{id}       drop a session
//
// Unlike /v1/solve, session responses are never cached or deduplicated —
// each session is mutable state with its own identity — but delta solves
// share the server's admission control (bounded queue, 429 shedding) with
// the stateless endpoints, and session creations past the MaxSessions bound
// are shed with 429 + the unified Retry-After hint. Deltas to one session
// serialize on the session's own lock; the solve runs under the request
// context, so a client disconnect mid-delta rolls the delta back (deltas
// are atomic) and a retry sees the untouched previous state.

// sessionDeltaDoc is the delta request wire format. Task fields reuse the
// path-instance task shape.
type sessionDeltaDoc struct {
	Add    []sessionTaskDoc `json:"add"`
	Remove []int            `json:"remove"`
}

type sessionTaskDoc struct {
	ID     int   `json:"id"`
	Start  int   `json:"start"`
	End    int   `json:"end"`
	Demand int64 `json:"demand"`
	Weight int64 `json:"weight"`
}

// sessionResponseDoc is the response to create and delta calls: the updated
// allocation plus the incremental engine's accounting for the applied delta.
type sessionResponseDoc struct {
	SessionID string `json:"session_id"`
	Kind      string `json:"kind"` // always "session"
	Weight    int64  `json:"weight"`
	Scheduled int    `json:"scheduled"`
	Tasks     int    `json:"tasks"`
	// Shards/ResolvedShards/ReusedShards account the delta's recomputation:
	// resolved counts shards re-solved, reused counts shards carried over
	// from the previous allocation. Full marks deltas that re-solved the
	// whole path (no zero-load cut).
	Shards         int            `json:"shards"`
	ResolvedShards int            `json:"resolved_shards"`
	ReusedShards   int            `json:"reused_shards"`
	Full           bool           `json:"full,omitempty"`
	DirtyEdges     int            `json:"dirty_edges"`
	Items          []solveItemDoc `json:"items"`
}

// handleSessionCreate is POST /v1/session: the body is a path-instance JSON
// document; its capacity profile becomes the session's, and its tasks are
// applied as the first delta. Responds like a delta with the fresh
// session_id.
func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
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
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// The trust boundary: only admissible path instances create sessions.
	in, err := model.ReadInstanceJSON(bytes.NewReader(body))
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	id, sess, err := s.sessions.Create(in.Capacity)
	if errors.Is(err, session.ErrTableFull) {
		s.refuse(w, http.StatusTooManyRequests, "%v", err)
		return
	}
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	res, err := s.applySessionDelta(r.Context(), timeout, sess, session.Delta{Add: in.Tasks})
	if err != nil {
		// The initial solve failed: don't leak a half-created session.
		s.sessions.Delete(id)
		s.writeSolveError(w, err, false)
		return
	}
	writeSessionResponse(w, id, res)
}

// handleSessionDelta is POST /v1/session/{id}/delta.
func (s *Server) handleSessionDelta(w http.ResponseWriter, r *http.Request) {
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
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	var doc sessionDeltaDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		httpError(w, http.StatusBadRequest, "decode delta: %v", err)
		return
	}
	id := r.PathValue("id")
	sess, ok := s.sessions.Get(id)
	if !ok {
		httpError(w, http.StatusNotFound, "session %q not found (expired or deleted)", id)
		return
	}
	d := session.Delta{Remove: doc.Remove}
	for _, t := range doc.Add {
		d.Add = append(d.Add, model.Task{ID: t.ID, Start: t.Start, End: t.End, Demand: t.Demand, Weight: t.Weight})
	}
	res, err := s.applySessionDelta(r.Context(), timeout, sess, d)
	if err != nil {
		s.writeSolveError(w, err, false)
		return
	}
	writeSessionResponse(w, id, res)
}

// handleSessionDelete is DELETE /v1/session/{id}. Deletes are allowed while
// draining — they release resources.
func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.sessions.Delete(id) {
		httpError(w, http.StatusNotFound, "session %q not found (expired or deleted)", id)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// applySessionDelta runs one delta through admission control (admission
// first, session lock second — the session lock is only ever taken while
// holding a solve slot, so slot-holders cannot deadlock behind each other)
// and under the per-request deadline tied to the request context.
func (s *Server) applySessionDelta(ctx context.Context, timeout time.Duration, sess *session.Session, d session.Delta) (*session.Result, error) {
	release, err := s.admit(ctx, timeout)
	if err != nil {
		return nil, err
	}
	defer release()
	solveCtx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	obs.ServeRequests.Inc()
	start := time.Now()
	res, err := sess.Apply(solveCtx, d)
	if err != nil {
		return nil, err
	}
	s.observeSolve(time.Since(start))
	return res, nil
}

func writeSessionResponse(w http.ResponseWriter, id string, res *session.Result) {
	sol := res.Solution.Clone().SortByID()
	doc := sessionResponseDoc{
		SessionID:      id,
		Kind:           "session",
		Weight:         res.Weight,
		Scheduled:      sol.Len(),
		Tasks:          res.Tasks,
		Shards:         res.Shards,
		ResolvedShards: res.Resolved,
		ReusedShards:   res.Reused,
		Full:           res.Full,
		DirtyEdges:     res.DirtyEdges,
		Items:          []solveItemDoc{},
	}
	for _, pl := range sol.Items {
		doc.Items = append(doc.Items, solveItemDoc{TaskID: pl.Task.ID, Height: pl.Height})
	}
	body, err := json.Marshal(doc)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "render response: %v", err)
		return
	}
	body = append(body, '\n')
	writeSolveResponse(w, body, "session")
}
