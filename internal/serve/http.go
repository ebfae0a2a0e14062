package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"time"

	"github.com/ildp/accdbt/internal/alphaprog"
	"github.com/ildp/accdbt/internal/workload"
)

// maxImageBytes bounds a submitted program image; anything larger is a
// 413, not an allocation.
const maxImageBytes = 16 << 20

// apiError is the JSON error envelope of every non-2xx response.
type apiError struct {
	Error  string `json:"error"`
	Reason string `json:"reason,omitempty"`
}

// Handler returns the service's HTTP API: session lifecycle under
// /sessions, scheduler stats under /stats, and the telemetry plane
// (/metrics, /events, /vms, /healthz, /readyz) on every other path.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /sessions", s.handleSubmit)
	mux.HandleFunc("GET /sessions", s.handleList)
	mux.HandleFunc("GET /sessions/{id}", s.handleSession)
	mux.HandleFunc("GET /sessions/{id}/checkpoint", s.handleCheckpoint)
	mux.HandleFunc("DELETE /sessions/{id}", s.handleKill)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.Handle("/", s.plane.Handler())
	return mux
}

// handleSubmit admits a session. The program comes either from the
// request body (an alphaprog image) or, with ?workload=NAME[&scale=N]
// [&seed=N], from the built-in workload generators. The tenant is the
// X-Tenant header (or ?tenant=); empty means the anonymous tenant.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	tenant := r.Header.Get("X-Tenant")
	if tenant == "" {
		tenant = r.URL.Query().Get("tenant")
	}
	var prog *alphaprog.Program
	name := "image"
	if wl := r.URL.Query().Get("workload"); wl != "" {
		scale := 1
		if v, err := strconv.Atoi(r.URL.Query().Get("scale")); err == nil && v > 0 {
			scale = v
		}
		seed := uint64(0)
		if v, err := strconv.ParseUint(r.URL.Query().Get("seed"), 10, 64); err == nil {
			seed = v
		}
		spec, err := workload.ByNameSeeded(wl, scale, seed)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad workload", err.Error())
			return
		}
		prog, err = spec.Program()
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad workload", err.Error())
			return
		}
		name = wl
	} else {
		body := http.MaxBytesReader(w, r.Body, maxImageBytes)
		p, err := alphaprog.Load(body)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad image", err.Error())
			return
		}
		prog = p
	}
	sess, err := s.Submit(prog, tenant, name)
	if err != nil {
		switch {
		case errors.Is(err, ErrDraining):
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable, "draining", err.Error())
		case errors.Is(err, ErrQueueFull):
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, "queue_full", err.Error())
		case errors.Is(err, ErrTenantQuota):
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, "tenant_quota", err.Error())
		default:
			writeError(w, http.StatusInternalServerError, "submit", err.Error())
		}
		return
	}
	writeJSON(w, http.StatusAccepted, sess.view())
}

// handleList returns every session in admission order.
func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.SessionViews())
}

// handleSession returns one session, optionally long-polling:
// ?wait=MILLIS blocks, for at most 2 s as /metrics?wait= does, until the
// session reaches a terminal state, so a client can submit-and-wait
// without spinning.
func (s *Server) handleSession(w http.ResponseWriter, r *http.Request) {
	sess, err := s.Session(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, "no_session", err.Error())
		return
	}
	if ms, err := strconv.Atoi(r.URL.Query().Get("wait")); err == nil && ms > 0 {
		timer := time.NewTimer(time.Duration(min(ms, 2000)) * time.Millisecond)
		defer timer.Stop()
		select {
		case <-sess.Done():
		case <-timer.C:
		case <-r.Context().Done():
		}
	}
	writeJSON(w, http.StatusOK, sess.view())
}

// handleCheckpoint serves the final encoded architected state of a
// completed session — the bytes the differential harnesses decode and
// compare bit-for-bit against an uninterrupted interpreter run. A
// session that is still live (or ended without a final checkpoint) is
// a 409.
func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	sess, err := s.Session(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, "no_session", err.Error())
		return
	}
	final := sess.FinalCheckpoint()
	if final == nil {
		writeError(w, http.StatusConflict, "not_finished",
			"session has no final checkpoint (state "+string(sess.StateNow())+")")
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(final)
}

// handleKill requests termination; the session settles StateKilled at
// its next V-instruction boundary (mid-quantum) or next dequeue.
func (s *Server) handleKill(w http.ResponseWriter, r *http.Request) {
	sess, err := s.Session(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, "no_session", err.Error())
		return
	}
	sess.Kill()
	writeJSON(w, http.StatusAccepted, sess.view())
}

// handleStats serves the scheduler snapshot.
func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// writeJSON writes v as a JSON response body with the given status.
// The Content-Type header is set before the status is written, since
// headers set after WriteHeader are dropped.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// writeError writes the JSON error envelope with the given status.
func writeError(w http.ResponseWriter, code int, kind, reason string) {
	writeJSON(w, code, apiError{Error: kind, Reason: reason})
}
