// HTTP surface of the solver service. NewHandler wires the scheduler
// into a mux the daemon (cmd/hpfserve) and the tests both serve:
//
//	POST /jobs             submit a JobSpec; 202 + id, 429 on overflow
//	GET  /jobs/{id}        job status; ?wait=1[&timeout=30s] blocks
//	GET  /jobs/{id}/trace  Perfetto trace download (jobs with trace:true)
//	GET  /metrics          Prometheus text format
//	GET  /healthz          liveness (always 200 while the process runs)
//	GET  /readyz           readiness (503 once draining)
//
// POST /jobs accepts an optional X-Request-ID header (one is generated
// when absent) and echoes it on the response, so a request can be
// correlated across router→shard proxy hops and logs.
package serve

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"
)

// MaxBodyBytes bounds a submission body, at the shard and at the
// cluster router alike (Matrix Market uploads can be large, but not
// unbounded).
const MaxBodyBytes = 64 << 20

// maxPresize caps the buffer ReadBody reserves before a byte arrives.
// A Content-Length is the client's claim, not data: a header declaring
// MaxBodyBytes and then a trickle must not hold 64 MB per connection.
// Bodies up to the cap (serve_cold's are ≈ 100 KB) still cost one
// buffer; larger ones grow as they arrive.
const maxPresize = 1 << 20

// ReadBody reads a submission body once, into a buffer sized from its
// Content-Length up to maxPresize. On failure it returns the status to
// answer with: 413 for a body over MaxBodyBytes (refused unread when its
// Content-Length says so), 400 for a read that failed.
func ReadBody(w http.ResponseWriter, r *http.Request) ([]byte, int, error) {
	if r.ContentLength > MaxBodyBytes {
		return nil, http.StatusRequestEntityTooLarge, &http.MaxBytesError{Limit: MaxBodyBytes}
	}
	// Room for the declared length and for the read that returns io.EOF,
	// so a body of the declared size costs one buffer.
	var buf bytes.Buffer
	buf.Grow(int(min(max(r.ContentLength, 0), maxPresize)) + bytes.MinRead)
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, MaxBodyBytes)); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return nil, http.StatusRequestEntityTooLarge, err
		}
		return nil, http.StatusBadRequest, err
	}
	return buf.Bytes(), 0, nil
}

// defaultWaitTimeout bounds ?wait=1 long-polls.
const defaultWaitTimeout = 60 * time.Second

// NewHandler returns the service's HTTP handler.
func NewHandler(s *Scheduler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) { handleSubmit(s, w, r) })
	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) { handleGet(s, w, r) })
	mux.HandleFunc("GET /jobs/{id}/trace", func(w http.ResponseWriter, r *http.Request) { handleTrace(s, w, r) })
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.Metrics().WriteProm(w)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	// Readiness is distinct from liveness: a draining scheduler is
	// still alive (it answers status polls for in-flight jobs) but must
	// stop receiving new traffic, so load balancers watch /readyz.
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if s.Draining() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ready")
	})
	return mux
}

// RequestIDHeader carries the correlation ID across proxy hops.
const RequestIDHeader = "X-Request-ID"

// EnsureRequestID returns the request's correlation ID, generating one
// when the client sent none.
func EnsureRequestID(r *http.Request) string {
	if id := r.Header.Get(RequestIDHeader); id != "" {
		return id
	}
	var b [6]byte
	_, _ = rand.Read(b[:])
	return "req-" + hex.EncodeToString(b[:])
}

// submitResponse acknowledges an admitted job.
type submitResponse struct {
	ID        string `json:"id"`
	StatusURL string `json:"status_url"`
}

// ErrorResponse is the body of every failed request, shard's and
// router's alike.
type ErrorResponse struct {
	Error string `json:"error"`
}

// WriteJSON answers with status code and v as the JSON body, HTML left
// unescaped: the one writer the shard's and the router's answers share.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func handleSubmit(s *Scheduler, w http.ResponseWriter, r *http.Request) {
	w.Header().Set(RequestIDHeader, EnsureRequestID(r))
	body, status, err := ReadBody(w, r)
	if err != nil {
		WriteJSON(w, status, ErrorResponse{Error: "bad job spec: " + err.Error()})
		return
	}
	spec, err := DecodeJobSpec(body)
	if err != nil {
		WriteJSON(w, http.StatusBadRequest, ErrorResponse{Error: "bad job spec: " + err.Error()})
		return
	}
	j, err := s.Submit(spec)
	if err != nil {
		retry := strconv.Itoa(int((s.RetryAfter() + time.Second - 1) / time.Second))
		var verr *ValidationError
		switch {
		case errors.As(err, &verr):
			WriteJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
		case errors.Is(err, ErrQueueFull):
			// Backpressure: the queue is at capacity. 429 + Retry-After
			// tells closed-loop clients when to come back.
			w.Header().Set("Retry-After", retry)
			WriteJSON(w, http.StatusTooManyRequests, ErrorResponse{Error: err.Error()})
		case errors.Is(err, ErrDraining):
			w.Header().Set("Retry-After", retry)
			WriteJSON(w, http.StatusServiceUnavailable, ErrorResponse{Error: err.Error()})
		default:
			WriteJSON(w, http.StatusInternalServerError, ErrorResponse{Error: err.Error()})
		}
		return
	}
	WriteJSON(w, http.StatusAccepted, submitResponse{ID: j.ID, StatusURL: "/jobs/" + j.ID})
}

func handleGet(s *Scheduler, w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if wait := r.URL.Query().Get("wait"); wait != "" && wait != "0" && wait != "false" {
		timeout := defaultWaitTimeout
		if ts := r.URL.Query().Get("timeout"); ts != "" {
			d, err := time.ParseDuration(ts)
			if err != nil {
				WriteJSON(w, http.StatusBadRequest, ErrorResponse{Error: "bad timeout: " + err.Error()})
				return
			}
			timeout = d
		}
		ctx, cancel := context.WithTimeout(r.Context(), timeout)
		defer cancel()
		v, err := s.Wait(ctx, id)
		switch {
		case err == nil:
			WriteJSON(w, http.StatusOK, v)
		case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
			// Long-poll expired: report the current state instead.
			if v, ok := s.View(id); ok {
				WriteJSON(w, http.StatusOK, v)
				return
			}
			WriteJSON(w, http.StatusNotFound, ErrorResponse{Error: "unknown job " + id})
		default:
			WriteJSON(w, http.StatusNotFound, ErrorResponse{Error: err.Error()})
		}
		return
	}
	v, ok := s.View(id)
	if !ok {
		WriteJSON(w, http.StatusNotFound, ErrorResponse{Error: "unknown job " + id})
		return
	}
	WriteJSON(w, http.StatusOK, v)
}

func handleTrace(s *Scheduler, w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	v, ok := s.View(id)
	if !ok {
		WriteJSON(w, http.StatusNotFound, ErrorResponse{Error: "unknown job " + id})
		return
	}
	if v.State == StateQueued || v.State == StateRunning {
		WriteJSON(w, http.StatusConflict, ErrorResponse{Error: "job " + id + " still " + string(v.State)})
		return
	}
	tr, ok := s.TraceJSON(id)
	if !ok {
		WriteJSON(w, http.StatusNotFound, ErrorResponse{Error: "job " + id + " has no trace (submit with trace:true)"})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", `attachment; filename="`+id+`.trace.json"`)
	_, _ = w.Write(tr)
}
