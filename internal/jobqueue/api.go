package jobqueue

import (
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"jouppi/internal/telemetry"
	"jouppi/internal/trace"
)

// maxRequestBytes bounds a POST /jobs body; an uploaded trace has to
// fit in it (base64-encoded).
const maxRequestBytes = 64 << 20

// SubmitRequest is the POST /jobs body. A job either names a built-in
// benchmark or uploads a trace, and lists the configurations to fan the
// single trace pass out over (the cachesim -configs grammar).
type SubmitRequest struct {
	// Benchmark and Scale reference a built-in workload.
	Benchmark string  `json:"benchmark,omitempty"`
	Scale     float64 `json:"scale,omitempty"`
	// Trace is a base64-encoded trace body in TraceFormat ("jtr1" or
	// "din"). Lenient decodes damaged uploads with a count-and-skip
	// policy, dropping at most MaxDrops records (0 = unlimited).
	Trace       string `json:"trace,omitempty"`
	TraceFormat string `json:"trace_format,omitempty"`
	Lenient     bool   `json:"lenient,omitempty"`
	MaxDrops    uint64 `json:"max_drops,omitempty"`
	// Configs is the fan-out spec (see ParseConfigs), e.g.
	// "misscache=2;misscache=4;sys=improved". Empty means the paper
	// baseline alone.
	Configs string `json:"configs,omitempty"`
	// Timeout bounds each attempt, Deadline the whole job; Go duration
	// strings ("30s", "2m"). Empty takes the server defaults.
	Timeout  string `json:"timeout,omitempty"`
	Deadline string `json:"deadline,omitempty"`
	// Retries overrides the server's retry budget when non-nil.
	Retries *int `json:"retries,omitempty"`
}

// ToSpec validates the request into a runnable Spec.
func (r *SubmitRequest) ToSpec() (*Spec, error) {
	spec := &Spec{
		Benchmark:   r.Benchmark,
		Scale:       r.Scale,
		TraceFormat: r.TraceFormat,
		Lenient:     r.Lenient,
		MaxDrops:    r.MaxDrops,
		Retries:     -1,
	}
	if r.Trace != "" {
		data, err := base64.StdEncoding.DecodeString(r.Trace)
		if err != nil {
			return nil, fmt.Errorf("jobqueue: trace is not valid base64: %v", err)
		}
		spec.TraceData = data
	}
	cfgs, err := ParseConfigs(r.Configs)
	if err != nil {
		return nil, err
	}
	spec.Configs = cfgs
	if r.Timeout != "" {
		if spec.Timeout, err = time.ParseDuration(r.Timeout); err != nil {
			return nil, fmt.Errorf("jobqueue: timeout: %v", err)
		}
	}
	if r.Deadline != "" {
		if spec.Deadline, err = time.ParseDuration(r.Deadline); err != nil {
			return nil, fmt.Errorf("jobqueue: deadline: %v", err)
		}
	}
	if r.Retries != nil {
		spec.Retries = *r.Retries
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return spec, nil
}

// Server is the daemon's HTTP API over a Queue:
//
//	POST /jobs              submit a job (202; 200 if answered from cache;
//	                        400 invalid; 429 queue full, with Retry-After;
//	                        503 draining)
//	GET  /jobs/{id}         job status, with the result when done
//	GET  /jobs/{id}/events  the job's JSONL event journal, streamed live
//	                        until the job is terminal
//	GET  /healthz           liveness, drain state, store quarantine count
//	GET  /debug/traces      finished job span trees + per-stage SLO summary
//	GET  /metrics, /vars, /debug/...  the telemetry endpoints
type Server struct {
	queue *Queue
	mux   *http.ServeMux

	mu       sync.Mutex
	draining bool
}

// NewServer builds the API. reg must be the registry the queue
// publishes to (it backs /metrics).
func NewServer(q *Queue, reg *telemetry.Registry) *Server {
	s := &Server{queue: q, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	tel := telemetry.Handler(reg)
	s.mux.Handle("GET /metrics", tel)
	s.mux.Handle("GET /vars", tel)
	s.mux.Handle("GET /debug/", tel)
	// More specific than /debug/, so it wins routing: the finished-job
	// span trees and the per-stage SLO summary.
	s.mux.Handle("GET /debug/traces", trace.Handler(q.Tracer(), q.SLO()))
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// SetDraining flips what /healthz reports, so load balancers see the
// drain before the listener closes.
func (s *Server) SetDraining() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

type apiError struct {
	Error string `json:"error"`
}

// decodeSubmit parses a POST /jobs body. Unknown fields are rejected, so
// a field the API does not have (the retired "shards", a typo) gets a
// 400 that names it instead of being silently ignored.
func decodeSubmit(r io.Reader) (SubmitRequest, error) {
	var req SubmitRequest
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	return req, err
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req, err := decodeSubmit(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: fmt.Sprintf("parsing request: %v", err)})
		return
	}
	spec, err := req.ToSpec()
	if err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}
	job, err := s.queue.Submit(spec)
	switch {
	case errors.Is(err, ErrQueueFull):
		// The queue is a fixed-size admission buffer; tell the client to
		// back off briefly and try again rather than queueing unboundedly.
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, apiError{Error: err.Error()})
		return
	case errors.Is(err, ErrDraining):
		writeJSON(w, http.StatusServiceUnavailable, apiError{Error: err.Error()})
		return
	case err != nil:
		writeJSON(w, http.StatusBadRequest, apiError{Error: err.Error()})
		return
	}
	st := job.Status()
	if st.CacheHit {
		// Answered from the result store: the job is already done. A
		// fresh job may be done by now too, but it still gets a 202.
		writeJSON(w, http.StatusOK, st)
		return
	}
	w.Header().Set("Location", "/jobs/"+job.ID())
	writeJSON(w, http.StatusAccepted, st)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	job, ok := s.queue.Job(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: "no such job"})
		return
	}
	writeJSON(w, http.StatusOK, job.Status())
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	job, ok := s.queue.Job(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{Error: "no such job"})
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	_ = job.StreamEvents(r.Context(), func(chunk []byte) error {
		if _, err := w.Write(chunk); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":      "ok",
		"draining":    draining,
		"version":     s.queue.Version(),
		"quarantined": s.queue.opts.Store.Quarantined(),
	})
}
