package jobqueue

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"
	"unicode/utf8"

	"jouppi/internal/telemetry"
	"jouppi/internal/trace"
)

// maxRequestBytes bounds a POST /jobs body; an uploaded trace has to
// fit in it (base64-encoded).
const maxRequestBytes = 64 << 20

// maxPresize bounds the buffer readBody allocates before a body's bytes
// arrive.
const maxPresize = 4 << 20

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
	var data []byte
	if r.Trace != "" {
		var err error
		if data, err = base64.StdEncoding.DecodeString(r.Trace); err != nil {
			return nil, fmt.Errorf("jobqueue: trace is not valid base64: %v", err)
		}
	}
	return r.spec(data)
}

// spec validates the request into a runnable Spec that uploads data,
// the already decoded trace; r.Trace is not read.
func (r *SubmitRequest) spec(data []byte) (*Spec, error) {
	spec := &Spec{
		Benchmark:   r.Benchmark,
		Scale:       r.Scale,
		TraceData:   data,
		TraceFormat: r.TraceFormat,
		Lenient:     r.Lenient,
		MaxDrops:    r.MaxDrops,
		Retries:     -1,
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

// readBody reads a POST /jobs body whole. A body declared or found to
// be longer than maxRequestBytes is refused before a buffer that large
// exists. The buffer is presized from the declared Content-Length, but
// by at most maxPresize: a longer body grows it as its bytes arrive, so
// what a client claims cannot make the daemon hold memory it never sent.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	if r.ContentLength > maxRequestBytes {
		return nil, &http.MaxBytesError{Limit: maxRequestBytes}
	}
	size := min(max(r.ContentLength, 0), maxPresize)
	// With MinRead bytes to spare, the read that returns io.EOF does not
	// grow the buffer.
	buf := bytes.NewBuffer(make([]byte, 0, size+bytes.MinRead))
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	return buf.Bytes(), err
}

// parseSubmit turns a POST /jobs body into a validated Spec.
//
// An uploaded trace is nearly all of a body, so it is not run through
// encoding/json: traceSpan finds the one top-level "trace" string, its
// base64 is decoded straight out of body, and encoding/json decodes the
// body with that string emptied. encoding/json stays the one authority
// on every other field, on syntax and on what follows the object.
// Unknown fields are rejected, so a field the API does not have (the
// retired "shards", a typo) gets a 400 that names it instead of being
// silently ignored. A body with no single clear trace span, or whose
// trace holds an escape or a raw line break (plain base64 holds
// neither), is decoded whole by encoding/json, trace included.
func parseSubmit(body []byte) (*Spec, error) {
	start, end, cut := traceSpan(body)
	if cut && hasEscapeOrLineBreak(body[start:end]) {
		cut = false
	}
	rest := body
	if cut {
		rest = make([]byte, 0, len(body)-(end-start))
		rest = append(append(rest, body[:start]...), body[end:]...)
	}
	var req SubmitRequest
	dec := json.NewDecoder(bytes.NewReader(rest))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("parsing request: %w", err)
	}
	if !cut || start == end {
		return req.ToSpec()
	}
	enc := body[start:end]
	data := make([]byte, base64.StdEncoding.DecodedLen(len(enc)))
	n, err := base64.StdEncoding.Decode(data, enc)
	if err != nil {
		return nil, fmt.Errorf("jobqueue: trace is not valid base64: %v", err)
	}
	return req.spec(data[:n])
}

// traceSpan walks the top-level object of body and returns the bounds
// of the contents of its "trace" string, between the quotes. It walks
// only the top level, finding where each string ends with
// bytes.IndexByte, and leaves all checking to encoding/json: a valid
// prefix is walked as JSON reads it, and a body that is not valid JSON
// before the span is still not valid once the span is emptied. cut is
// false, and the body is decoded whole, unless the walk reaches the
// closing brace having found exactly one key that encoding/json matches
// to the trace field, with a string value; a key with an escape or a
// non-ASCII byte, or a nested value, also ends the walk.
func traceSpan(body []byte) (start, end int, cut bool) {
	i := skipSpace(body, 0)
	if i == len(body) || body[i] != '{' {
		return 0, 0, false
	}
	i = skipSpace(body, i+1)
	for {
		if i == len(body) || body[i] != '"' {
			return 0, 0, false
		}
		keyEnd := stringEnd(body, i+1)
		if keyEnd < 0 {
			return 0, 0, false
		}
		key := body[i+1 : keyEnd]
		for _, c := range key {
			if c == '\\' || c >= utf8.RuneSelf {
				return 0, 0, false
			}
		}
		// encoding/json matches keys to fields case-insensitively.
		isTrace := bytes.EqualFold(key, []byte("trace"))
		i = skipSpace(body, keyEnd+1)
		if i == len(body) || body[i] != ':' {
			return 0, 0, false
		}
		i = skipSpace(body, i+1)
		switch {
		case i == len(body):
			return 0, 0, false
		case body[i] == '"':
			e := stringEnd(body, i+1)
			if e < 0 {
				return 0, 0, false
			}
			if isTrace {
				if cut {
					return 0, 0, false
				}
				start, end, cut = i+1, e, true
			}
			i = e + 1
		case isTrace || body[i] == '{' || body[i] == '[':
			return 0, 0, false
		default: // a number, true, false or null
			for i < len(body) && body[i] != ',' && body[i] != '}' && !isSpace(body[i]) {
				i++
			}
		}
		i = skipSpace(body, i)
		if i == len(body) {
			return 0, 0, false
		}
		if body[i] == '}' {
			return start, end, cut
		}
		if body[i] != ',' {
			return 0, 0, false
		}
		i = skipSpace(body, i+1)
	}
}

// stringEnd returns the index of the quote that closes the JSON string
// whose contents start at b[i], or -1 if it is not closed.
func stringEnd(b []byte, i int) int {
	for {
		q := bytes.IndexByte(b[i:], '"')
		if q < 0 {
			return -1
		}
		i += q
		// The quote is escaped if an odd number of backslashes precede it.
		n := 0
		for b[i-1-n] == '\\' {
			n++
		}
		if n%2 == 0 {
			return i
		}
		i++
	}
}

// hasEscapeOrLineBreak reports whether a JSON string's contents hold a
// backslash or a raw line break. Three bytes.IndexByte scans, not
// bytes.ContainsAny, which reads a megabyte trace ten times slower.
func hasEscapeOrLineBreak(b []byte) bool {
	return bytes.IndexByte(b, '\\') >= 0 || bytes.IndexByte(b, '\n') >= 0 || bytes.IndexByte(b, '\r') >= 0
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

func skipSpace(b []byte, i int) int {
	for i < len(b) && isSpace(b[i]) {
		i++
	}
	return i
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(w, r)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: fmt.Sprintf("parsing request: %v", err)})
		return
	}
	spec, err := parseSubmit(body)
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
