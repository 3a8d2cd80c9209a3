package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"sort"
	"strconv"
)

// Handler returns the daemon's HTTP API:
//
//	POST   /v1/jobs             submit a Spec → 201 + job view
//	                            (429 + Retry-After when the queue is full,
//	                             503 while draining, 400 on a bad spec,
//	                             422 + certificate when the configuration
//	                             fails static deadlock/livelock verification)
//	POST   /v1/batch            submit N specs at once → 200 + N job refs,
//	                            in order; duplicates of cached or in-flight
//	                            work share one simulation, and per-item
//	                            failures ride alongside accepted jobs
//	POST   /v1/verify           certify a configuration without running it:
//	                            200 + certificate when proven safe, 422 +
//	                            certificate (with counterexample) when not,
//	                            400 on a malformed configuration
//	GET    /v1/jobs             list job views, newest activity first
//	GET    /v1/jobs/{id}        one job view (result embedded when done)
//	GET    /v1/jobs/{id}/result raw result bytes (409 until done)
//	GET    /v1/jobs/{id}/stream NDJSON progress, ending with a "done" line
//	DELETE /v1/jobs/{id}        request cancellation
//	GET    /healthz             200 ok / 503 draining
//	GET    /metrics             Prometheus text format
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	mux.HandleFunc("POST /v1/verify", s.handleVerify)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleStream)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec Spec
	if err := decodeStrict(http.MaxBytesReader(w, r.Body, 1<<20), &spec); err != nil {
		httpError(w, http.StatusBadRequest, "bad spec: "+err.Error())
		return
	}
	j, err := s.Submit(spec)
	var uncert *UncertifiableError
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfter()))
		httpError(w, http.StatusTooManyRequests, err.Error())
	case errors.As(err, &uncert):
		writeJSON(w, http.StatusUnprocessableEntity, map[string]any{
			"error": uncert.Error(), "certificate": uncert.Cert,
		})
	case errors.Is(err, ErrDraining):
		httpError(w, http.StatusServiceUnavailable, err.Error())
	case err != nil:
		httpError(w, http.StatusBadRequest, err.Error())
	default:
		w.Header().Set("Location", "/v1/jobs/"+j.ID)
		writeJSON(w, http.StatusCreated, j.view(false))
	}
}

// batchRequest is the /v1/batch body. Items stay raw until the loop in
// handleBatch decodes each one, so a malformed spec fails alone.
type batchRequest struct {
	Specs []json.RawMessage `json:"specs"`
}

// maxBatchSpecs bounds one /v1/batch request; beyond it a client should
// split the batch (the limit exists so a single request cannot mint an
// unbounded number of job records).
const maxBatchSpecs = 256

// handleBatch submits a whole slice of specs in one request. The response
// carries one item per spec, in order: an accepted spec yields its job
// view ("job"), a rejected one its error string ("error") — partial
// acceptance is the point, so the status is 200 whenever the batch itself
// was well-formed. Content addressing makes batches cheap: items identical
// to a cached result settle instantly, items identical to each other or to
// an in-flight job coalesce onto one simulation, and only novel specs
// occupy queue slots.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	if err := decodeStrict(http.MaxBytesReader(w, r.Body, 8<<20), &req); err != nil {
		httpError(w, http.StatusBadRequest, "bad batch: "+err.Error())
		return
	}
	if len(req.Specs) == 0 {
		httpError(w, http.StatusBadRequest, "batch needs at least one spec")
		return
	}
	if len(req.Specs) > maxBatchSpecs {
		httpError(w, http.StatusBadRequest,
			"batch too large: "+strconv.Itoa(len(req.Specs))+" specs (max "+strconv.Itoa(maxBatchSpecs)+")")
		return
	}
	type item struct {
		Job   *View  `json:"job,omitempty"`
		Error string `json:"error,omitempty"`
	}
	items := make([]item, len(req.Specs))
	for i, raw := range req.Specs {
		var sp Spec
		if err := decodeStrict(bytes.NewReader(raw), &sp); err != nil {
			items[i].Error = "bad spec: " + err.Error()
			continue
		}
		j, err := s.Submit(sp)
		if err != nil {
			items[i].Error = err.Error()
			continue
		}
		v := j.view(false)
		items[i].Job = &v
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": items})
}

// handleVerify certifies a configuration without queueing anything: the
// request reuses the job Spec's config shape ({"config": {...overrides...},
// "faults": N}, merged over DefaultConfig), and the response is the full
// proof certificate. A 422 carries the certificate too, counterexample
// included, so a client can see the exact dependency cycle.
func (s *Server) handleVerify(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Config *SimConfig `json:"config,omitempty"`
		Faults int        `json:"faults,omitempty"`
	}
	if err := decodeStrict(http.MaxBytesReader(w, r.Body, 1<<20), &req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request: "+err.Error())
		return
	}
	if req.Faults < 0 {
		httpError(w, http.StatusBadRequest, "faults must be >= 0")
		return
	}
	sp := Spec{Kind: KindLoad, Config: req.Config, Faults: req.Faults}
	cert, err := s.certifyConfig(sp.simConfig(), sp.Faults)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	if !cert.Certified {
		writeJSON(w, http.StatusUnprocessableEntity, map[string]any{
			"error":       "configuration failed certification: " + cert.Failure(),
			"certificate": cert,
		})
		return
	}
	writeJSON(w, http.StatusOK, cert)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	views := []View{}
	s.store.each(func(j *Job) { views = append(views, j.view(false)) })
	// IDs are zero-padded sequence numbers, so lexicographic order is
	// submission order.
	sort.Slice(views, func(a, b int) bool { return views[a].ID < views[b].ID })
	writeJSON(w, http.StatusOK, map[string]any{"jobs": views})
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, j.view(true))
}

// handleResult serves the stored result bytes verbatim: identical specs
// yield byte-identical responses (the determinism contract).
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	_, st, result, errMsg, _ := j.since(0)
	if result == nil {
		if st.Terminal() {
			httpError(w, http.StatusConflict, "job "+string(st)+": "+errMsg)
		} else {
			httpError(w, http.StatusConflict, "job is "+string(st)+"; no result yet")
		}
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(result)
}

// handleStream replays the job's progress backlog and then follows live
// updates as NDJSON, one Progress object per line, ending with a "done"
// line that carries the terminal state and result (or error).
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	flush := func() {
		if fl != nil {
			fl.Flush()
		}
	}
	flush() // commit headers so clients see the stream open immediately
	next := 0
	for {
		lines, st, result, errMsg, ch := j.since(next)
		for _, ln := range lines {
			_, _ = w.Write(ln)
			_, _ = w.Write([]byte("\n"))
		}
		next += len(lines)
		if len(lines) > 0 {
			flush()
		}
		if st.Terminal() {
			final, _ := json.Marshal(Progress{
				Type: "done", State: st, Error: errMsg, Result: result,
			})
			_, _ = w.Write(final)
			_, _ = w.Write([]byte("\n"))
			flush()
			return
		}
		select {
		case <-ch:
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	s.Cancel(j) // idempotent: cancelling a terminal job is a no-op
	writeJSON(w, http.StatusAccepted, j.view(false))
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status, code := "ok", http.StatusOK
	if s.Draining() {
		status, code = "draining", http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]any{
		"status":      status,
		"queue_depth": s.queue.depth(),
		"running":     s.metrics.running.Load(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.WriteMetrics(w)
}
