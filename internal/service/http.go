package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"slices"
	"strconv"
	"strings"

	"specsched"
)

// ClientHeader names the submitting client for queue fairness. Absent or
// empty, the client is "default".
const ClientHeader = "X-Specsched-Client"

// maxSpecBytes bounds a submitted SweepSpec body.
const maxSpecBytes = 1 << 20

// Handler returns the daemon's HTTP API:
//
//	POST   /v1/sweeps                 submit a SweepSpec, get a job ID (202)
//	GET    /v1/sweeps                 list jobs
//	GET    /v1/sweeps/{id}            job status + failure report
//	DELETE /v1/sweeps/{id}            cancel a live job, or forget a finished one
//	GET    /v1/sweeps/{id}/cells      stream finished cells (NDJSON, or SSE
//	                                  with Accept: text/event-stream);
//	                                  resumable via ?after=N / Last-Event-ID
//	GET    /v1/sweeps/{id}/report/{name}  render a named report (done jobs)
//	GET    /healthz                   liveness (200 as long as the process serves)
//	GET    /readyz                    readiness: 503 while draining, so load
//	                                  balancers stop routing before shutdown
//	GET    /metrics                   Prometheus text exposition
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sweeps", s.handleSubmit)
	mux.HandleFunc("GET /v1/sweeps", s.handleList)
	mux.HandleFunc("GET /v1/sweeps/{id}", s.handleStatus)
	mux.HandleFunc("DELETE /v1/sweeps/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/sweeps/{id}/cells", s.handleCells)
	mux.HandleFunc("GET /v1/sweeps/{id}/report/{name}", s.handleReport)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// Retry-After values for shed load: queue-full is transient (jobs finish
// on the order of seconds to minutes), draining means "find another
// instance" — a restart takes at least this long.
const (
	retryAfterQueueFull = "10"
	retryAfterDraining  = "30"
)

// apiError is the uniform error body: a message plus a machine-matchable
// kind derived from the façade's sentinel taxonomy.
type apiError struct {
	Error string `json:"error"`
	Kind  string `json:"kind,omitempty"`
	// QueueDepth reports the submitting client's queued-job count on
	// queue-full rejections, so clients can back off proportionally.
	QueueDepth *int `json:"queue_depth,omitempty"`
}

func errKind(err error) string {
	switch {
	case errors.Is(err, specsched.ErrInvalidConfig):
		return "invalid_config"
	case errors.Is(err, specsched.ErrUnknownWorkload):
		return "unknown_workload"
	case errors.Is(err, specsched.ErrBadTrace):
		return "bad_trace"
	case errors.Is(err, specsched.ErrCanceled):
		return "canceled"
	case errors.Is(err, ErrQueueFull):
		return "queue_full"
	case errors.Is(err, ErrDraining):
		return "draining"
	case errors.Is(err, ErrClosed):
		return "shutting_down"
	case errors.Is(err, ErrUnknownJob):
		return "unknown_job"
	case errors.Is(err, errBadCursor):
		return "bad_cursor"
	case errors.Is(err, errResultsLost):
		return "results_lost"
	}
	return ""
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, apiError{Error: err.Error(), Kind: errKind(err)})
}

func (s *Server) lookup(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("%w %q", ErrUnknownJob, r.PathValue("id")))
		return nil, false
	}
	return j, true
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	// Strict decoding: a misspelled axis would otherwise silently sweep
	// the defaults, which for a service is worse than a 400.
	spec, err := specsched.DecodeSweepSpec(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "bad spec: " + err.Error(), Kind: "bad_json"})
		return
	}
	client := r.Header.Get(ClientHeader)
	j, err := s.Submit(client, spec)
	if err != nil {
		switch {
		case errors.Is(err, ErrQueueFull):
			depth := s.QueueDepth(client)
			w.Header().Set("Retry-After", retryAfterQueueFull)
			writeJSON(w, http.StatusTooManyRequests,
				apiError{Error: err.Error(), Kind: errKind(err), QueueDepth: &depth})
		case errors.Is(err, ErrDraining):
			w.Header().Set("Retry-After", retryAfterDraining)
			writeErr(w, http.StatusServiceUnavailable, err)
		case errors.Is(err, ErrClosed):
			writeErr(w, http.StatusServiceUnavailable, err)
		default:
			writeErr(w, http.StatusBadRequest, err)
		}
		return
	}
	w.Header().Set("Location", "/v1/sweeps/"+j.ID)
	writeJSON(w, http.StatusAccepted, j.Status(false))
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.Jobs()
	out := make([]JobStatus, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.Status(false))
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, j.Status(r.URL.Query().Get("spec") == "1"))
}

// handleCancel cancels a live job. A finished job is forgotten instead:
// dropped from the job table and the state directory, so later requests
// for it are 404 unknown_job. Either way the body is the job's status.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	if !s.forget(j) {
		s.Cancel(j)
	}
	writeJSON(w, http.StatusOK, j.Status(false))
}

// errBadCursor rejects an ?after= value that is not a non-negative integer.
var errBadCursor = errors.New("bad after cursor")

// cellsCursor reads a /cells request's resume position and framing from
// its ?after= value and its Accept and Last-Event-ID headers. The result
// is never negative. A malformed Last-Event-ID is ignored (a browser
// resends whatever id it last saw), a malformed after is errBadCursor.
func cellsCursor(after, accept, lastEventID string) (next int, sse bool, err error) {
	if after != "" {
		n, err := strconv.Atoi(after)
		if err != nil || n < 0 {
			return 0, false, errBadCursor
		}
		next = n
	}
	sse = strings.Contains(accept, "text/event-stream")
	if sse && lastEventID != "" {
		// Resume after cell n. math.MaxInt is past the end of every job,
		// so it replays nothing rather than wrapping negative.
		if n, err := strconv.Atoi(lastEventID); err == nil && n >= 0 {
			next = n
			if n < math.MaxInt {
				next++
			}
		}
	}
	return next, sse, nil
}

// handleCells streams the job's finished cells from ?after=N on (N cells
// already received; default 0). Default framing is NDJSON — one CellRecord
// per line, connection closing when the job is terminal. With
// Accept: text/event-stream it speaks SSE instead: each cell is an event
// whose id is its index (so EventSource reconnection resumes for free via
// Last-Event-ID), and a final "done" event carries the terminal status.
func (s *Server) handleCells(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	next, sse, err := cellsCursor(r.URL.Query().Get("after"), r.Header.Get("Accept"), r.Header.Get("Last-Event-ID"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-store")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	flusher, _ := w.(http.Flusher)
	for {
		cells, state, wait := j.cellsFrom(next)
		for _, c := range cells {
			data, err := json.Marshal(c)
			if err != nil {
				return
			}
			if sse {
				fmt.Fprintf(w, "id: %d\nevent: cell\ndata: %s\n\n", c.Index, data)
			} else {
				w.Write(data)
				w.Write([]byte{'\n'})
			}
		}
		next += len(cells)
		if flusher != nil && len(cells) > 0 {
			flusher.Flush()
		}
		if wait == nil {
			if state.Terminal() {
				if sse {
					data, _ := json.Marshal(j.Status(false))
					fmt.Fprintf(w, "event: done\ndata: %s\n\n", data)
					if flusher != nil {
						flusher.Flush()
					}
				}
				return
			}
			// New cells landed between snapshot and wait registration;
			// loop to pick them up.
			continue
		}
		select {
		case <-r.Context().Done():
			return
		case <-s.ctx.Done():
			return // daemon shutting down; client reconnects to the next one
		case <-wait:
		}
	}
}

// handleReport renders one named experiment report for a finished job.
// Reports run whatever extra cells their grids need, so the request can
// take a while; it is bound to the request context.
func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	if j.State() != JobDone {
		writeJSON(w, http.StatusConflict, apiError{
			Error: fmt.Sprintf("job %s is %s; reports need a done job", j.ID, j.State()),
			Kind:  "not_done",
		})
		return
	}
	name := r.PathValue("name")
	if !slices.Contains(specsched.Reports(), name) {
		writeJSON(w, http.StatusNotFound, apiError{
			Error: fmt.Sprintf("unknown report %q (see /v1/sweeps/%s for the list)", name, j.ID),
			Kind:  "unknown_report",
		})
		return
	}
	sweep := j.sweepRef()
	if sweep == nil {
		// Terminal without a sweep only happens for recovered failed jobs,
		// which can't reach here (state is not done); defend anyway.
		writeJSON(w, http.StatusConflict, apiError{Error: "job has no live sweep", Kind: "not_done"})
		return
	}
	out, err := sweep.Report(r.Context(), name)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write([]byte(out))
}

// handleHealthz is pure liveness: 200 as long as the process can serve a
// request at all. Readiness (routing decisions) lives on /readyz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write([]byte("ok\n"))
}

// handleReadyz is readiness: 503 once a drain (or Close) has begun, so
// load balancers pull the instance before shutdown instead of racing it.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if !s.Ready() {
		w.Header().Set("Retry-After", retryAfterDraining)
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte("draining\n"))
		return
	}
	w.Write([]byte("ready\n"))
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	g := gauges{queued: s.queued, running: s.running, retained: len(s.jobs), ready: !s.draining && !s.closed}
	s.mu.Unlock()
	g.cache = s.cache.Stats()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.m.render(w, g)
}
