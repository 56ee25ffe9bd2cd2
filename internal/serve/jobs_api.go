package serve

// This file is the asynchronous half of the serving path (DESIGN.md §14):
// submit a run as a job, poll its status, fetch its result — all keyed by
// the deterministic job id derived from the canonical request parameters,
// so resubmitting the same request is idempotent and two clients asking
// for the same table share one job. Jobs run on the server's context, so
// a submitted run survives its client disconnecting; the result stays
// fetchable until job retention evicts it. POST /v1/merge is the serving
// side of the shard pipeline: it recombines a complete set of shard
// artifacts into the byte-identical unsharded tables without simulating
// anything.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"valuepred/internal/experiment"
	"valuepred/internal/jobs"
	"valuepred/internal/obs"
	"valuepred/internal/stats"
)

// maxMergeBody bounds the POST /v1/merge request body; shard artifacts
// are tables plus note collectors, far below this.
const maxMergeBody = 64 << 20

// jobProgress is the live cell tally attached to a running job's status,
// cut from the server-wide progress snapshot.
type jobProgress struct {
	Total   int64   `json:"total"`
	Done    int64   `json:"done"`
	Running int64   `json:"running"`
	Queued  int64   `json:"queued"`
	ETAMS   float64 `json:"eta_ms"`
}

// jobReply is the wire form of one job's status.
type jobReply struct {
	ID         string       `json:"id"`
	Experiment string       `json:"experiment"`
	State      jobs.State   `json:"state"`
	Created    string       `json:"created"`
	Settled    string       `json:"settled,omitempty"`
	Followers  int64        `json:"followers"`
	Error      string       `json:"error,omitempty"`
	Progress   *jobProgress `json:"progress,omitempty"`
	Result     string       `json:"result,omitempty"` // URL path, once done
}

// jobReply renders one job status, attaching live progress to running
// jobs and the result path to done ones.
func (s *Server) jobReply(st jobs.Status) jobReply {
	rep := jobReply{
		ID:         st.ID,
		Experiment: st.Experiment,
		State:      st.State,
		Created:    st.Created.UTC().Format(time.RFC3339Nano),
		Followers:  st.Followers,
		Error:      st.Err,
	}
	if !st.Settled.IsZero() {
		rep.Settled = st.Settled.UTC().Format(time.RFC3339Nano)
	}
	switch st.State {
	case jobs.StateDone:
		rep.Result = "/v1/jobs/" + st.ID + "/result"
	case jobs.StateRunning:
		snap := s.progress.Snapshot()
		for _, e := range snap.Experiments {
			if e.Experiment != st.Experiment {
				continue
			}
			rep.Progress = &jobProgress{
				Total:   e.Total,
				Done:    e.Done,
				Running: e.Running,
				Queued:  e.Queued,
				ETAMS:   e.ETAMS,
			}
			break
		}
	}
	return rep
}

// handleJobSubmit is POST /v1/jobs: create (or find) the job for the
// canonical parameters. Replies 202 with the job id when a run was
// admitted, 200 when an equivalent job already exists or the table is
// already cached, 429 when the queue is full, 503 while draining.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("experiment")
	if id == "" {
		writeError(w, &apiError{
			status:  http.StatusBadRequest,
			Code:    "bad_params",
			Message: "the experiment query parameter is required",
		})
		return
	}
	if _, ok := experiment.Describe(id); !ok {
		writeError(w, &apiError{
			status:  http.StatusNotFound,
			Code:    "unknown_experiment",
			Message: fmt.Sprintf("unknown experiment %q; list them at /v1/experiments", id),
		})
		return
	}
	rr, apiErr := parseRunRequest(r, s.cfg)
	if apiErr != nil {
		writeError(w, apiErr)
		return
	}
	spec := jobSpec{id: id, rr: rr, shard: rr.Format == "shard"}
	if spec.shard && !s.cfg.Shard.Enabled() {
		writeError(w, &apiError{
			status:  http.StatusBadRequest,
			Code:    "bad_params",
			Message: "format=shard requires a sharded server (vpserve -shard n/m)",
		})
		return
	}
	key := s.key(id, rr)
	if spec.shard {
		key += "|artifact"
	}
	if span, ok := obs.SpanID(r.Context()); ok {
		spec.span = span
	}

	// A table already in a cache settles the job immediately: the client
	// gets an id whose result is ready on the first poll.
	if !spec.shard {
		s.mu.Lock()
		t, cached := s.cache.get(key)
		s.mu.Unlock()
		if !cached {
			if _, busy := s.jobs.ByKey(key); !busy {
				t, cached = s.diskGet(key)
			}
		}
		if cached {
			j, created := s.jobs.Create(key, id, spec)
			if created {
				s.m.jobsCreated.Inc()
				s.jobs.MarkRunning(j)
				if n := s.jobs.Settle(j, t, nil); n > 0 {
					s.m.jobsEvicted.Add(uint64(n))
				}
				s.syncJobGauges()
			}
			writeJSON(w, http.StatusOK, s.jobReply(j.Status()))
			return
		}
	}

	for {
		if j, ok := s.jobs.ByKey(key); ok {
			if j.State() == jobs.StateFailed {
				// Resubmitting a failed job retries it with a fresh run.
				s.jobs.Drop(j)
				s.syncJobGauges()
				continue
			}
			writeJSON(w, http.StatusOK, s.jobReply(j.Status()))
			return
		}
		j, created, err := s.startJob(key, spec, true)
		if err != nil {
			writeError(w, s.classify(err))
			return
		}
		if !created {
			continue // lost the creation race; report the winner
		}
		w.Header().Set("Location", "/v1/jobs/"+j.ID())
		writeJSON(w, http.StatusAccepted, s.jobReply(j.Status()))
		return
	}
}

// handleJobList is GET /v1/jobs: every tracked job in creation order.
func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	list := s.jobs.List()
	reps := make([]jobReply, 0, len(list))
	for _, st := range list {
		reps = append(reps, s.jobReply(st))
	}
	writeJSON(w, http.StatusOK, struct {
		Jobs []jobReply `json:"jobs"`
	}{reps})
}

// handleJobStatus is GET /v1/jobs/{id}: one job's status, with live
// progress while it runs.
func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		writeError(w, jobNotFound(r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, s.jobReply(j.Status()))
}

// handleJobResult is GET /v1/jobs/{id}/result?format=...: the settled
// result, rendered like the synchronous endpoint. An unsettled job
// replies 409 so pollers can tell "not yet" from "gone" (404).
func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		writeError(w, jobNotFound(r.PathValue("id")))
		return
	}
	format, apiErr := tableFormat(r)
	if apiErr != nil {
		writeError(w, apiErr)
		return
	}
	switch j.State() {
	case jobs.StateQueued, jobs.StateRunning:
		writeError(w, &apiError{
			status:     http.StatusConflict,
			Code:       "not_ready",
			Message:    fmt.Sprintf("job %s is %s; poll /v1/jobs/%s", j.ID(), j.State(), j.ID()),
			retryAfter: 1,
		})
		return
	}
	res, err := j.Result()
	if err != nil {
		writeError(w, s.classify(err))
		return
	}
	switch v := res.(type) {
	case *experiment.ShardFile:
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		if err := v.WriteJSON(w); err != nil {
			return // client went away mid-write
		}
	case *stats.Table:
		renderTables(w, format, v, v)
	default:
		writeError(w, &apiError{
			status:  http.StatusInternalServerError,
			Code:    "internal",
			Message: "job settled without a renderable result",
		})
	}
}

// jobNotFound is the shared 404 for an unknown or evicted job id.
func jobNotFound(id string) *apiError {
	return &apiError{
		status:  http.StatusNotFound,
		Code:    "unknown_job",
		Message: fmt.Sprintf("no job %q: the id is unknown, or the job was evicted by retention", id),
	}
}

// handleMerge is POST /v1/merge: recombine a complete set of shard
// artifacts (a JSON array of shard files, as served by format=shard) into
// the unsharded tables. Each declared table is built from the shards'
// workload rows, and the hand-written table3.1 and table3.2, which read no
// trace, are built under the artifacts' parameters; nothing trace-driven
// is simulated and no cache is touched. The tables are rendered in the
// requested format, separated by a blank line exactly like vpsim -merge.
func (s *Server) handleMerge(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxMergeBody))
	if err != nil {
		writeError(w, &apiError{
			status:  http.StatusBadRequest,
			Code:    "bad_params",
			Message: fmt.Sprintf("reading request body: %v", err),
		})
		return
	}
	var files []*experiment.ShardFile
	if err := json.Unmarshal(body, &files); err != nil {
		writeError(w, &apiError{
			status:  http.StatusBadRequest,
			Code:    "bad_params",
			Message: fmt.Sprintf("request body is not a JSON array of shard files: %v", err),
		})
		return
	}
	// The merge builds one table per seed of each experiment, so the seeds
	// of a merge are bounded like those of a run.
	for _, f := range files {
		if f != nil && f.Params.Seeds > s.cfg.MaxSeeds {
			writeError(w, &apiError{
				status:  http.StatusBadRequest,
				Code:    "bad_merge",
				Message: fmt.Sprintf("the artifacts average %d seeds; this server merges at most %d", f.Params.Seeds, s.cfg.MaxSeeds),
			})
			return
		}
	}
	merged, err := experiment.MergeShardFiles(files)
	if err != nil {
		writeError(w, &apiError{
			status:  http.StatusBadRequest,
			Code:    "bad_merge",
			Message: err.Error(),
		})
		return
	}
	format, apiErr := tableFormat(r)
	if apiErr != nil {
		writeError(w, apiErr)
		return
	}
	tabs := make([]*stats.Table, len(merged))
	for i, m := range merged {
		tabs[i] = m.Table
	}
	renderTables(w, format, merged, tabs...)
}
