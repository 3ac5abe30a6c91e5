// The asynchronous job surface: POST /v1/jobs accepts any registered engine
// request type and answers immediately with a job id; the job then computes
// through the same content-addressed cache, store, and engine semaphore as
// the synchronous endpoints, so a job's result bytes are bit-identical to
// the synchronous response for the same request — the determinism contract
// extended across time.
//
// Batch-shaped jobs (sweep, runtime-sweep, assess) feed per-unit progress
// from the engines' Batch machinery and append every completed unit to the
// store's checkpoint file for the job's key. The checkpoint lines are
// exactly the NDJSON stream lines, so one format serves three purposes:
// live progress events (GET /v1/jobs/{id}/stream), durable partial state
// (a killed server resumes instead of recomputing), and the resume replay.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"

	"ulba/internal/engine"
	"ulba/internal/jobs"
)

// jobUnitHook, when set, runs after every freshly computed unit a
// batch-shaped job checkpoints. Tests use it to park a job mid-run (until
// its context is cancelled), turning crash/cancel races that would
// otherwise depend on scheduler timing into deterministic sequences.
var jobUnitHook atomic.Pointer[func(ctx context.Context)]

// jobSubmission is the body of POST /v1/jobs: an engine request wrapped
// with its type. Request is the exact body the matching synchronous
// endpoint accepts (its workers field is ignored for the key, as always).
type jobSubmission struct {
	Type    string          `json:"type"`
	Request json.RawMessage `json:"request"`
}

// jobTask is a validated submission: the job's content address, its
// declared unit count, the checkpointing runner, and the unary compute leg
// (what GET .../result uses to rebuild a body that fell out of both cache
// and store).
type jobTask struct {
	typ     string
	key     string
	total   int
	compute func(ctx context.Context) (any, error)
	run     jobs.RunFunc
}

// buildJobTask validates a submission against the engine registry into a
// runnable task. Validation errors surface as 400s at submit time, never
// inside the job. A batch engine gets the checkpointing runner; a unary
// engine recomputes whole on restart.
func (s *Server) buildJobTask(sub jobSubmission) (jobTask, error) {
	if len(sub.Request) == 0 {
		return jobTask{}, fmt.Errorf("job submission needs a request object")
	}
	d, ok := engine.ByType(sub.Type)
	if !ok {
		return jobTask{}, fmt.Errorf("unknown job type %q (want %s)", sub.Type, engine.TypeList())
	}
	inst, err := d.Decode(sub.Request)
	if err != nil {
		return jobTask{}, err
	}
	key, err := inst.Key()
	if err != nil {
		return jobTask{}, err
	}
	task := jobTask{typ: sub.Type, key: key, total: inst.Units(), compute: inst.Run}
	if b := inst.NewBatch(); b != nil {
		task.run = s.checkpointedRun(key, func(ctx context.Context, j *jobs.Job) ([]byte, error) {
			return s.batchJobBody(ctx, j, key, b)
		})
		return task, nil
	}
	// Unary engine: the whole computation is one unit, so progress is
	// 0 -> total and there is no checkpoint.
	task.run = func(ctx context.Context, j *jobs.Job) error {
		_, _, err := s.cache.Do(ctx, key, func() ([]byte, error) {
			j.Begin(task.total, 0)
			return s.computeBody(ctx, key, inst.Run)
		})
		return err
	}
	return task, nil
}

// checkpointedRun wraps a checkpoint-aware body renderer as a job runner.
// The computation still goes through cache.Do, so a job whose key is
// already cached (or stored, via the fallback) finishes instantly, and
// identical concurrent submissions — synchronous or jobs — share one
// computation.
func (s *Server) checkpointedRun(key string, body func(ctx context.Context, j *jobs.Job) ([]byte, error)) jobs.RunFunc {
	return func(ctx context.Context, j *jobs.Job) error {
		_, _, err := s.cache.Do(ctx, key, func() ([]byte, error) {
			return s.render(ctx, key, func(ctx context.Context) ([]byte, error) {
				return body(ctx, j)
			})
		})
		return err
	}
}

// batchJobBody renders a batch job's final body: restore checkpointed
// units, report progress, stream the missing indices through the engine,
// checkpoint and emit each fresh result, and on a per-unit error abort the
// job with the lowest-index error among the results delivered (the abort
// cancels the engine's delivery, which is best-effort after that — unlike
// the synchronous endpoints' guaranteed lowest-index rule). The bytes equal the
// synchronous endpoint's because per-unit evaluation is a pure function of
// the unit, checkpoint lines round-trip exactly, and aggregation is
// input-ordered either way.
func (s *Server) batchJobBody(ctx context.Context, j *jobs.Job, key string, b *engine.Batch) ([]byte, error) {
	if err := b.Prepare(); err != nil {
		return nil, err
	}
	have := make([]bool, b.N)
	resumed := s.restoreCheckpoint(key, have, b.Restore)
	j.Begin(b.N, resumed)
	for i := range have {
		if !have[i] {
			continue
		}
		buf, err := json.Marshal(b.Line(i))
		if err != nil {
			return nil, err
		}
		j.Event(buf)
	}

	var missing []int
	for i := range have {
		if !have[i] {
			missing = append(missing, i)
		}
	}
	if len(missing) > 0 {
		// One open append handle for the whole run; checkpointing is
		// best-effort (a failed write only costs recomputation later), so
		// an open error just disables it.
		var cp *jobs.Checkpoint
		if s.store != nil {
			if c, err := s.store.OpenCheckpoint(key); err == nil {
				cp = c
				defer cp.Close()
			}
		}
		runCtx, cancel := context.WithCancel(ctx)
		defer cancel()
		delivered := 0
		var firstErr error
		firstIdx := -1
		for u := range b.Open(runCtx, missing) {
			delivered++
			if u.Err != nil {
				if firstIdx < 0 || u.Index < firstIdx {
					firstErr, firstIdx = u.Err, u.Index
				}
				cancel()
				continue
			}
			if firstErr != nil {
				continue
			}
			buf, err := json.Marshal(b.Line(u.Index))
			if err != nil {
				return nil, err
			}
			if cp != nil {
				cp.Append(buf)
			}
			j.Event(buf)
			j.Advance()
			if hook := jobUnitHook.Load(); hook != nil {
				(*hook)(runCtx)
			}
		}
		if firstErr != nil {
			return nil, firstErr
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if delivered < len(missing) {
			return nil, fmt.Errorf("job delivered %d of %d units", delivered, len(missing))
		}
	}
	resp, err := b.Body()
	if err != nil {
		return nil, err
	}
	// persist (via render) clears the checkpoint once this body lands.
	return marshalBody(resp)
}

// restoreCheckpoint replays key's checkpoint lines through apply (which
// stores the decoded unit and returns its index) and marks the covered
// indices. Unparseable or out-of-range lines are skipped — a checkpoint can
// only help, never wedge a job.
func (s *Server) restoreCheckpoint(key string, have []bool, apply func(raw []byte) (int, bool)) (resumed int) {
	if s.store == nil {
		return 0
	}
	lines, err := s.store.LoadCheckpoint(key)
	if err != nil {
		return 0
	}
	for _, raw := range lines {
		idx, ok := apply(raw)
		if !ok || idx < 0 || idx >= len(have) || have[idx] {
			continue
		}
		have[idx] = true
		resumed++
	}
	return resumed
}

// writeJSON writes one JSON response with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	var sub jobSubmission
	if err := decode(r, &sub); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	task, err := s.buildJobTask(sub)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// Hot-key fast path, job flavor: a submission whose result is already
	// cached bypasses the queue-depth limit and jumps the queue — it will
	// finish as a cache hit, so shedding it would reject free work.
	var j *jobs.Job
	if s.cache.Has(task.key) {
		j, err = s.manager.SubmitHot(task.typ, task.key, task.total, sub, task.run)
	} else {
		j, err = s.manager.Submit(task.typ, task.key, task.total, sub, task.run)
	}
	if err != nil {
		if errors.Is(err, jobs.ErrQueueFull) {
			s.writeShed(w)
			return
		}
		writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+j.ID())
	writeJSON(w, http.StatusAccepted, j.Status())
}

// jobListResponse is the body of GET /v1/jobs.
type jobListResponse struct {
	Jobs []jobs.Status `json:"jobs"`
}

func (s *Server) handleJobList(w http.ResponseWriter, _ *http.Request) {
	list := s.manager.List()
	if list == nil {
		list = []jobs.Status{}
	}
	writeJSON(w, http.StatusOK, jobListResponse{Jobs: list})
}

// getJob resolves the {id} path segment, writing the 404 itself when the
// job is unknown (or already pruned by retention).
func (s *Server) getJob(w http.ResponseWriter, r *http.Request) (*jobs.Job, bool) {
	id := r.PathValue("id")
	j, ok := s.manager.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
	}
	return j, ok
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.getJob(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, j.Status())
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, ok := s.manager.Cancel(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleJobResult serves a finished job's body — bit-identical to the
// synchronous endpoint's response for the same request. The body is fetched
// by content address through the same cache/store/compute chain, so even if
// both the LRU and the store have dropped it, the determinism contract lets
// the server recompute the identical bytes on the spot.
func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.getJob(w, r)
	if !ok {
		return
	}
	st := j.Status()
	switch st.State {
	case jobs.StateDone:
	case jobs.StateFailed:
		writeError(w, http.StatusInternalServerError, fmt.Errorf("job %s failed: %s", st.ID, st.Error))
		return
	case jobs.StateCancelled:
		writeError(w, http.StatusConflict, fmt.Errorf("job %s was cancelled", st.ID))
		return
	default:
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusConflict, fmt.Errorf("job %s is %s; the result is not ready", st.ID, st.State))
		return
	}
	sub, _ := j.Meta().(jobSubmission)
	task, err := s.buildJobTask(sub)
	if err != nil { // cannot happen: the submission validated at submit time
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	ctx := r.Context()
	body, outcome, err := s.cache.Do(ctx, task.key, func() ([]byte, error) {
		return s.computeBody(ctx, task.key, task.compute)
	})
	if err != nil {
		writeEngineError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Ulba-Cache", string(outcome))
	w.Write(body)
}

// ndjsonWriter emits one JSON line per write and flushes it immediately, so
// a job stream's consumer sees each unit the moment the job completes it.
type ndjsonWriter struct {
	w     http.ResponseWriter
	flush http.Flusher
	enc   *json.Encoder
}

func newNDJSONWriter(w http.ResponseWriter) *ndjsonWriter {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Ulba-Cache", "bypass")
	flush, _ := w.(http.Flusher)
	return &ndjsonWriter{w: w, flush: flush, enc: json.NewEncoder(w)}
}

func (nw *ndjsonWriter) line(v any) {
	nw.enc.Encode(v)
	if nw.flush != nil {
		nw.flush.Flush()
	}
}

// raw emits one precomposed line (no trailing newline) verbatim: the job's
// lines were rendered once and are replayed from its event log.
func (nw *ndjsonWriter) raw(line []byte) {
	nw.w.Write(line)
	nw.w.Write([]byte{'\n'})
	if nw.flush != nil {
		nw.flush.Flush()
	}
}

// jobStreamTail terminates a job stream with the job's final state.
type jobStreamTail struct {
	State    jobs.State    `json:"state"`
	Progress jobs.Progress `json:"progress"`
	Error    string        `json:"error,omitempty"`
}

// handleJobStream replays the job's as-completed NDJSON lines and follows
// them live until the job finishes, then emits a terminal state line. The
// lines are exactly the engines' stream lines (index + unit), in completion
// order; unary jobs have no per-unit lines, so their stream is the
// terminal line alone. The stream is not a cached body (X-Ulba-Cache:
// bypass): its line order depends on completion order.
func (s *Server) handleJobStream(w http.ResponseWriter, r *http.Request) {
	j, ok := s.getJob(w, r)
	if !ok {
		return
	}
	nw := newNDJSONWriter(w)
	i := 0
	for {
		lines, st, watch := j.EventsSince(i)
		for _, line := range lines {
			nw.raw(line)
		}
		i += len(lines)
		if st.State.Terminal() {
			nw.line(jobStreamTail{State: st.State, Progress: st.Progress, Error: st.Error})
			return
		}
		select {
		case <-watch:
		case <-r.Context().Done():
			return
		}
	}
}
