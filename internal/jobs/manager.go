package jobs

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"
)

// State is one stage of the job lifecycle. The machine is linear with two
// exits: Queued -> Running -> Done | Failed, and Cancelled can preempt from
// Queued or Running. Finished states (Done, Failed, Cancelled) are terminal.
type State string

// Job states.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether s is a finished state.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Progress counts a job's completed units. Resumed is how many of them were
// recovered from a persisted checkpoint rather than computed by this job —
// the observable difference between resuming and recomputing.
type Progress struct {
	Completed int `json:"completed"`
	Resumed   int `json:"resumed"`
	Total     int `json:"total"`
}

// Status is a point-in-time snapshot of one job, JSON-shaped for the HTTP
// surface.
type Status struct {
	ID       string     `json:"id"`
	Type     string     `json:"type"`
	Key      string     `json:"key"`
	State    State      `json:"state"`
	Progress Progress   `json:"progress"`
	Error    string     `json:"error,omitempty"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`
}

// RunFunc computes one job. It reports progress and as-completed events
// through j (Begin, Event, Advance) and must honor ctx — cancellation is
// how DELETE and server shutdown stop a running job. The result body does
// not pass through the manager: runners deliver it to the result cache and
// store under the job's key.
type RunFunc func(ctx context.Context, j *Job) error

// Job is one submitted computation. All exported methods are safe for
// concurrent use.
type Job struct {
	id   string
	typ  string
	key  string
	meta any
	run  RunFunc

	ctx    context.Context
	cancel context.CancelFunc

	mu        sync.Mutex
	state     State
	completed int
	resumed   int
	total     int
	errMsg    string
	created   time.Time
	started   time.Time
	finished  time.Time
	events    [][]byte
	watch     chan struct{}
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// Key returns the content address the job computes — the same canonical
// request hash the result cache and store use.
func (j *Job) Key() string { return j.key }

// Meta returns the opaque submitter-attached value (the server stashes the
// parsed request here so GET .../result can recompute after eviction).
func (j *Job) Meta() any { return j.meta }

// bumpLocked wakes every watcher. Callers hold j.mu.
func (j *Job) bumpLocked() {
	close(j.watch)
	j.watch = make(chan struct{})
}

// Begin declares the job's real unit count and how many units a checkpoint
// already supplied. Runners call it once computation actually starts; a job
// served whole from the cache or store never does (Done then snaps
// completed to total).
func (j *Job) Begin(total, resumed int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.total = total
	j.resumed = resumed
	j.completed = resumed
	j.bumpLocked()
}

// Event appends one as-completed NDJSON line to the job's event log, which
// GET /v1/jobs/{id}/stream replays and follows.
func (j *Job) Event(line []byte) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.events = append(j.events, append([]byte(nil), line...))
	j.bumpLocked()
}

// Advance counts one freshly computed unit.
func (j *Job) Advance() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.completed++
	j.bumpLocked()
}

// Status snapshots the job.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.statusLocked()
}

func (j *Job) statusLocked() Status {
	st := Status{
		ID:       j.id,
		Type:     j.typ,
		Key:      j.key,
		State:    j.state,
		Progress: Progress{Completed: j.completed, Resumed: j.resumed, Total: j.total},
		Error:    j.errMsg,
		Created:  j.created,
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	return st
}

// EventsSince returns the event lines from index i on, the current status,
// and a channel that closes on the next change — the follow primitive of
// the job stream endpoint.
func (j *Job) EventsSince(i int) ([][]byte, Status, <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	var lines [][]byte
	if i < len(j.events) {
		lines = j.events[i:len(j.events):len(j.events)]
	}
	return lines, j.statusLocked(), j.watch
}

// finish records the run outcome. Context-shaped errors mean the job was
// stopped (DELETE or shutdown), not that it is wrong — they land in
// Cancelled; everything else is Failed.
func (j *Job) finish(now time.Time, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.finished = now
	switch {
	case err == nil:
		j.state = StateDone
		j.completed = j.total
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		j.state = StateCancelled
		j.errMsg = err.Error()
	default:
		j.state = StateFailed
		j.errMsg = err.Error()
	}
	j.bumpLocked()
}

// Manager owns the job table and the bounded worker pool that drains it.
// Build it with NewManager; a Manager is safe for concurrent use.
type Manager struct {
	retention time.Duration
	now       func() time.Time

	ctx       context.Context
	cancelAll context.CancelFunc

	mu         sync.Mutex
	cond       *sync.Cond
	jobs       map[string]*Job
	order      []*Job // submission order; List reports newest first
	queue      []*Job // FIFO of jobs awaiting a worker
	queueLimit int    // 0 = unbounded; Submit sheds beyond it
	seq        int
	closed     bool
	submitted  uint64
	shed       uint64

	wg sync.WaitGroup
}

// NewManager starts a manager with the given worker count (<= 0 selects
// GOMAXPROCS, the repo-wide convention) and retention: finished jobs older
// than retention are pruned from the table on the next access (0 keeps them
// forever).
func NewManager(workers int, retention time.Duration) *Manager {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		retention: retention,
		now:       time.Now,
		ctx:       ctx,
		cancelAll: cancel,
		jobs:      make(map[string]*Job),
	}
	m.cond = sync.NewCond(&m.mu)
	for range workers {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

// ErrQueueFull rejects a submission when the queue has reached the
// configured depth limit — the admission-control signal the server maps to
// 429 Too Many Requests. The job was never created; resubmitting later is
// safe and free (determinism makes retries idempotent by content address).
var ErrQueueFull = errors.New("jobs: queue is full")

// SetQueueLimit bounds how many jobs may wait for a worker at once; 0 (the
// default) is unbounded. Submissions beyond the bound fail with
// ErrQueueFull; SubmitHot is exempt. Set it before serving traffic.
func (m *Manager) SetQueueLimit(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.queueLimit = n
}

// Submit enqueues a job. total is the declared unit count for progress
// reporting (Begin may refine it); meta rides along for the submitter.
// When a queue limit is set and reached, Submit fails with ErrQueueFull.
func (m *Manager) Submit(typ, key string, total int, meta any, run RunFunc) (*Job, error) {
	return m.submit(typ, key, total, meta, run, false)
}

// SubmitHot is Submit for a job whose result already exists (the
// submitter has the key cached): it bypasses the queue-depth limit and
// jumps to the front of the queue, so a hot-key job completes promptly no
// matter how deep the cold backlog is — the job-surface half of the
// cache-hit fast path that keeps admission control from shedding work
// that costs nothing.
func (m *Manager) SubmitHot(typ, key string, total int, meta any, run RunFunc) (*Job, error) {
	return m.submit(typ, key, total, meta, run, true)
}

func (m *Manager) submit(typ, key string, total int, meta any, run RunFunc, hot bool) (*Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, fmt.Errorf("jobs: manager is shut down")
	}
	m.pruneLocked()
	if !hot && m.queueLimit > 0 && len(m.queue) >= m.queueLimit {
		m.shed++
		return nil, ErrQueueFull
	}
	m.seq++
	m.submitted++
	ctx, cancel := context.WithCancel(m.ctx)
	j := &Job{
		id:      fmt.Sprintf("j%06d", m.seq),
		typ:     typ,
		key:     key,
		meta:    meta,
		run:     run,
		ctx:     ctx,
		cancel:  cancel,
		state:   StateQueued,
		total:   total,
		created: m.now(),
		watch:   make(chan struct{}),
	}
	m.jobs[j.id] = j
	m.order = append(m.order, j)
	if hot {
		m.queue = append([]*Job{j}, m.queue...)
	} else {
		m.queue = append(m.queue, j)
	}
	m.cond.Signal()
	return j, nil
}

// Get looks a job up by id.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.pruneLocked()
	j, ok := m.jobs[id]
	return j, ok
}

// List snapshots every retained job, newest submission first.
func (m *Manager) List() []Status {
	m.mu.Lock()
	m.pruneLocked()
	jobsCopy := make([]*Job, len(m.order))
	copy(jobsCopy, m.order)
	m.mu.Unlock()
	out := make([]Status, 0, len(jobsCopy))
	for i := len(jobsCopy) - 1; i >= 0; i-- {
		out = append(out, jobsCopy[i].Status())
	}
	return out
}

// Cancel requests cancellation: a queued job finishes immediately as
// Cancelled, a running job has its context cancelled and transitions when
// its runner returns, a finished job is left as it is. The returned Status
// is the job's state after the request.
func (m *Manager) Cancel(id string) (Status, bool) {
	j, ok := m.Get(id)
	if !ok {
		return Status{}, false
	}
	j.mu.Lock()
	if j.state == StateQueued {
		j.state = StateCancelled
		j.finished = m.now()
		j.errMsg = "cancelled before start"
		j.bumpLocked()
	}
	st := j.statusLocked()
	j.mu.Unlock()
	// Cancel the context outside the job lock (the runner may be
	// mid-Event). For a job that never ran — cancelled while queued — this
	// is also what releases its context from the manager's tree.
	if st.State == StateCancelled || st.State == StateRunning {
		j.cancel()
	}
	return st, true
}

// Stats is the manager's counter snapshot for GET /v1/stats.
type Stats struct {
	Submitted uint64 `json:"submitted"`
	// Shed counts submissions rejected by the queue-depth limit
	// (ErrQueueFull); QueueLimit is the configured bound (0 = unbounded).
	Shed       uint64 `json:"shed"`
	QueueLimit int    `json:"queue_limit"`
	Queued     int    `json:"queued"`
	Running    int    `json:"running"`
	Done       int    `json:"done"`
	Failed     int    `json:"failed"`
	Cancelled  int    `json:"cancelled"`
}

// Stats counts the retained jobs by state (plus the cumulative submission
// counter, which pruning never decreases).
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	m.pruneLocked()
	jobsCopy := make([]*Job, len(m.order))
	copy(jobsCopy, m.order)
	st := Stats{Submitted: m.submitted, Shed: m.shed, QueueLimit: m.queueLimit}
	m.mu.Unlock()
	for _, j := range jobsCopy {
		switch j.Status().State {
		case StateQueued:
			st.Queued++
		case StateRunning:
			st.Running++
		case StateDone:
			st.Done++
		case StateFailed:
			st.Failed++
		case StateCancelled:
			st.Cancelled++
		}
	}
	return st
}

// QueuedLen reports how many jobs are awaiting a worker — the load figure
// the cluster layer gossips.
func (m *Manager) QueuedLen() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.queue)
}

// pruneLocked drops finished jobs older than the retention window. Callers
// hold m.mu.
func (m *Manager) pruneLocked() {
	if m.retention <= 0 {
		return
	}
	cutoff := m.now().Add(-m.retention)
	kept := m.order[:0]
	for _, j := range m.order {
		j.mu.Lock()
		stale := j.state.Terminal() && !j.finished.IsZero() && j.finished.Before(cutoff)
		j.mu.Unlock()
		if stale {
			delete(m.jobs, j.id)
			continue
		}
		kept = append(kept, j)
	}
	m.order = kept
}

// worker drains the queue until Close.
func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		m.mu.Lock()
		for len(m.queue) == 0 && !m.closed {
			m.cond.Wait()
		}
		if len(m.queue) == 0 {
			m.mu.Unlock()
			return
		}
		j := m.queue[0]
		m.queue = m.queue[1:]
		m.mu.Unlock()

		j.mu.Lock()
		if j.state != StateQueued { // cancelled while waiting
			j.mu.Unlock()
			j.cancel() // idempotent: release the context resources
			continue
		}
		j.state = StateRunning
		j.started = m.now()
		j.bumpLocked()
		j.mu.Unlock()

		err := runJob(j)
		j.finish(m.now(), err)
		j.cancel() // release the context resources
	}
}

// runJob invokes the runner with panic containment: a panicking job fails
// alone instead of taking the worker (and every queued job) with it.
func runJob(j *Job) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("jobs: job panicked: %v", p)
		}
	}()
	return j.run(j.ctx, j)
}

// Close shuts the manager down: no new submissions, queued jobs are
// cancelled immediately, and running jobs get until ctx expires to finish —
// after that their contexts are cancelled and their (continuously
// checkpointed) partial state is what a resubmission resumes from. Close
// returns once every worker has exited.
func (m *Manager) Close(ctx context.Context) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	queued := m.queue
	m.queue = nil
	m.cond.Broadcast()
	m.mu.Unlock()

	now := m.now()
	for _, j := range queued {
		j.mu.Lock()
		if j.state == StateQueued {
			j.state = StateCancelled
			j.finished = now
			j.errMsg = "server shutting down"
			j.bumpLocked()
		}
		j.mu.Unlock()
		j.cancel()
	}

	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		m.cancelAll()
		<-done
	}
	m.cancelAll()
	return err
}
