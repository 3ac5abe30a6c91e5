package jobs

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// wait polls a job until cond holds or the deadline passes.
func wait(t *testing.T, j *Job, what string, cond func(Status) bool) Status {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, st, watch := j.EventsSince(0)
		if cond(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s; job %+v", what, st)
		}
		select {
		case <-watch:
		case <-time.After(50 * time.Millisecond):
		}
	}
}

func TestJobLifecycle(t *testing.T) {
	m := NewManager(2, 0)
	defer m.Close(context.Background())

	j, err := m.Submit("sweep", "deadbeef", 3, "meta", func(ctx context.Context, j *Job) error {
		j.Begin(3, 1)
		for i := 0; i < 2; i++ {
			j.Event([]byte(fmt.Sprintf(`{"index":%d}`, i)))
			j.Advance()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if j.Meta() != "meta" || j.Key() != "deadbeef" {
		t.Fatalf("meta/key = %v/%s", j.Meta(), j.Key())
	}
	st := wait(t, j, "done", func(s Status) bool { return s.State == StateDone })
	if st.Progress != (Progress{Completed: 3, Resumed: 1, Total: 3}) {
		t.Fatalf("progress = %+v", st.Progress)
	}
	if st.Started == nil || st.Finished == nil || st.Error != "" {
		t.Fatalf("status = %+v", st)
	}
	lines, _, _ := j.EventsSince(0)
	if len(lines) != 2 {
		t.Fatalf("events = %d, want 2", len(lines))
	}
	if lines, _, _ = j.EventsSince(1); len(lines) != 1 || string(lines[0]) != `{"index":1}` {
		t.Fatalf("EventsSince(1) = %q", lines)
	}

	got, ok := m.Get(j.ID())
	if !ok || got != j {
		t.Fatal("Get did not return the submitted job")
	}
	if list := m.List(); len(list) != 1 || list[0].ID != j.ID() {
		t.Fatalf("List = %+v", list)
	}
}

func TestJobFailureAndPanic(t *testing.T) {
	m := NewManager(1, 0)
	defer m.Close(context.Background())

	boom := errors.New("boom")
	j1, _ := m.Submit("sweep", "k1", 1, nil, func(ctx context.Context, j *Job) error { return boom })
	j2, _ := m.Submit("sweep", "k2", 1, nil, func(ctx context.Context, j *Job) error { panic("kaput") })
	j3, _ := m.Submit("sweep", "k3", 1, nil, func(ctx context.Context, j *Job) error { return nil })

	if st := wait(t, j1, "failure", func(s Status) bool { return s.State.Terminal() }); st.State != StateFailed || st.Error != "boom" {
		t.Fatalf("j1 = %+v", st)
	}
	if st := wait(t, j2, "panic failure", func(s Status) bool { return s.State.Terminal() }); st.State != StateFailed {
		t.Fatalf("j2 = %+v", st)
	}
	// The worker survived the panic and still runs the next job.
	if st := wait(t, j3, "post-panic job", func(s Status) bool { return s.State.Terminal() }); st.State != StateDone {
		t.Fatalf("j3 = %+v", st)
	}
	stats := m.Stats()
	if stats.Submitted != 3 || stats.Failed != 2 || stats.Done != 1 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestCancelRunningAndQueued(t *testing.T) {
	m := NewManager(1, 0)
	defer m.Close(context.Background())

	started := make(chan struct{})
	j1, _ := m.Submit("sweep", "k1", 1, nil, func(ctx context.Context, j *Job) error {
		close(started)
		<-ctx.Done()
		return ctx.Err()
	})
	j2, _ := m.Submit("sweep", "k2", 1, nil, func(ctx context.Context, j *Job) error { return nil })
	<-started

	// j2 is queued behind the single worker: cancelling it finishes it
	// immediately, without ever running.
	if st, ok := m.Cancel(j2.ID()); !ok || st.State != StateCancelled {
		t.Fatalf("queued cancel = %+v ok=%v", st, ok)
	}
	// Cancelling the running job cancels its context; it transitions when
	// the runner returns.
	if _, ok := m.Cancel(j1.ID()); !ok {
		t.Fatal("running cancel not found")
	}
	st := wait(t, j1, "running cancel", func(s Status) bool { return s.State.Terminal() })
	if st.State != StateCancelled {
		t.Fatalf("j1 = %+v", st)
	}
	// Cancelling a finished job leaves it alone.
	if st, ok := m.Cancel(j1.ID()); !ok || st.State != StateCancelled {
		t.Fatalf("finished cancel = %+v", st)
	}
	if _, ok := m.Cancel("j999999"); ok {
		t.Fatal("Cancel of unknown id reported found")
	}
}

func TestRetentionPrune(t *testing.T) {
	m := NewManager(1, time.Hour)
	defer m.Close(context.Background())
	clock := time.Now()
	m.now = func() time.Time { return clock }

	j, _ := m.Submit("sweep", "k", 1, nil, func(ctx context.Context, j *Job) error { return nil })
	wait(t, j, "done", func(s Status) bool { return s.State == StateDone })

	clock = clock.Add(30 * time.Minute)
	if _, ok := m.Get(j.ID()); !ok {
		t.Fatal("job pruned before retention expired")
	}
	clock = clock.Add(2 * time.Hour)
	if _, ok := m.Get(j.ID()); ok {
		t.Fatal("job survived past retention")
	}
	if st := m.Stats(); st.Submitted != 1 || st.Done != 0 {
		t.Fatalf("stats after prune = %+v", st)
	}
}

func TestWorkerBound(t *testing.T) {
	const workers = 2
	m := NewManager(workers, 0)
	defer m.Close(context.Background())

	var running, peak atomic.Int32
	block := make(chan struct{})
	jobs := make([]*Job, 6)
	for i := range jobs {
		jobs[i], _ = m.Submit("sweep", fmt.Sprintf("k%d", i), 1, nil, func(ctx context.Context, j *Job) error {
			n := running.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			<-block
			running.Add(-1)
			return nil
		})
	}
	time.Sleep(100 * time.Millisecond)
	close(block)
	for _, j := range jobs {
		wait(t, j, "done", func(s Status) bool { return s.State == StateDone })
	}
	if got := peak.Load(); got > workers {
		t.Fatalf("peak concurrent jobs = %d, want <= %d", got, workers)
	}
}

func TestCloseGracefulAndForced(t *testing.T) {
	m := NewManager(1, 0)
	started := make(chan struct{})
	release := make(chan struct{})
	jRun, _ := m.Submit("sweep", "run", 1, nil, func(ctx context.Context, j *Job) error {
		close(started)
		select {
		case <-release:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	})
	jQueued, _ := m.Submit("sweep", "queued", 1, nil, func(ctx context.Context, j *Job) error { return nil })
	<-started

	// Graceful path: the running job finishes inside the grace period; the
	// queued one is cancelled immediately.
	go func() {
		time.Sleep(50 * time.Millisecond)
		close(release)
	}()
	if err := m.Close(context.Background()); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if st := jRun.Status(); st.State != StateDone {
		t.Fatalf("running job after graceful close = %+v", st)
	}
	if st := jQueued.Status(); st.State != StateCancelled {
		t.Fatalf("queued job after close = %+v", st)
	}
	if _, err := m.Submit("sweep", "late", 1, nil, nil); err == nil {
		t.Fatal("Submit after Close should fail")
	}

	// Forced path: the grace period expires, the job's context is cancelled.
	m2 := NewManager(1, 0)
	started2 := make(chan struct{})
	j2, _ := m2.Submit("sweep", "stuck", 1, nil, func(ctx context.Context, j *Job) error {
		close(started2)
		<-ctx.Done()
		return ctx.Err()
	})
	<-started2
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := m2.Close(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("forced Close = %v, want deadline exceeded", err)
	}
	if st := j2.Status(); st.State != StateCancelled {
		t.Fatalf("stuck job after forced close = %+v", st)
	}
}

// TestQueueLimit pins the admission-control contract of the job queue:
// cold submissions beyond the configured depth fail with ErrQueueFull (and
// count as shed), while SubmitHot both bypasses the limit and jumps the
// queue, so already-computed work is never shed behind a cold backlog.
func TestQueueLimit(t *testing.T) {
	m := NewManager(1, 0)
	defer m.Close(context.Background())
	m.SetQueueLimit(2)

	started := make(chan struct{})
	release := make(chan struct{})
	blocker, _ := m.Submit("sweep", "blocker", 1, nil, func(ctx context.Context, j *Job) error {
		close(started)
		<-release
		return nil
	})
	<-started // the single worker is now occupied; the queue is empty
	if got := m.QueuedLen(); got != 0 {
		t.Fatalf("QueuedLen = %d with the queue empty, want 0", got)
	}

	var ranMu sync.Mutex
	var ran []string
	runner := func(name string) RunFunc {
		return func(ctx context.Context, j *Job) error {
			ranMu.Lock()
			ran = append(ran, name)
			ranMu.Unlock()
			return nil
		}
	}
	cold1, err := m.Submit("sweep", "cold1", 1, nil, runner("cold1"))
	if err != nil {
		t.Fatalf("cold1: %v", err)
	}
	cold2, err := m.Submit("sweep", "cold2", 1, nil, runner("cold2"))
	if err != nil {
		t.Fatalf("cold2: %v", err)
	}
	// Boundary: the queue holds exactly limit jobs; the next cold submit
	// sheds without creating a job.
	if _, err := m.Submit("sweep", "cold3", 1, nil, runner("cold3")); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-limit Submit = %v, want ErrQueueFull", err)
	}
	// A hot submission is exempt from the limit and runs before the
	// queued cold jobs.
	hot, err := m.SubmitHot("sweep", "hot", 1, nil, runner("hot"))
	if err != nil {
		t.Fatalf("SubmitHot: %v", err)
	}
	if st := m.Stats(); st.Shed != 1 || st.QueueLimit != 2 || st.Queued != 3 {
		t.Fatalf("stats = %+v, want shed=1 limit=2 queued=3", st)
	}
	// QueuedLen (the load the cluster gossips) counts the same jobs: the
	// shed submission never entered the queue.
	if got := m.QueuedLen(); got != 3 {
		t.Fatalf("QueuedLen = %d, want 3", got)
	}

	close(release)
	wait(t, blocker, "blocker done", func(s Status) bool { return s.State == StateDone })
	wait(t, hot, "hot done", func(s Status) bool { return s.State == StateDone })
	wait(t, cold1, "cold1 done", func(s Status) bool { return s.State == StateDone })
	wait(t, cold2, "cold2 done", func(s Status) bool { return s.State == StateDone })

	ranMu.Lock()
	defer ranMu.Unlock()
	if len(ran) != 3 || ran[0] != "hot" {
		t.Fatalf("run order = %v, want hot first of three", ran)
	}
}
