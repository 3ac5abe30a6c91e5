package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime/metrics"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"ulba/internal/jobs"
	"ulba/internal/server"
)

// target is one server under test on a loopback listener: the ulba service
// itself, or — in the traced pass of a synchronous workload — the
// bench-owned handler that makes the serving path's public calls.
type target struct {
	base   string
	srv    *server.Server // nil for the traced handler
	th     *tracedHandler // nil for the ulba service
	hs     *http.Server
	served chan struct{} // closed once Serve returned

	storeOpen, serverNew time.Duration
}

const jobRetention = 2 * time.Second

// startTarget boots a target. Store-backed workloads open the store in dir;
// with a tracer, a synchronous workload gets the traced handler and the
// store open and server construction are recorded as spans.
func startTarget(w *workload, dir string, tr *tracer) (*target, error) {
	t := &target{}
	var h http.Handler
	if tr != nil && !w.jobs {
		t.th = newTracedHandler(tr)
		h = t.th
	} else {
		var cfg server.Config
		if w.jobs {
			// A finished job keeps its event log (one line per instance)
			// until retention prunes it; at the 1 h default the heap grows
			// with the run's length. Operations fetch their result as soon
			// as the job ends, so a short retention loses nothing.
			cfg.JobRetention = jobRetention
			start, s0 := time.Now(), tr.now()
			st, err := jobs.Open(dir)
			t.storeOpen = time.Since(start)
			tr.root("jobs.open", s0)
			if err != nil {
				return nil, err
			}
			cfg.Store = st
		}
		start, s0 := time.Now(), tr.now()
		srv, err := server.New(cfg)
		t.serverNew = time.Since(start)
		tr.root("server.new", s0)
		if err != nil {
			if cfg.Store != nil {
				cfg.Store.Close()
			}
			return nil, err
		}
		t.srv = srv
		h = srv.Handler()
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		if t.srv != nil {
			t.srv.Close(context.Background())
		}
		return nil, err
	}
	t.base = "http://" + ln.Addr().String()
	t.hs = &http.Server{Handler: h}
	t.served = make(chan struct{})
	go func() {
		defer close(t.served)
		t.hs.Serve(ln)
	}()
	return t, nil
}

// close stops the listener, waits for Serve to return, and shuts the
// service down (draining jobs and closing the store).
func (t *target) close() {
	t.hs.Close()
	<-t.served
	if t.srv != nil {
		t.srv.Close(context.Background())
	}
}

// gen issues a plan's operations against one target.
type gen struct {
	w    *workload
	p    *plan
	tr   *tracer // nil in an untraced pass
	hc   *http.Client
	base string
}

// newClient returns a client that never holds more than conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: time.Minute,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// send performs req and leaves the response body in buf; any status other
// than want is an error.
func (g *gen) send(req *http.Request, want int, buf *bytes.Buffer) error {
	resp, err := g.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return fmt.Errorf("%s %s: %w", req.Method, req.URL.Path, err)
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d: %.200s", req.Method, req.URL.Path, resp.StatusCode, buf.Bytes())
	}
	return nil
}

// post sends one synchronous engine request. A traced request carries its
// root span's ID, so the handler can parent its spans to it.
func (g *gen) post(b *body, buf *bytes.Buffer) error {
	req, err := http.NewRequest(http.MethodPost, g.base+"/v1/"+b.typ, bytes.NewReader(b.raw))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	root, start := g.tr.id(), g.tr.now()
	if g.tr != nil {
		req.Header.Set(spanHeader, strconv.FormatInt(root, 10))
	}
	err = g.send(req, http.StatusOK, buf)
	g.tr.add(span{ID: root, Parent: -1, Req: root, Name: "transport.round_trip", Start: start, End: g.tr.now()})
	return err
}

// job runs one asynchronous operation: submit, follow the job's stream to
// its terminal line, then fetch the result into buf.
func (g *gen) job(b *body, buf *bytes.Buffer) error {
	root, start := g.tr.id(), g.tr.now()
	defer func() {
		g.tr.add(span{ID: root, Parent: -1, Req: root, Name: "client.op", Start: start, End: g.tr.now()})
	}()
	phase := func(name, method, path string, payload []byte, want int) error {
		var rd io.Reader = http.NoBody
		if payload != nil {
			rd = bytes.NewReader(payload)
		}
		req, err := http.NewRequest(method, g.base+path, rd)
		if err != nil {
			return err
		}
		s := g.tr.now()
		err = g.send(req, want, buf)
		g.tr.add(span{ID: g.tr.id(), Parent: root, Req: root, Name: name, Start: s, End: g.tr.now()})
		return err
	}
	if err := phase("jobs.submit", http.MethodPost, "/v1/jobs", b.submit, http.StatusAccepted); err != nil {
		return err
	}
	var st struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(buf.Bytes(), &st); err != nil || st.ID == "" {
		return fmt.Errorf("job submission answered %.200s", buf.Bytes())
	}
	if err := phase("jobs.wait", http.MethodGet, "/v1/jobs/"+st.ID+"/stream", nil, http.StatusOK); err != nil {
		return err
	}
	lines := bytes.TrimRight(buf.Bytes(), "\n")
	var tail struct {
		State string `json:"state"`
		Error string `json:"error"`
	}
	if err := json.Unmarshal(lines[bytes.LastIndexByte(lines, '\n')+1:], &tail); err != nil || tail.State != "done" {
		return fmt.Errorf("job %s ended in state %q: %s", st.ID, tail.State, tail.Error)
	}
	return phase("jobs.result", http.MethodGet, "/v1/jobs/"+st.ID+"/result", nil, http.StatusOK)
}

// opResult is one operation of a pass.
type opResult struct {
	issued bool
	start  time.Duration // due time (open loop) or send time, from the pass epoch
	end    time.Duration
	err    error
	size   int
	sum    [sha256.Size]byte // response hash, when the pass hashes
	body   []byte            // response copy, for the bodies the gate recomputes
}

var errMismatch = errors.New("response differs from the reference body")

// passResult is what one pass over the plan measured.
type passResult struct {
	ops       []opResult
	lateness  []time.Duration // open loop: how late each sleeping sender woke
	exhausted bool            // a closed loop ran out of rendered bodies
	proc      procStats       // process counters over the window
}

// run issues the plan's operations for warmup+window and checks each
// response against ref (body index -> reference bytes, nil when none).
// keep marks the body indices whose responses the gate recomputes later;
// hash makes every response's SHA-256 part of its result.
func (g *gen) run(warmup, window time.Duration, ref [][]byte, keep []bool, hash bool) *passResult {
	n := len(g.p.seq)
	pr := &passResult{ops: make([]opResult, n)}
	end := warmup + window
	late := make([][]time.Duration, g.w.clients)
	var next atomic.Int64
	var exhausted atomic.Bool
	epoch := time.Now()

	stop := make(chan struct{})
	sampled := make(chan procStats, 1)
	go func() { sampled <- sampleProcess(epoch, warmup, end, stop) }()

	var wg sync.WaitGroup
	for c := range g.w.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					exhausted.Store(g.p.due == nil)
					return
				}
				var start time.Duration
				if g.p.due != nil {
					start = g.p.due[i]
					if wait := start - time.Since(epoch); wait > 0 {
						sleep(wait)
						late[c] = append(late[c], time.Since(epoch)-start)
					}
				} else if start = time.Since(epoch); start >= end {
					return
				}
				op := &pr.ops[i]
				op.issued, op.start = true, start
				bi := g.p.seq[i]
				if g.w.jobs {
					op.err = g.job(&g.p.bodies[bi], &buf)
				} else {
					op.err = g.post(&g.p.bodies[bi], &buf)
				}
				op.end = time.Since(epoch)
				if op.err != nil {
					continue
				}
				op.size = buf.Len()
				if ref[bi] != nil && !bytes.Equal(ref[bi], buf.Bytes()) {
					op.err = errMismatch
				}
				if hash {
					op.sum = sha256.Sum256(buf.Bytes())
				}
				if keep[bi] {
					op.body = bytes.Clone(buf.Bytes())
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	pr.proc = <-sampled
	pr.exhausted = exhausted.Load()
	for _, l := range late {
		pr.lateness = append(pr.lateness, l...)
	}
	g.hc.CloseIdleConnections()
	return pr
}

// window returns the ops whose start falls in [from, to).
func (pr *passResult) window(from, to time.Duration) []*opResult {
	var ops []*opResult
	for i := range pr.ops {
		if op := &pr.ops[i]; op.issued && op.start >= from && op.start < to {
			ops = append(ops, op)
		}
	}
	return ops
}

// procStats are the process-wide counters of one window.
type procStats struct {
	heapPeak   uint64        // max sampled heap object bytes
	cpu        time.Duration // user + system CPU
	allocBytes uint64
	gcCycles   uint64
}

// sampleProcess waits until from (relative to epoch), then samples the
// heap's object bytes every 100 ms until to, or until stop closes.
func sampleProcess(epoch time.Time, from, to time.Duration, stop <-chan struct{}) procStats {
	wait := func(d time.Duration) bool {
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-t.C:
			return true
		case <-stop:
			return false
		}
	}
	if !wait(from - time.Since(epoch)) {
		return procStats{}
	}
	samples := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	read := func() (heap, allocs, cycles uint64) {
		metrics.Read(samples)
		return samples[0].Value.Uint64(), samples[1].Value.Uint64(), samples[2].Value.Uint64()
	}
	var st procStats
	cpu0 := processCPU()
	heap, alloc0, gc0 := read()
	st.heapPeak = heap
	for time.Since(epoch) < to && wait(min(100*time.Millisecond, to-time.Since(epoch))) {
		heap, _, _ = read()
		st.heapPeak = max(st.heapPeak, heap)
	}
	_, alloc1, gc1 := read()
	st.cpu = processCPU() - cpu0
	st.allocBytes, st.gcCycles = alloc1-alloc0, gc1-gc0
	return st
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// sleep blocks the calling thread in the kernel for d. time.Sleep parks the
// goroutine on the runtime's timers, which an idle process wakes at
// millisecond granularity; an open loop needs its senders on time.
func sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}
