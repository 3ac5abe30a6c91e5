// Package mpisim is a simulated distributed-memory message-passing runtime:
// the substrate standing in for MPI in this reproduction (the paper ran on
// an MPI cluster; Go has no MPI ecosystem).
//
// Ranks execute as goroutines and exchange real data through tagged
// mailboxes, so every algorithmic code path (halo exchange, centralized
// gather/broadcast, migration, gossip) actually runs. Time is virtual:
// every rank carries a clock that advances through computation
// (FLOP / FLOPS) and communication (a Hockney latency/bandwidth model), and
// a receive can never complete before the matching send's data has arrived.
// Wall-clock style results (iteration times, LB cost, PE usage) are read off
// the virtual clocks, which makes runs deterministic and independent of the
// host machine and the Go scheduler.
//
// The model is intentionally simple — a fixed per-message latency, a fixed
// per-byte cost, and a single reference PE speed — because the paper's
// conclusions depend on the relative cost of imbalance versus balancing, not
// on network topology details. Heterogeneous clusters (Lastovetsky &
// Szustak's regime, where a deliberately non-uniform partition is the
// optimum) are expressed per rank: SetSpeed scales one rank's compute rate
// relative to the reference FLOPS without touching the network model.
//
// There is one message path: a send hands its buffer to the receiver
// without a copy, and receivers only read payloads, so a broadcast forwards
// one buffer to all its children. Each run builds its world afresh.
package mpisim

import (
	"errors"
	"fmt"
	"math"
	"runtime/debug"
	"sync"
)

// CostModel fixes the virtual-time cost of computation and communication.
type CostModel struct {
	// Latency is the per-message CPU + wire latency in seconds (the alpha
	// of the Hockney model).
	Latency float64
	// ByteTime is the transfer time per byte in seconds (1/bandwidth).
	ByteTime float64
	// FLOPS is the reference PE speed in FLOP per second (the paper's
	// omega). Every rank runs at FLOPS unless the program scales it with
	// Proc.SetSpeed.
	FLOPS float64
}

// DefaultCostModel resembles a commodity cluster node of the paper's era:
// ~2 microseconds message latency, 10 GB/s links, 1 GFLOPS per PE (the
// paper's omega = 1 GFLOPS).
func DefaultCostModel() CostModel {
	return CostModel{Latency: 2e-6, ByteTime: 1e-10, FLOPS: 1e9}
}

// Validate checks the model is physically sensible.
func (c CostModel) Validate() error {
	if c.Latency < 0 || c.ByteTime < 0 {
		return fmt.Errorf("mpisim: negative communication costs: %+v", c)
	}
	if c.FLOPS <= 0 {
		return fmt.Errorf("mpisim: FLOPS must be positive: %+v", c)
	}
	return nil
}

type msgKey struct {
	src, tag int
}

type message struct {
	payload []byte
	availAt float64 // virtual time at which the payload is at the receiver
}

// msgQueue is the FIFO of one (source, tag) stream, with its own condition
// variable so a delivery wakes only a receiver blocked on this stream. The
// slice is a reusable ring: head marks the first pending message, and when
// the queue drains it rewinds to reuse the same backing array.
type msgQueue struct {
	cond sync.Cond
	msgs []message
	head int
}

// mailbox holds the pending messages of one rank, keyed by (source, tag),
// each stream FIFO. Sends are buffered (eager protocol), so a send never
// blocks; receives block until a matching message exists. Queues are never
// deleted: a mailbox warms up to its program's stream set and then delivers
// without allocating.
type mailbox struct {
	mu     sync.Mutex
	queues map[msgKey]*msgQueue
	// spurious counts wakeup signals issued to a blocked receiver that
	// cannot consume the delivery. Per-stream conditions keep it at zero
	// (only a matching delivery signals the waiter); the diagnostic exists
	// for the wakeup benchmark and regression tests.
	spurious uint64
}

func newMailbox() *mailbox {
	return &mailbox{queues: make(map[msgKey]*msgQueue)}
}

// queue returns the stream for key, creating it on first use.
func (m *mailbox) queue(key msgKey) *msgQueue {
	q := m.queues[key]
	if q == nil {
		q = &msgQueue{}
		q.cond.L = &m.mu
		m.queues[key] = q
	}
	return q
}

func (m *mailbox) put(key msgKey, msg message) {
	m.mu.Lock()
	q := m.queue(key)
	q.msgs = append(q.msgs, msg)
	m.mu.Unlock()
	// Only a receiver blocked on this very stream can be waiting on q.cond,
	// so this wakes exactly the goroutine that can consume the message —
	// no thundering herd across unrelated (src, tag) streams.
	q.cond.Signal()
}

func (m *mailbox) take(key msgKey) message {
	m.mu.Lock()
	defer m.mu.Unlock()
	q := m.queue(key)
	for q.head == len(q.msgs) {
		q.cond.Wait()
		if q.head == len(q.msgs) {
			m.spurious++
		}
	}
	msg := q.msgs[q.head]
	q.msgs[q.head] = message{}
	q.head++
	if q.head == len(q.msgs) {
		q.head = 0
		q.msgs = q.msgs[:0]
	}
	return msg
}

// world is one simulated machine: a set of ranks and their mailboxes.
type world struct {
	size  int
	cost  CostModel
	boxes []*mailbox
	procs []Proc
}

// newWorld creates a world of size ranks with the given cost model.
// It panics on invalid arguments; misconfiguration is a programming error.
func newWorld(size int, cost CostModel) *world {
	if size <= 0 {
		panic("mpisim: world size must be positive")
	}
	if err := cost.Validate(); err != nil {
		panic(err)
	}
	w := &world{
		size:  size,
		cost:  cost,
		boxes: make([]*mailbox, size),
		procs: make([]Proc, size),
	}
	for i := range w.boxes {
		w.boxes[i] = newMailbox()
		w.procs[i].world = w
		w.procs[i].rank = i
		w.procs[i].speed = 1
	}
	return w
}

// Stats aggregates the per-rank instrumentation counters. They are
// maintained out-of-band: reading them costs no virtual time.
type Stats struct {
	ComputeTime float64 // seconds spent in Compute
	SendTime    float64 // seconds of send overhead
	RecvTime    float64 // seconds of receive overhead (excluding waiting)
	WaitTime    float64 // seconds idle, waiting for data to arrive
	MsgsSent    int
	BytesSent   int64
}

// Proc is the per-rank handle passed to the SPMD body. A Proc must only be
// used from the goroutine running its rank.
type Proc struct {
	world *world
	rank  int
	clock float64
	speed float64 // relative compute speed multiplier; 1 = reference FLOPS
	stats Stats
	f64   []float64  // scratch for collective partial results
	s1    [1]float64 // scratch for scalar allreduces
}

// Rank returns this PE's rank in [0, Size).
func (p *Proc) Rank() int { return p.rank }

// Size returns the number of PEs in the world.
func (p *Proc) Size() int { return p.world.size }

// Clock returns the current virtual time in seconds.
func (p *Proc) Clock() float64 { return p.clock }

// Stats returns a snapshot of the instrumentation counters.
func (p *Proc) Stats() Stats { return p.stats }

// SetSpeed fixes this rank's relative compute speed: subsequent Compute
// calls advance the clock by flops/(FLOPS*speed) seconds. The default is 1
// (homogeneous cluster), and multiplying by exactly 1.0 is a bitwise no-op,
// so homogeneous programs are unaffected. Programs modeling heterogeneous
// clusters call it once at the start of the rank body. Speeds must be
// positive and finite.
func (p *Proc) SetSpeed(speed float64) {
	if speed <= 0 || math.IsNaN(speed) || math.IsInf(speed, 0) {
		panic(fmt.Sprintf("mpisim: rank %d setting invalid speed %g", p.rank, speed))
	}
	p.speed = speed
}

// Compute advances the clock by flops/(FLOPS*speed) seconds of pure
// computation. Negative amounts are a programming error.
func (p *Proc) Compute(flops float64) {
	if flops < 0 || math.IsNaN(flops) {
		panic(fmt.Sprintf("mpisim: rank %d computing invalid FLOP amount %g", p.rank, flops))
	}
	dt := flops / (p.world.cost.FLOPS * p.speed)
	p.clock += dt
	p.stats.ComputeTime += dt
}

// Elapse advances the clock by dt seconds without attributing the time to
// computation (e.g. modeled OS noise in fault-injection tests).
func (p *Proc) Elapse(dt float64) {
	if dt < 0 || math.IsNaN(dt) {
		panic(fmt.Sprintf("mpisim: rank %d elapsing invalid duration %g", p.rank, dt))
	}
	p.clock += dt
}

// Send delivers data to dst under tag. The buffer is handed to the
// receiver without a copy, so the caller must not modify it afterwards.
// Sends are buffered and never block. The sender pays one latency of CPU
// overhead; the data becomes available at the receiver after the full
// latency plus the serialization time.
func (p *Proc) Send(dst, tag int, data []byte) {
	p.SendV(dst, tag, data, len(data))
}

// SendV is Send with an explicit virtual wire size: the cost model charges
// for virtualBytes instead of len(data). Simulated applications use it when
// the in-memory representation is a compressed stand-in for the real
// payload (e.g. one byte per mesh cell standing in for a full CFD cell
// state), so communication costs reflect the modeled system rather than
// the simulation's encoding.
func (p *Proc) SendV(dst, tag int, data []byte, virtualBytes int) {
	if dst < 0 || dst >= p.world.size {
		panic(fmt.Sprintf("mpisim: rank %d sending to invalid rank %d", p.rank, dst))
	}
	if virtualBytes < 0 {
		panic(fmt.Sprintf("mpisim: rank %d sending negative virtual size %d", p.rank, virtualBytes))
	}
	start := p.clock
	cost := p.world.cost
	p.clock += cost.Latency
	p.stats.SendTime += cost.Latency
	p.stats.MsgsSent++
	p.stats.BytesSent += int64(virtualBytes)
	p.world.boxes[dst].put(
		msgKey{src: p.rank, tag: tag},
		message{payload: data, availAt: start + cost.Latency + float64(virtualBytes)*cost.ByteTime},
	)
}

// Recv blocks until a message from src with the given tag is available and
// returns its payload, the sender's buffer, which the receiver only reads.
// The receiver waits (idle virtual time) if the data has not arrived yet,
// then pays one latency of CPU overhead.
func (p *Proc) Recv(src, tag int) []byte {
	if src < 0 || src >= p.world.size {
		panic(fmt.Sprintf("mpisim: rank %d receiving from invalid rank %d", p.rank, src))
	}
	msg := p.world.boxes[p.rank].take(msgKey{src: src, tag: tag})
	if msg.availAt > p.clock {
		p.stats.WaitTime += msg.availAt - p.clock
		p.clock = msg.availAt
	}
	cost := p.world.cost
	p.clock += cost.Latency
	p.stats.RecvTime += cost.Latency
	return msg.payload
}

// Run executes body as rank goroutines 0..size-1 on a fresh world and waits
// for all of them. It returns the combined errors of all ranks; a panicking
// rank is reported as an error carrying its stack trace.
func Run(size int, cost CostModel, body func(p *Proc) error) error {
	return newWorld(size, cost).run(body)
}

// RunCollect is like Run but also returns the final per-rank clocks and
// stats, which experiment drivers use to compute total wall time
// (max of clocks) and PE usage.
func RunCollect(size int, cost CostModel, body func(p *Proc) error) ([]float64, []Stats, error) {
	w := newWorld(size, cost)
	err := w.run(body)
	clocks := make([]float64, size)
	allStats := make([]Stats, size)
	for r := range w.procs {
		clocks[r] = w.procs[r].clock
		allStats[r] = w.procs[r].stats
	}
	return clocks, allStats, err
}

// run executes one SPMD program over the world's ranks.
func (w *world) run(body func(p *Proc) error) error {
	errs := make([]error, w.size)
	var wg sync.WaitGroup
	for r := 0; r < w.size; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if rec := recover(); rec != nil {
					errs[rank] = fmt.Errorf("mpisim: rank %d panicked: %v\n%s", rank, rec, debug.Stack())
				}
			}()
			errs[rank] = body(&w.procs[rank])
		}(r)
	}
	wg.Wait()
	return joinErrors(errs)
}

// joinErrors combines the per-rank failures: every failing rank's
// diagnostic surfaces, not just the first one.
func joinErrors(errs []error) error {
	var first error
	n := 0
	for _, e := range errs {
		if e != nil {
			if first == nil {
				first = e
			}
			n++
		}
	}
	if n <= 1 {
		return first
	}
	return fmt.Errorf("%d ranks failed: %w", n, errors.Join(errs...))
}
