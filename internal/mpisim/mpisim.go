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
// Worlds are reusable: mailbox maps, queue slices, and per-rank Procs
// survive across runs, and AcquireWorld/Release pool them by (size, cost)
// so sweeping thousands of scenarios does not rebuild the machine each
// time. Per-rank buffer freelists (AcquireBuf/ReleaseBuf) plus the
// ownership-transfer SendOwned path let hot loops exchange messages without
// per-message allocations.
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

// reset drops any pending messages and releases their payload references,
// returning every stream to its empty rewound state.
func (m *mailbox) reset() {
	m.mu.Lock()
	for _, q := range m.queues {
		for i := q.head; i < len(q.msgs); i++ {
			q.msgs[i] = message{}
		}
		q.head = 0
		q.msgs = q.msgs[:0]
	}
	m.spurious = 0
	m.mu.Unlock()
}

// World is one simulated machine: a set of ranks and their mailboxes. A
// world is reusable — Run resets the per-rank state, and the mailbox maps,
// queue slices, and per-rank buffer freelists carry over between runs.
type World struct {
	size   int
	cost   CostModel
	boxes  []*mailbox
	procs  []Proc
	errs   []error
	failed bool
}

// NewWorld creates a world of size ranks with the given cost model.
// It panics on invalid arguments; misconfiguration is a programming error.
func NewWorld(size int, cost CostModel) *World {
	if size <= 0 {
		panic("mpisim: world size must be positive")
	}
	if err := cost.Validate(); err != nil {
		panic(err)
	}
	w := &World{
		size:  size,
		cost:  cost,
		boxes: make([]*mailbox, size),
		procs: make([]Proc, size),
		errs:  make([]error, size),
	}
	for i := range w.boxes {
		w.boxes[i] = newMailbox()
		w.procs[i].world = w
		w.procs[i].rank = i
		w.procs[i].speed = 1
	}
	return w
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.size }

// worldPools pools reusable worlds by their (size, cost) shape, so sweep
// engines running thousands of same-shaped scenarios reuse the mailbox maps
// and freelists instead of rebuilding them per scenario.
var worldPools sync.Map // worldShape -> *sync.Pool

type worldShape struct {
	size int
	cost CostModel
}

// AcquireWorld returns a reusable world of the given shape, creating one if
// the pool is empty. Pair it with Release when the run completed cleanly.
func AcquireWorld(size int, cost CostModel) *World {
	if p, ok := worldPools.Load(worldShape{size, cost}); ok {
		if w, _ := p.(*sync.Pool).Get().(*World); w != nil {
			return w
		}
	}
	return NewWorld(size, cost)
}

// Release returns the world to the pool for reuse. Mailboxes are drained
// first, so a program that left unconsumed messages behind cannot leak them
// into a later run. A world whose last run failed is discarded instead:
// its goroutines may have stopped mid-protocol.
func (w *World) Release() {
	if w.failed {
		return
	}
	for _, box := range w.boxes {
		box.reset()
	}
	shape := worldShape{w.size, w.cost}
	p, ok := worldPools.Load(shape)
	if !ok {
		p, _ = worldPools.LoadOrStore(shape, &sync.Pool{})
	}
	p.(*sync.Pool).Put(w)
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
	world *World
	rank  int
	clock float64
	speed float64 // relative compute speed multiplier; 1 = reference FLOPS
	stats Stats
	bufs  [][]byte   // freelist of wire buffers (AcquireBuf/ReleaseBuf)
	f64   []float64  // scratch for collective partial results
	s1    [1]float64 // scratch for scalar allreduces
}

// reset prepares the Proc for a fresh run, keeping its buffer freelist and
// scratch capacity. The speed returns to the homogeneous default so pooled
// worlds cannot leak one program's heterogeneity into the next run.
func (p *Proc) reset() {
	p.clock = 0
	p.speed = 1
	p.stats = Stats{}
}

// Rank returns this PE's rank in [0, Size).
func (p *Proc) Rank() int { return p.rank }

// Size returns the number of PEs in the world.
func (p *Proc) Size() int { return p.world.size }

// Clock returns the current virtual time in seconds.
func (p *Proc) Clock() float64 { return p.clock }

// Stats returns a snapshot of the instrumentation counters.
func (p *Proc) Stats() Stats { return p.stats }

// Cost returns the world's cost model.
func (p *Proc) Cost() CostModel { return p.world.cost }

// AcquireBuf returns an empty buffer from the rank's freelist (nil when the
// freelist is dry; the append-into codecs grow it as needed). Use it for
// payloads handed to SendOwned, and return received pooled payloads with
// ReleaseBuf; steady-state message passing then allocates nothing.
func (p *Proc) AcquireBuf() []byte {
	if n := len(p.bufs); n > 0 {
		b := p.bufs[n-1]
		p.bufs[n-1] = nil
		p.bufs = p.bufs[:n-1]
		return b[:0]
	}
	return nil
}

// ReleaseBuf recycles a buffer into the rank's freelist. The freelist is
// bounded; beyond that, buffers fall back to the garbage collector.
func (p *Proc) ReleaseBuf(b []byte) {
	if cap(b) == 0 || len(p.bufs) >= 64 {
		return
	}
	p.bufs = append(p.bufs, b)
}

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

// Send delivers data to dst under tag. The payload is copied, so the caller
// may reuse its buffer. Sends are buffered and never block. The sender pays
// one latency of CPU overhead; the data becomes available at the receiver
// after the full latency plus the serialization time.
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
	p.deliver(dst, tag, append([]byte(nil), data...), virtualBytes)
}

// SendOwned is Send without the defensive copy: ownership of data transfers
// to the receiver, which gets the very same backing array from Recv (and may
// recycle it with ReleaseBuf). The caller must not touch data afterwards.
// Cost semantics are identical to Send.
func (p *Proc) SendOwned(dst, tag int, data []byte) {
	p.deliver(dst, tag, data, len(data))
}

// SendOwnedV is SendOwned with an explicit virtual wire size, the
// ownership-transfer counterpart of SendV.
func (p *Proc) SendOwnedV(dst, tag int, data []byte, virtualBytes int) {
	p.deliver(dst, tag, data, virtualBytes)
}

// deliver implements the shared send path: charge the cost model and hand
// payload (already owned by the message) to the destination mailbox.
func (p *Proc) deliver(dst, tag int, payload []byte, virtualBytes int) {
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
		message{payload: payload, availAt: start + cost.Latency + float64(virtualBytes)*cost.ByteTime},
	)
}

// Recv blocks until a message from src with the given tag is available and
// returns its payload. The receiver waits (idle virtual time) if the data
// has not arrived yet, then pays one latency of CPU overhead. The payload is
// owned by the receiver; if it came from a pooled SendOwned buffer it may be
// recycled with ReleaseBuf once decoded.
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

// SendRecv sends to dst and receives from src with the same tag, the
// canonical halo-exchange step. Because sends are buffered, the combined
// operation cannot deadlock even when all ranks call it simultaneously.
func (p *Proc) SendRecv(dst int, sendData []byte, src, tag int) []byte {
	p.Send(dst, tag, sendData)
	return p.Recv(src, tag)
}

// SendRecvOwned is SendRecv on the ownership-transfer path: sendData is
// handed over without a copy, and the returned payload is owned by the
// caller (recyclable with ReleaseBuf).
func (p *Proc) SendRecvOwned(dst int, sendData []byte, src, tag int) []byte {
	p.SendOwned(dst, tag, sendData)
	return p.Recv(src, tag)
}

// Run executes body as rank goroutines 0..size-1 and waits for all of them.
// It returns the combined errors of all ranks; a panicking rank is reported
// as an error carrying its stack trace. On a non-nil return the world must
// be discarded (mailboxes may hold orphaned messages).
func Run(size int, cost CostModel, body func(p *Proc) error) error {
	w := NewWorld(size, cost)
	return w.Run(body)
}

// Run executes one SPMD program over this world's ranks, reusing the
// per-rank Procs and mailboxes of any earlier run.
func (w *World) Run(body func(p *Proc) error) error {
	w.failed = false
	var wg sync.WaitGroup
	for r := 0; r < w.size; r++ {
		w.errs[r] = nil
		w.procs[r].reset()
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if rec := recover(); rec != nil {
					w.errs[rank] = fmt.Errorf("mpisim: rank %d panicked: %v\n%s", rank, rec, debug.Stack())
				}
			}()
			w.errs[rank] = body(&w.procs[rank])
		}(r)
	}
	wg.Wait()
	for _, err := range w.errs {
		if err != nil {
			w.failed = true
			return joinErrors(w.errs)
		}
	}
	return nil
}

// RunCollect is like Run but also returns the final per-rank clocks and
// stats, which experiment drivers use to compute total wall time
// (max of clocks) and PE usage.
func RunCollect(size int, cost CostModel, body func(p *Proc) error) ([]float64, []Stats, error) {
	w := NewWorld(size, cost)
	return runCollect(w, body)
}

// RunCollectPooled is RunCollect over a pooled reusable world: the sweep
// engines' entry point. The world returns to the pool after a clean run, so
// back-to-back scenarios of the same shape reuse mailboxes, queues, and
// per-rank buffer freelists instead of rebuilding them.
func RunCollectPooled(size int, cost CostModel, body func(p *Proc) error) ([]float64, []Stats, error) {
	w := AcquireWorld(size, cost)
	clocks, allStats, err := runCollect(w, body)
	w.Release()
	return clocks, allStats, err
}

func runCollect(w *World, body func(p *Proc) error) ([]float64, []Stats, error) {
	clocks := make([]float64, w.size)
	allStats := make([]Stats, w.size)
	err := w.Run(func(p *Proc) error {
		defer func() {
			clocks[p.rank] = p.clock
			allStats[p.rank] = p.stats
		}()
		return body(p)
	})
	return clocks, allStats, err
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
