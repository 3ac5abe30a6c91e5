package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"time"

	"ulba"
)

// body is one request body, rendered before any timing starts.
type body struct {
	typ    string // engine type; the synchronous route is "/v1/" + typ
	raw    []byte // the engine request
	submit []byte // the POST /v1/jobs submission wrapping raw (sweep-jobs only)
}

// plan is everything a workload sends, derived from the seed alone: the
// server receives only these bytes.
type plan struct {
	bodies []body
	// seq is the body index of each operation, in issue order.
	seq []int
	// due is each operation's arrival time, measured from the end of set-up
	// (open loop only; nil for a closed loop).
	due []time.Duration
	// setup lists the bodies a set-up posts before the server counts as
	// ready: the cache warm-up of serve-hot, one cold request per engine of
	// the mix elsewhere.
	setup []int
	// prepared is how many leading bodies sweep-jobs persists into the store
	// before set-up starts.
	prepared int
}

// sizes scales the request sizes and the run schedule; the full sizes are
// the benchmark, the short ones keep the smoke test under a few seconds.
type sizes struct {
	warmup    time.Duration
	setups    int     // set-ups per run; setup_s is their median
	hotSweepN int     // instances of a serve-hot sweep body
	iters     int     // iterations of a runtime request
	rsN       int     // scenarios of a runtime-sweep body
	assessN   int     // scenarios of an assess body
	expIters  int     // iterations of an erosion experiment
	jobSweepN int     // instances of a sweep-jobs body
	alphaGrid int     // alpha grid of a sweep-jobs body
	prepared  int     // sweep results persisted before sweep-jobs set-up
	speedup   float64 // how much faster than the full sizes a closed loop completes operations
}

// lateWarn is the open-loop generator's p99 wake-up lateness above which a
// run warns that the host was busy. It does not fail the run: latency is
// timed from the due time and so already includes the lateness.
const lateWarn = time.Millisecond

var (
	fullSizes = sizes{
		warmup: 3 * time.Second, setups: 5,
		hotSweepN: 200, iters: 200, rsN: 16, assessN: 4, expIters: 40,
		jobSweepN: 500, alphaGrid: 100, prepared: 64, speedup: 1,
	}
	shortSizes = sizes{
		warmup: 200 * time.Millisecond, setups: 1,
		hotSweepN: 50, iters: 40, rsN: 4, assessN: 2, expIters: 10,
		jobSweepN: 50, alphaGrid: 20, prepared: 8, speedup: 10,
	}
)

// gateBodies is how many distinct bodies per run the correctness gate
// recomputes in process after the window.
const gateBodies = 8

// workload is one named traffic mix. BENCHMARK.json and README.md say why
// each one is in the benchmark.
type workload struct {
	name string
	// rate is the open-loop arrival rate in requests per second; 0 makes a
	// closed loop of `clients` goroutines.
	rate    float64
	clients int
	// maxRate bounds the ops per second a closed loop may complete before
	// its rendered plan runs out (a run that exhausts it fails).
	maxRate float64
	jobs    bool
	render  func(r *rand.Rand, sz sizes, ops int) plan
}

var workloads = []*workload{
	{
		name:    "serve-hot",
		rate:    300,
		clients: 2,
		render:  renderServeHot,
	},
	{
		name:    "runtime-cold",
		clients: 2,
		maxRate: 1500,
		render:  renderRuntimeCold,
	},
	{
		name:    "erosion-cold",
		clients: 2,
		maxRate: 400,
		render:  renderErosionCold,
	},
	{
		name: "sweep-jobs",
		// One client: with two, a new job's latency depends on whether the
		// other client's job computes at the same time, and the p90 lands
		// on the step between the two cases, which moves from run to run.
		clients: 1,
		maxRate: 600,
		jobs:    true,
		render:  renderSweepJobs,
	},
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// newPlan renders a workload's plan for a run of the given total length
// (warm-up plus window).
func newPlan(w *workload, seed uint64, sz sizes, total time.Duration) plan {
	r := rand.New(rand.NewPCG(seed, 0x756c6261))
	if w.rate == 0 {
		return w.render(r, sz, int(math.Ceil(w.maxRate*sz.speedup*total.Seconds())))
	}
	// Poisson arrivals: exponential gaps at the configured rate.
	var due []time.Duration
	for t := 0.0; ; {
		t += r.ExpFloat64() / w.rate
		d := time.Duration(t * float64(time.Second))
		if d >= total {
			break
		}
		due = append(due, d)
	}
	p := w.render(r, sz, len(due))
	p.due = due
	return p
}

var (
	// generatorWorkloads are the registered scenario workloads that generate
	// their weights from a seed (the trace workload replays a fixed
	// recording).
	generatorWorkloads = slices.DeleteFunc(ulba.WorkloadNames(), func(n string) bool { return n == "trace" })
	runtimeTriggers    = []string{"degradation", "menon", "wli", "periodic"}
)

func runtimeBody(seed uint64, p, iters int, workload, trigger string) body {
	raw := fmt.Appendf(nil, `{"p":%d,"iterations":%d,"workload":{"name":%q,"seed":%d},"trigger":{"name":%q}}`,
		p, iters, workload, seed, trigger)
	return body{typ: "runtime", raw: raw}
}

// randomRuntimeBody draws the scenario's workload and trigger as well.
func randomRuntimeBody(r *rand.Rand, seed uint64, p, iters int) body {
	return runtimeBody(seed, p, iters, generatorWorkloads[r.IntN(len(generatorWorkloads))],
		runtimeTriggers[r.IntN(len(runtimeTriggers))])
}

func sampleBody(typ string, seed uint64, n int) body {
	return body{typ: typ, raw: fmt.Appendf(nil, `{"sample":{"seed":%d,"n":%d}}`, seed, n)}
}

func experimentBody(seed uint64, iters int, compare bool) body {
	if compare {
		return body{typ: "experiment",
			raw: fmt.Appendf(nil, `{"p":8,"method":"ulba","iterations":%d,"seed":%d,"compare":true}`, iters, seed)}
	}
	return body{typ: "experiment", raw: fmt.Appendf(nil, `{"p":8,"iterations":%d,"seed":%d}`, iters, seed)}
}

// seeds hands out distinct request seeds from a random base, so every body
// of a cold workload differs from every other.
type seeds struct{ next uint64 }

func newSeeds(r *rand.Rand) *seeds { return &seeds{next: uint64(r.Uint32()) + 1} }

func (s *seeds) take() uint64 { s.next++; return s.next }

func renderServeHot(r *rand.Rand, sz sizes, ops int) plan {
	sd := newSeeds(r)
	var p plan
	for range 10 {
		p.bodies = append(p.bodies, sampleBody("sweep", sd.take(), sz.hotSweepN))
	}
	// A hit still decodes its body, and a runtime decode builds the whole
	// scenario: 0.6-7 ms depending on the workload, 20-50 ms for outlier.
	// Drawing the six runtime bodies' workloads from the seed would make the
	// hit path's cost, and so the queueing at 300 req/s, differ from seed to
	// seed; the two workloads that build fastest keep the load light and
	// the decode costs evenly spaced. Only their seeds are drawn.
	for i, pw := range []struct {
		p        int
		workload string
	}{{4, "minife"}, {4, "stationary"}, {8, "minife"}, {8, "stationary"}, {16, "minife"}, {16, "stationary"}} {
		p.bodies = append(p.bodies, runtimeBody(sd.take(), pw.p, sz.iters, pw.workload, runtimeTriggers[i%len(runtimeTriggers)]))
	}
	for range 2 {
		p.bodies = append(p.bodies, sampleBody("runtime-sweep", sd.take(), sz.rsN))
	}
	p.bodies = append(p.bodies, sampleBody("assess", sd.take(), sz.assessN))
	p.bodies = append(p.bodies, experimentBody(sd.take(), sz.expIters, false))
	for i := range p.bodies {
		p.setup = append(p.setup, i)
	}
	p.seq = make([]int, ops)
	for i := range p.seq {
		p.seq[i] = r.IntN(len(p.bodies))
	}
	return p
}

func renderRuntimeCold(r *rand.Rand, sz sizes, ops int) plan {
	sd := newSeeds(r)
	next := func() body {
		switch u := r.Float64(); {
		case u < 0.7:
			return randomRuntimeBody(r, sd.take(), []int{8, 16}[r.IntN(2)], sz.iters)
		case u < 0.9:
			return sampleBody("runtime-sweep", sd.take(), sz.rsN)
		default:
			return sampleBody("assess", sd.take(), sz.assessN)
		}
	}
	p := plan{bodies: make([]body, 0, ops+3), seq: make([]int, ops)}
	for i := range p.seq {
		p.bodies = append(p.bodies, oneWorker(next()))
		p.seq[i] = i
	}
	// One cold request per engine of the mix makes a set-up ready. Their
	// scenarios are fixed rather than sampled, so the set-up costs the same
	// whatever the seed.
	p.setup = []int{ops, ops + 1, ops + 2}
	p.bodies = append(p.bodies,
		oneWorker(runtimeBody(sd.take(), 16, sz.iters, "stationary", "degradation")),
		oneWorker(scenarioBody("runtime-sweep", sd, sz.rsN, sz.iters)),
		oneWorker(scenarioBody("assess", sd, sz.assessN, sz.iters)))
	return p
}

// oneWorker makes a request compute on one core (workers is not part of the
// cache key). The two clients of a closed loop then keep one core busy each,
// instead of a runtime-sweep or assess spreading over both and slowing
// whatever the other client runs; measured, that halves the run-to-run
// spread of runtime-cold.
func oneWorker(b body) body {
	b.raw = append(b.raw[:len(b.raw)-1], `,"workers":1}`...)
	return b
}

// scenarioBody renders an explicit scenario set: n scenarios at p=8 cycling
// through the generator workloads, with seeded weights.
func scenarioBody(typ string, sd *seeds, n, iters int) body {
	raw := []byte(`{"scenarios":[`)
	for i := range n {
		if i > 0 {
			raw = append(raw, ',')
		}
		raw = fmt.Appendf(raw, `{"p":8,"iterations":%d,"workload":{"name":%q,"seed":%d}}`,
			iters, generatorWorkloads[i%len(generatorWorkloads)], sd.take())
	}
	return body{typ: typ, raw: append(raw, "]}"...)}
}

func renderErosionCold(r *rand.Rand, sz sizes, ops int) plan {
	sd := newSeeds(r)
	p := plan{bodies: make([]body, 0, ops+1), seq: make([]int, ops)}
	for i := range p.seq {
		p.bodies = append(p.bodies, experimentBody(sd.take(), sz.expIters, true))
		p.seq[i] = i
	}
	p.setup = []int{ops}
	p.bodies = append(p.bodies, experimentBody(sd.take(), sz.expIters, true))
	return p
}

func renderSweepJobs(r *rand.Rand, sz sizes, ops int) plan {
	sd := newSeeds(r)
	job := func() body {
		raw := fmt.Appendf(nil, `{"sample":{"seed":%d,"n":%d},"alpha_grid":%d}`, sd.take(), sz.jobSweepN, sz.alphaGrid)
		return body{typ: "sweep", raw: raw, submit: fmt.Appendf(nil, `{"type":"sweep","request":%s}`, raw)}
	}
	p := plan{prepared: sz.prepared, seq: make([]int, ops)}
	for range sz.prepared {
		p.bodies = append(p.bodies, job())
	}
	// The set-up's first answer is a persisted body, served by the sync
	// route from the cache the restart seeded.
	p.setup = []int{0}
	// Two in five operations replay a persisted body. Replays and new jobs
	// take different times; at an even split the median would sit on the
	// boundary between the two and jump between them from run to run.
	for i := range p.seq {
		if r.Float64() < 0.4 {
			p.seq[i] = r.IntN(sz.prepared)
			continue
		}
		p.seq[i] = len(p.bodies)
		p.bodies = append(p.bodies, job())
	}
	return p
}
