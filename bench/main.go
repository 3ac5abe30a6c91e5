// Command bench is the repository's benchmark. It boots the ulba HTTP service
// in process on a loopback listener, drives one named workload against it
// from a single generator that never holds more connections than there are
// CPUs, checks the responses, and prints the end-to-end metrics as one JSON
// line on standard output. With -trace 1 it replays the workload a second
// time through a handler that times each layer's public calls, and prints
// the per-layer metrics instead. README.md lists the workloads and metrics.
//
// Run it from the repository root; bench/run.sh builds it first:
//
//	bash bench/run.sh -workload serve-hot -seed 2019 -seconds 20 -trace 0
//	bash bench/run.sh -workload sweep-jobs -trace 1
//	bash bench/run.sh -workload serve-hot -record .bench_build/head.jsonl
//	bash bench/run.sh -compare .bench_build/base.jsonl .bench_build/head.jsonl
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"
	"time"

	"ulba/internal/engine"
	"ulba/internal/jobs"
	"ulba/internal/server"
)

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	short    bool
	spans    string // where a traced run writes its spans; empty skips
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Uint64Var(&o.seed, "seed", 2019, "seed of every request body and arrival schedule")
	flag.IntVar(&o.seconds, "seconds", 20, "length of the measured window in seconds")
	flag.IntVar(&o.trace, "trace", 0, "1 adds a traced replay and prints the per-layer metrics instead of the end-to-end ones")
	flag.BoolVar(&o.short, "short", false, "small requests, 0.2 s warm-up, one set-up (the smoke test's scale)")
	flag.StringVar(&o.spans, "spans", ".bench_build/spans.json", "file a traced run writes its spans to (empty: none)")
	record := flag.String("record", "", "append this run's output line, tagged with workload and seed, to `file`")
	compare := flag.Bool("compare", false, "compare two -record files given as arguments: -compare base.jsonl head.jsonl")
	benchmark := flag.String("benchmark", "BENCHMARK.json", "benchmark definition holding the metric bounds -compare applies")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare base.jsonl head.jsonl")
			os.Exit(2)
		}
		ok, err := compareRecords(os.Stdout, *benchmark, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	res, err := run(context.Background(), o, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if *record != "" {
		if err := appendRecord(*record, runRecord{Workload: o.workload, Seed: o.seed, Trace: o.trace, Result: res}); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// bench is one run of one workload.
type bench struct {
	w      *workload
	sz     sizes
	window time.Duration
	p      plan
	log    io.Writer

	// ref holds each body's reference response: the in-process body for
	// the bodies sweep-jobs persists, else the first response a set-up got.
	// Every later response to the body must equal it byte for byte.
	ref [][]byte
	// gated are the bodies the gate recomputes in process; keep marks the
	// ones whose response only an operation of the pass sees.
	gated []int
	keep  []bool

	attempted, failed int
}

// measurement is one pass over the plan: its set-ups, the measured window,
// and the server it ran against, still open for post-window checks.
type measurement struct {
	tgt                         *target
	dir                         string
	setup, storeOpen, serverNew []time.Duration
	pass                        *passResult
	stats                       server.Stats // the service's counters after the window
	traceStart                  int64        // tracer time at which the pass began
}

func (m *measurement) close() {
	if m.tgt != nil {
		m.tgt.close()
	}
	if m.dir != "" {
		os.RemoveAll(m.dir)
	}
}

func run(ctx context.Context, o options, log io.Writer) (result, error) {
	w, ok := workloadByName(o.workload)
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.seconds < 1 {
		return result{}, fmt.Errorf("-seconds must be at least 1, got %d", o.seconds)
	}
	if o.trace != 0 && o.trace != 1 {
		return result{}, fmt.Errorf("-trace must be 0 or 1, got %d", o.trace)
	}
	b := &bench{w: w, sz: fullSizes, window: time.Duration(o.seconds) * time.Second, log: log}
	if o.short {
		b.sz = shortSizes
	}
	b.p = newPlan(w, o.seed, b.sz, b.sz.warmup+b.window)
	b.ref = make([][]byte, len(b.p.bodies))
	b.keep = make([]bool, len(b.p.bodies))
	seen := make([]bool, len(b.p.bodies))
	for _, bi := range b.p.seq {
		if len(b.gated) == gateBodies {
			break
		}
		if bi >= b.p.prepared && !seen[bi] {
			seen[bi] = true
			b.gated = append(b.gated, bi)
			b.keep[bi] = !slices.Contains(b.p.setup, bi)
		}
	}

	var tr *tracer
	if o.trace == 1 {
		tr = newTracer()
	}
	// The bodies sweep-jobs persists are rendered in process once: they
	// populate each pass's store and are the reference for every replay.
	for bi := range b.p.prepared {
		body, err := b.inProcess(ctx, &b.p.bodies[bi], tr)
		if err != nil {
			return result{}, fmt.Errorf("rendering persisted body %d: %w", bi, err)
		}
		b.ref[bi] = body
	}

	u, err := b.measure(ctx, nil, b.sz.setups, o.trace == 1)
	if err != nil {
		return result{}, err
	}
	defer u.close()
	b.gate(ctx, u, tr)
	if o.trace == 0 {
		return b.result(b.endToEnd(u)), nil
	}

	t, err := b.measure(ctx, tr, 1, true)
	if err != nil {
		return result{}, err
	}
	defer t.close()
	b.compareBodies(u, t)
	if o.spans != "" {
		if err := tr.write(o.spans); err != nil {
			return result{}, fmt.Errorf("writing spans: %w", err)
		}
	}
	return b.result(b.perLayer(u, t, tr)), nil
}

func (b *bench) result(m map[string]metric) result {
	return result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: m}
}

// fail counts one failed check and reports the first few.
func (b *bench) fail(format string, args ...any) {
	b.failed++
	if b.failed <= 5 {
		fmt.Fprintf(b.log, "%s: FAIL: %s\n", b.w.name, fmt.Sprintf(format, args...))
	}
}

// measure runs one pass: `setups` set-ups (each but the last torn down
// again), then the warm-up and the window on the last one. A traced pass of
// a synchronous workload runs against the traced handler.
func (b *bench) measure(ctx context.Context, tr *tracer, setups int, hash bool) (*measurement, error) {
	m := &measurement{}
	if b.w.jobs {
		dir, err := os.MkdirTemp("", "ulba-bench-")
		if err != nil {
			return nil, err
		}
		m.dir = dir
		if err := b.populate(dir); err != nil {
			m.close()
			return nil, err
		}
	}
	g := &gen{w: b.w, p: &b.p, tr: tr, hc: newClient(b.w.clients)}
	var buf bytes.Buffer
	for k := range setups {
		start := time.Now()
		tgt, err := startTarget(b.w, m.dir, tr)
		if err != nil {
			m.close()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		m.tgt, g.base = tgt, tgt.base
		for _, bi := range b.p.setup {
			b.attempted++
			if err := g.post(&b.p.bodies[bi], &buf); err != nil {
				m.close()
				return nil, fmt.Errorf("set-up: %w", err)
			}
			if b.ref[bi] == nil {
				b.ref[bi] = bytes.Clone(buf.Bytes())
			} else if !bytes.Equal(b.ref[bi], buf.Bytes()) {
				b.fail("set-up body %d: %v", bi, errMismatch)
			}
		}
		m.setup = append(m.setup, time.Since(start))
		m.storeOpen = append(m.storeOpen, tgt.storeOpen)
		m.serverNew = append(m.serverNew, tgt.serverNew)
		if k < setups-1 {
			tgt.close()
			m.tgt = nil
		}
	}
	g.hc.CloseIdleConnections()

	m.traceStart = tr.now()
	m.pass = g.run(b.sz.warmup, b.window, b.ref, b.keep, hash)
	if m.tgt.srv != nil {
		m.stats = m.tgt.srv.Stats()
	}
	for i := range m.pass.ops {
		if op := &m.pass.ops[i]; op.issued {
			b.attempted++
			if op.err != nil {
				b.fail("op %d (body %d): %v", i, b.p.seq[i], op.err)
			}
		}
	}
	if m.pass.exhausted {
		b.fail("the closed loop used all %d rendered bodies before the window ended", len(b.p.seq))
	}
	return m, nil
}

// populate writes the persisted bodies into a fresh store under dir.
func (b *bench) populate(dir string) error {
	st, err := jobs.Open(dir)
	if err != nil {
		return err
	}
	for bi := range b.p.prepared {
		key, err := bodyKey(&b.p.bodies[bi])
		if err == nil {
			err = st.Put(key, b.ref[bi])
		}
		if err != nil {
			st.Close()
			return fmt.Errorf("persisting body %d: %w", bi, err)
		}
	}
	return st.Close()
}

func bodyKey(bd *body) (string, error) {
	d, ok := engine.ByType(bd.typ)
	if !ok {
		return "", fmt.Errorf("unknown engine type %q", bd.typ)
	}
	inst, err := d.Decode(bd.raw)
	if err != nil {
		return "", err
	}
	return inst.Key()
}

// inProcess renders a body the way the service does, without it:
// Decode, Run, json.Marshal and the trailing newline. Traced, the calls are
// spans under a "bench.oracle" root.
func (b *bench) inProcess(ctx context.Context, bd *body, tr *tracer) ([]byte, error) {
	d, ok := engine.ByType(bd.typ)
	if !ok {
		return nil, fmt.Errorf("unknown engine type %q", bd.typ)
	}
	root, start := tr.id(), tr.now()
	defer func() {
		tr.add(span{ID: root, Parent: -1, Req: root, Name: "bench.oracle", Start: start, End: tr.now()})
	}()
	call := func(name string, f func() error) error {
		s := tr.now()
		err := f()
		tr.add(span{ID: tr.id(), Parent: root, Req: root, Name: name, Start: s, End: tr.now()})
		return err
	}
	var inst *engine.Instance
	var resp any
	var buf []byte
	err := call(decodeSpan(bd.typ), func() (err error) { inst, err = d.Decode(bd.raw); return err })
	if err == nil {
		err = call(runSpan(bd.typ), func() (err error) { resp, err = inst.Run(ctx); return err })
	}
	if err == nil {
		err = call("engine.marshal", func() (err error) { buf, err = json.Marshal(resp); return err })
	}
	if err != nil {
		return nil, err
	}
	return append(buf, '\n'), nil
}

// gate recomputes the gated bodies in process and compares each with the
// response the service gave.
func (b *bench) gate(ctx context.Context, m *measurement, tr *tracer) {
	served := map[int][]byte{}
	for i, op := range m.pass.ops {
		if op.body != nil {
			served[b.p.seq[i]] = op.body
		}
	}
	for _, bi := range b.gated {
		got := b.ref[bi]
		if got == nil {
			got = served[bi]
		}
		if got == nil {
			continue // never issued: the window was too short to reach it
		}
		b.attempted++
		want, err := b.inProcess(ctx, &b.p.bodies[bi], tr)
		if err != nil {
			b.fail("in-process body %d: %v", bi, err)
		} else if !bytes.Equal(got, want) {
			b.fail("body %d: the service answered other bytes than the in-process engine", bi)
		}
	}
}

// compareBodies checks every response of the traced pass against the
// untraced service's response to the same body, asking the service for the
// bodies its own pass did not reach.
func (b *bench) compareBodies(u, t *measurement) {
	want := map[int][sha256.Size]byte{}
	for i, op := range u.pass.ops {
		if op.issued && op.err == nil {
			want[b.p.seq[i]] = op.sum
		}
	}
	g := &gen{w: b.w, p: &b.p, hc: newClient(1), base: u.tgt.base}
	defer g.hc.CloseIdleConnections()
	var buf bytes.Buffer
	for i, op := range t.pass.ops {
		bi := b.p.seq[i]
		if !op.issued || op.err != nil || b.ref[bi] != nil {
			continue // failed already, or compared with the reference in the pass
		}
		sum, ok := want[bi]
		if !ok {
			b.attempted++
			if err := g.post(&b.p.bodies[bi], &buf); err != nil {
				b.fail("untraced replay of body %d: %v", bi, err)
				continue
			}
			sum = sha256.Sum256(buf.Bytes())
			want[bi] = sum
		}
		b.attempted++
		if sum != op.sum {
			b.fail("body %d: the traced handler answered other bytes than the service", bi)
		}
	}
}

// latencies returns the successful window operations' latencies, sorted,
// and their summed response sizes.
func (b *bench) latencies(m *measurement) (lat []time.Duration, bodyBytes int) {
	for _, op := range m.pass.window(b.sz.warmup, b.sz.warmup+b.window) {
		if op.err == nil {
			lat = append(lat, op.end-op.start)
			bodyBytes += op.size
		}
	}
	slices.Sort(lat)
	return lat, bodyBytes
}

func (b *bench) endToEnd(m *measurement) map[string]metric {
	lat, _ := b.latencies(m)
	ops := float64(max(len(lat), 1))
	fmt.Fprintf(b.log, "%s: %d ops in the %v window, %d attempted, %d failed\n", b.w.name, len(lat), b.window, b.attempted, b.failed)
	if b.p.due != nil {
		// Latency is timed from the due time, so a late wake-up is part of
		// it; lateness above the limit only marks a host that was busy.
		late := percentile(m.pass.lateness, 99)
		fmt.Fprintf(b.log, "%s: generator lateness p99 %v over %d sleeps\n", b.w.name, late, len(m.pass.lateness))
		if late > lateWarn {
			fmt.Fprintf(b.log, "%s: WARNING: generator lateness p99 above %v; the host was busy during the window\n", b.w.name, lateWarn)
		}
	}
	return map[string]metric{
		"throughput_rps": {float64(len(lat)) / b.window.Seconds(), "ops/s"},
		"latency_p50_ms": {ms(percentile(lat, 50)), "ms"},
		"latency_p90_ms": {ms(percentile(lat, 90)), "ms"},
		"latency_p99_ms": {ms(percentile(lat, 99)), "ms"},
		"setup_s":        {percentile(m.setup, 50).Seconds(), "s"},
		"heap_peak_mb":   {float64(m.pass.proc.heapPeak) / (1 << 20), "MiB"},
		"cpu_ms_per_op":  {ms(m.pass.proc.cpu) / ops, "ms"},
	}
}

// layers are the layers a traced run attributes self time to: transport is
// the loopback round trip outside the handler, client the generator's own
// time between a job's phases.
var layers = []string{"transport", "server", "engine", "schedule", "lb", "erosion", "jobs", "client"}

// perLayer assembles the per-layer metrics of a traced run: span timings
// from the traced pass t, counters from the untraced pass u.
func (b *bench) perLayer(u, t *measurement, tr *tracer) map[string]metric {
	from := t.traceStart + int64(b.sz.warmup)
	a := analyze(tr.spans, from, from+int64(b.window))
	p50 := func(name string) time.Duration { return percentile(a.durations[name], 50) }
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	sweepN := b.sz.hotSweepN
	if b.w.jobs {
		sweepN = b.sz.jobSweepN
	}
	var lbCalls, scens int64
	if t.tgt.th != nil {
		lbCalls, scens = t.tgt.th.lbCalls.Load(), t.tgt.th.scenarios.Load()
	}
	lat, bodyBytes := b.latencies(u)
	tlat, _ := b.latencies(t)
	ops := float64(max(len(lat), 1))
	// The service counts from the last set-up on: its set-up requests and
	// every operation of the pass.
	c, served := u.stats.Cache, len(b.p.setup)
	for _, op := range u.pass.ops {
		if op.issued {
			served++
		}
	}
	var storeEntries, storeBytes float64
	if st := u.stats.Store; st != nil {
		storeEntries, storeBytes = float64(st.Entries), float64(st.Bytes)
	}
	selfRatio, overhead := 0.0, 0.0
	if a.rootSum > 0 {
		selfRatio = float64(a.selfSum) / float64(a.rootSum)
	}
	if p := percentile(lat, 50); p > 0 {
		overhead = float64(percentile(tlat, 50)) / float64(p)
	}
	out := map[string]metric{
		"engine.key_us":             {us(p50("engine.key")), "us"},
		"engine.marshal_ms":         {ms(p50("engine.marshal")), "ms"},
		"engine.body_kb":            {float64(bodyBytes) / 1024 / ops, "KiB"},
		"server.cache.get_us":       {us(p50("server.cache.get")), "us"},
		"server.write_us":           {us(p50("server.write")), "us"},
		"server.transport_ms":       {ms(percentile(a.transport, 50)), "ms"},
		"server.cache.hit_ratio":    {float64(c.Hits) / float64(max(c.Hits+c.Misses+c.Joins+c.StoreHits, 1)), "ratio"},
		"server.cache.evictions":    {float64(c.Evictions), "count"},
		"server.cache.bytes":        {float64(c.Bytes), "bytes"},
		"server.engine_runs_per_op": {float64(u.stats.EngineRuns) / float64(max(served, 1)), "ratio"},
		"lb.us_per_iteration":       {us(p50(runSpan("runtime"))) / float64(b.sz.iters), "us"},
		"lb.lb_calls_per_scenario":  {float64(lbCalls) / float64(max(scens, 1)), "count"},
		"erosion.ms_per_iteration":  {ms(p50(runSpan("experiment"))) / float64(b.sz.expIters), "ms"},
		"schedule.ns_per_instance":  {float64(p50(runSpan("sweep"))) / float64(sweepN), "ns"},
		"jobs.submit_ms":            {ms(p50("jobs.submit")), "ms"},
		"jobs.wait_ms":              {ms(p50("jobs.wait")), "ms"},
		"jobs.result_ms":            {ms(p50("jobs.result")), "ms"},
		"jobs.store.entries":        {storeEntries, "count"},
		"jobs.store.bytes":          {storeBytes, "bytes"},
		"jobs.store_open_s":         {percentile(u.storeOpen, 50).Seconds(), "s"},
		"jobs.server_new_s":         {percentile(u.serverNew, 50).Seconds(), "s"},
		"process.alloc_kb_per_op":   {float64(u.pass.proc.allocBytes) / 1024 / ops, "KiB"},
		"process.gc_cycles":         {float64(u.pass.proc.gcCycles), "count"},
		"generator.lateness_p99_ms": {ms(percentile(u.pass.lateness, 99)), "ms"},
		"trace.overhead_p50":        {overhead, "ratio"},
	}
	for _, typ := range engineTypes {
		out["engine.decode_us."+typ] = metric{us(p50(decodeSpan(typ))), "us"}
		out["engine.run_ms."+typ] = metric{ms(p50(runSpan(typ))), "ms"}
	}
	reqs := float64(max(a.requests, 1))
	for _, l := range layers {
		out["self_ms."+l] = metric{ms(a.selfBy[l]) / reqs, "ms"}
	}

	if selfRatio < 0.95 || selfRatio > 1.05 {
		b.fail("layer self times sum to %.3f of the traced round trips (want within 5%%)", selfRatio)
	}
	fmt.Fprintf(b.log, "%s: %d traced requests; self times sum to %.4f of the round trips; traced p50 %.3f ms vs untraced %.3f ms (x%.3f)\n",
		b.w.name, a.requests, selfRatio, ms(percentile(tlat, 50)), ms(percentile(lat, 50)), overhead)
	fmt.Fprintf(b.log, "%-10s %14s %20s\n", "layer", "self ms/req", "self ms/req >= p99")
	for _, l := range layers {
		fmt.Fprintf(b.log, "%-10s %14.4f %20.4f\n", l, ms(a.selfBy[l])/reqs, ms(a.tail[l])/float64(max(a.tailReqs, 1)))
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// percentile is the nearest-rank p-th percentile of xs (sorted in place);
// 0 for no samples.
func percentile(xs []time.Duration, p float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	rank := int(math.Ceil(float64(len(xs))*p/100)) - 1
	return xs[min(max(rank, 0), len(xs)-1)]
}
