package main

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ulba/internal/engine"
	"ulba/internal/server"
)

// span is one timed call into a layer. A span's layer is its name up to the
// first dot.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // -1 for a root
	Req    int64  `json:"req"`    // the root's ID, shared by every span of one request
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) layer() string { l, _, _ := strings.Cut(s.Name, "."); return l }

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// spanHeader carries a traced request's root span ID to the handler.
const spanHeader = "X-Bench-Span"

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced passes share the traced code.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)} }

func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// root records a childless root span that started at start and ends now.
func (t *tracer) root(name string, start int64) {
	id := t.id()
	t.add(span{ID: id, Parent: -1, Req: id, Name: name, Start: start, End: t.now()})
}

// write dumps the spans as one JSON array.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	buf, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// engineLayer maps each engine type to the layer that computes it.
var engineLayer = map[string]string{
	"experiment":    "erosion",
	"sweep":         "schedule",
	"runtime":       "lb",
	"runtime-sweep": "lb",
	"assess":        "lb",
}

// engineTypes lists the engine types in registration order.
var engineTypes = engine.TypeNames()

func decodeSpan(typ string) string { return "engine.decode." + typ }

func runSpan(typ string) string { return engineLayer[typ] + ".run." + typ }

// tracedHandler serves the synchronous engine routes by making the serving
// path's public calls in serveCached's order — Descriptor.Decode,
// Instance.Key, Cache.Get, then on a miss Cache.Do{Instance.Run,
// json.Marshal} — and the response write, each inside a span. Admission and
// the engine slot are not visible from outside the server and are left out.
type tracedHandler struct {
	tr     *tracer
	cache  *server.Cache
	byPath map[string]*engine.Descriptor

	lbCalls   atomic.Int64 // LB steps across the lb layer's scenario results
	scenarios atomic.Int64
}

func newTracedHandler(tr *tracer) *tracedHandler {
	h := &tracedHandler{tr: tr, cache: server.NewCache(64 << 20), byPath: map[string]*engine.Descriptor{}}
	for _, d := range engine.Engines() {
		h.byPath[d.Endpoint] = d
	}
	return h
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tr := h.tr
	start := tr.now()
	req, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
	id := tr.id()
	defer func() {
		tr.add(span{ID: id, Parent: req, Req: req, Name: "server.handler", Start: start, End: tr.now()})
	}()
	child := func(name string, s int64) {
		tr.add(span{ID: tr.id(), Parent: id, Req: req, Name: name, Start: s, End: tr.now()})
	}
	d, ok := h.byPath[r.URL.Path]
	if !ok || r.Method != http.MethodPost {
		http.NotFound(w, r)
		return
	}
	raw, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s := tr.now()
	inst, err := d.Decode(raw)
	child(decodeSpan(d.Type), s)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s = tr.now()
	key, err := inst.Key()
	child("engine.key", s)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	s = tr.now()
	body, hit := h.cache.Get(key)
	child("server.cache.get", s)
	if !hit {
		doID, ds := tr.id(), tr.now()
		ctx := r.Context()
		body, _, err = h.cache.Do(ctx, key, func() ([]byte, error) {
			s := tr.now()
			resp, err := inst.Run(ctx)
			tr.add(span{ID: tr.id(), Parent: doID, Req: req, Name: runSpan(d.Type), Start: s, End: tr.now()})
			if err != nil {
				return nil, err
			}
			s = tr.now()
			buf, err := json.Marshal(resp)
			tr.add(span{ID: tr.id(), Parent: doID, Req: req, Name: "engine.marshal", Start: s, End: tr.now()})
			h.countLB(resp)
			return append(buf, '\n'), err
		})
		tr.add(span{ID: doID, Parent: id, Req: req, Name: "server.cache.do", Start: ds, End: tr.now()})
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
	}
	s = tr.now()
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
	child("server.write", s)
}

// countLB adds the LB steps of an lb-layer response to the per-scenario
// counter.
func (h *tracedHandler) countLB(resp any) {
	var calls, scens int
	switch r := resp.(type) {
	case engine.RuntimeResponse:
		calls, scens = r.Result.Timeline.LBCount(), 1
	case engine.RuntimeSweepResponse:
		for _, res := range r.Results {
			calls += res.Timeline.LBCount()
		}
		scens = len(r.Results)
	case engine.AssessResponse:
		for _, res := range r.Results {
			calls += res.Timeline.LBCount()
		}
		scens = len(r.Results)
	}
	h.lbCalls.Add(int64(calls))
	h.scenarios.Add(int64(scens))
}

// analysis attributes the traced requests' time to layers.
type analysis struct {
	durations map[string][]time.Duration // every span's duration, by name
	// Requests are the spans rooted at a client call (a served request or
	// a job operation) that started in the window; set-up and in-process
	// gate spans are not requests.
	requests int
	rootSum  time.Duration            // summed round trips of the requests
	selfSum  time.Duration            // summed self time of the requests' spans
	selfBy   map[string]time.Duration // summed self time per layer
	// tail is the self time per layer of the requests at or above the p99
	// round trip, summed, with their count.
	tail     map[string]time.Duration
	tailReqs int
	// transport is each synchronous request's round trip outside the
	// handler.
	transport []time.Duration
}

// analyze computes every span's self time — its duration minus the part of
// it that its children cover — and sums it per layer over the requests
// whose root started in [from, to).
func analyze(spans []span, from, to int64) *analysis {
	a := &analysis{durations: map[string][]time.Duration{}, selfBy: map[string]time.Duration{}, tail: map[string]time.Duration{}}
	sorted := slices.Clone(spans)
	slices.SortFunc(sorted, func(x, y span) int { return int(x.Req - y.Req) })
	type req struct {
		round time.Duration
		self  map[string]time.Duration
	}
	var reqs []req
	for i := 0; i < len(sorted); {
		j := i
		for j < len(sorted) && sorted[j].Req == sorted[i].Req {
			j++
		}
		group := sorted[i:j]
		i = j
		children := map[int64][]span{}
		var root *span
		for k := range group {
			s := group[k]
			a.durations[s.Name] = append(a.durations[s.Name], s.dur())
			if s.Parent < 0 {
				root = &group[k]
			} else {
				children[s.Parent] = append(children[s.Parent], s)
			}
		}
		if root == nil || (root.Name != "transport.round_trip" && root.Name != "client.op") ||
			root.Start < from || root.Start >= to {
			continue
		}
		r := req{round: root.dur(), self: map[string]time.Duration{}}
		for _, s := range group {
			self := s.dur() - covered(s, children[s.ID])
			r.self[s.layer()] += self
			if s.Name == "transport.round_trip" {
				a.transport = append(a.transport, self)
			}
		}
		reqs = append(reqs, r)
	}
	slices.SortFunc(reqs, func(x, y req) int { return int(x.round - y.round) })
	tailFrom := len(reqs) - len(reqs)/100
	for i, r := range reqs {
		a.requests++
		a.rootSum += r.round
		for l, d := range r.self {
			a.selfSum += d
			a.selfBy[l] += d
			if i >= tailFrom {
				a.tail[l] += d
			}
		}
		if i >= tailFrom {
			a.tailReqs++
		}
	}
	return a
}

// covered is how much of parent's interval the union of its children
// covers.
func covered(parent span, children []span) time.Duration {
	slices.SortFunc(children, func(x, y span) int { return int(x.Start - y.Start) })
	var total, reach int64 = 0, parent.Start
	for _, c := range children {
		from, to := max(c.Start, reach), min(c.End, parent.End)
		if to > from {
			total += to - from
			reach = to
		}
	}
	return time.Duration(total)
}
