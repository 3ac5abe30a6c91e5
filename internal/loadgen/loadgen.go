// Package loadgen is the closed-loop request generator of the in-process soak
// suite: a bounded client pool fires a fixed number of mixed engine
// requests (drawn from the live workload/planner registries) back to back
// at one or more ulba-serve targets, and reports per-endpoint status
// counts and byte-identity violations. ScrapeEndpointCounts and
// VerifyServerCounts then balance those counts against the server's
// /metrics histograms.
//
// Closed-loop means each client fires as soon as its previous response
// lands, so the run ends after exactly the requested count and every
// request is accounted for.
package loadgen

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"sort"
	"strconv"
	"sync"
	"time"

	"ulba"
)

// MixEntry weights one endpoint family in the request mix.
type MixEntry struct {
	// Endpoint is the family name: "sweep", "runtime", or
	// "runtime-sweep".
	Endpoint string
	// Weight is the family's share of requests (integer odds).
	Weight int
	// Distinct is how many distinct request bodies the family cycles
	// through — the cache-hit ratio knob: requests beyond the first
	// Distinct repeat earlier bodies.
	Distinct int
	// Size scales one request: sweep and runtime-sweep sample.n, runtime
	// iterations.
	Size int
}

// Config parameterizes one run.
type Config struct {
	// Targets are the base URLs requests round-robin over.
	Targets []string
	// Client issues the requests; nil builds a pooled transport sized to
	// Clients connections.
	Client *http.Client
	// Clients is how many requests are in flight at once.
	Clients int
	// MaxRequests is how many requests the run sends.
	MaxRequests int
	// Mix is the endpoint blend.
	Mix []MixEntry
}

// endpointPath maps a mix family to its route.
func endpointPath(family string) string { return "/v1/" + family }

// buildBody renders the variant-th distinct request body of a mix family.
// Bodies draw planner, trigger, and workload names from the live
// registries, so the mix exercises the same policy surface the paper's
// experiments do. Equal (family, variant, Size) always render equal bytes —
// the determinism the byte-identity verification leans on.
func buildBody(e MixEntry, variant int) ([]byte, error) {
	type m = map[string]any
	switch e.Endpoint {
	case "sweep":
		body := m{
			"sample":     m{"seed": uint64(variant + 1), "n": e.Size},
			"alpha_grid": 25,
		}
		// Cycle the cheap planners (annealing is a search, not a serving
		// workload) with the default left in rotation.
		planners := []string{"", "periodic", "menon"}
		switch p := planners[variant%len(planners)]; p {
		case "":
		case "periodic":
			body["planner"] = m{"name": p, "every": 10}
		default:
			body["planner"] = m{"name": p}
		}
		return json.Marshal(body)
	case "runtime":
		workloads := generatorWorkloads()
		triggers := []string{"degradation", "menon", "periodic", "never"}
		body := m{
			"p":          4,
			"iterations": e.Size,
			"workload":   m{"name": workloads[variant%len(workloads)], "seed": uint64(variant + 1)},
		}
		switch tr := triggers[variant%len(triggers)]; tr {
		case "periodic":
			body["trigger"] = m{"name": tr, "every": 8}
		default:
			body["trigger"] = m{"name": tr}
		}
		return json.Marshal(body)
	case "runtime-sweep":
		return json.Marshal(m{"sample": m{"seed": uint64(variant + 1), "n": e.Size}})
	default:
		return nil, fmt.Errorf("loadgen: unknown mix endpoint %q", e.Endpoint)
	}
}

// generatorWorkloads lists the registered workloads that synthesize their
// own weights (everything but the trace replay, which needs rows).
func generatorWorkloads() []string {
	var names []string
	for _, n := range ulba.WorkloadNames() {
		if n != "trace" {
			names = append(names, n)
		}
	}
	return names
}

// endpointState is one mix family: its rendered bodies and, under mu, its
// report block and the hash of each variant's first 200 body.
type endpointState struct {
	entry  MixEntry
	path   string
	bodies [][]byte

	mu     sync.Mutex
	golden map[int][32]byte
	rep    EndpointReport
}

// EndpointReport is the per-endpoint block of a Report.
type EndpointReport struct {
	// Endpoint is the route label ("POST /v1/sweep"), matching the
	// server's metric label.
	Endpoint string
	// Requests counts responses — the number the server-side histogram
	// for this endpoint must equal when the generator is the only client.
	Requests uint64
	// Status breaks Requests down by status code.
	Status map[int]uint64
	// TransportErrors are requests that never got an HTTP response
	// (connection refused/reset); they appear in no histogram.
	TransportErrors uint64
	// Mismatches counts 200 bodies that differed from the first 200 body
	// for the same request — determinism violations; always 0.
	Mismatches uint64
}

// Report is the result of one run.
type Report struct {
	// Completed counts requests that got an HTTP response, TransportErrors
	// the requests that did not; together they are MaxRequests unless ctx
	// ended the run early.
	Completed       uint64
	TransportErrors uint64
	// Shed counts 429 responses; Mismatches counts byte-identity
	// violations (always 0).
	Shed       uint64
	Mismatches uint64

	Endpoints []EndpointReport
}

// Run sends cfg.MaxRequests requests through cfg.Clients closed-loop
// clients and reports what happened.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	if len(cfg.Targets) == 0 {
		return nil, fmt.Errorf("loadgen: no targets")
	}
	if cfg.MaxRequests <= 0 || cfg.Clients <= 0 {
		return nil, fmt.Errorf("loadgen: need positive request and client counts")
	}
	if len(cfg.Mix) == 0 {
		return nil, fmt.Errorf("loadgen: empty request mix")
	}
	var totalWeight int
	states := make([]*endpointState, len(cfg.Mix))
	for i, e := range cfg.Mix {
		if e.Weight <= 0 || e.Distinct <= 0 || e.Size <= 0 {
			return nil, fmt.Errorf("loadgen: mix entry %q needs a positive weight, distinct count and size", e.Endpoint)
		}
		totalWeight += e.Weight
		st := &endpointState{
			entry:  e,
			path:   endpointPath(e.Endpoint),
			bodies: make([][]byte, e.Distinct),
			golden: map[int][32]byte{},
			rep:    EndpointReport{Endpoint: "POST " + endpointPath(e.Endpoint), Status: map[int]uint64{}},
		}
		for v := range st.bodies {
			body, err := buildBody(e, v)
			if err != nil {
				return nil, err
			}
			st.bodies[v] = body
		}
		states[i] = st
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Transport: &http.Transport{
			MaxIdleConns:        cfg.Clients,
			MaxIdleConnsPerHost: cfg.Clients,
			IdleConnTimeout:     30 * time.Second,
		}}
	}

	shots := make(chan int)
	var wg sync.WaitGroup
	for range cfg.Clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range shots {
				st, variant := pickShot(idx, states, totalWeight)
				st.issue(ctx, client, cfg.Targets[idx%len(cfg.Targets)], variant)
			}
		}()
	}
feed:
	for idx := 0; idx < cfg.MaxRequests; idx++ {
		select {
		case shots <- idx:
		case <-ctx.Done():
			break feed
		}
	}
	close(shots)
	wg.Wait()

	rep := &Report{}
	for _, st := range states {
		er := st.rep
		rep.Completed += er.Requests
		rep.TransportErrors += er.TransportErrors
		rep.Shed += er.Status[http.StatusTooManyRequests]
		rep.Mismatches += er.Mismatches
		rep.Endpoints = append(rep.Endpoints, er)
	}
	sort.Slice(rep.Endpoints, func(i, j int) bool { return rep.Endpoints[i].Endpoint < rep.Endpoints[j].Endpoint })
	return rep, nil
}

// pickShot maps a request index to its endpoint family and body variant,
// both deterministic functions of the index alone: the family round-robins
// the weighted mix and the variant cycles the family's distinct bodies.
func pickShot(idx int, states []*endpointState, totalWeight int) (*endpointState, int) {
	slot := idx % totalWeight
	cycle := idx / totalWeight
	for _, st := range states {
		if slot < st.entry.Weight {
			return st, (cycle*st.entry.Weight + slot) % st.entry.Distinct
		}
		slot -= st.entry.Weight
	}
	return states[len(states)-1], 0 // unreachable: slot < totalWeight
}

// issue sends one request to target and records its outcome. The first
// 200 body for a variant becomes golden; every later 200 must hash equal.
func (st *endpointState) issue(ctx context.Context, client *http.Client, target string, variant int) {
	status, sum, err := send(ctx, client, target+st.path, st.bodies[variant])
	st.mu.Lock()
	defer st.mu.Unlock()
	if err != nil {
		st.rep.TransportErrors++
		return
	}
	st.rep.Requests++
	st.rep.Status[status]++
	if status != http.StatusOK {
		return
	}
	if golden, seen := st.golden[variant]; !seen {
		st.golden[variant] = sum
	} else if golden != sum {
		st.rep.Mismatches++
	}
}

// send POSTs one JSON body and returns the status and the SHA-256 of the
// response body.
func send(ctx context.Context, client *http.Client, url string, body []byte) (int, [32]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, [32]byte{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, [32]byte{}, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, [32]byte{}, err
	}
	return resp.StatusCode, sha256.Sum256(data), nil
}

// Verify checks the invariants a healthy run must satisfy: every response
// is 2xx or 429, nothing hit transport errors, and no 200 body deviated
// from its first-seen bytes.
func (r *Report) Verify() error {
	if r.TransportErrors > 0 {
		return fmt.Errorf("loadgen: %d requests got no HTTP response", r.TransportErrors)
	}
	if r.Mismatches > 0 {
		return fmt.Errorf("loadgen: %d responses deviated from the first-seen bytes for their request", r.Mismatches)
	}
	for _, ep := range r.Endpoints {
		for code, n := range ep.Status {
			if (code < 200 || code > 299) && code != http.StatusTooManyRequests {
				return fmt.Errorf("loadgen: %s answered %d requests with status %d", ep.Endpoint, n, code)
			}
		}
	}
	return nil
}

// countRe matches the per-endpoint histogram count lines of the server's
// /metrics page.
var countRe = regexp.MustCompile(`^ulba_http_request_duration_seconds_count\{endpoint="([^"]+)"\} (\d+)$`)

// ScrapeEndpointCounts parses a /metrics page into endpoint -> histogram
// count — the server-side per-endpoint request totals.
func ScrapeEndpointCounts(r io.Reader) (map[string]uint64, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	counts := map[string]uint64{}
	for _, line := range bytes.Split(data, []byte("\n")) {
		m := countRe.FindSubmatch(line)
		if m == nil {
			continue
		}
		n, err := strconv.ParseUint(string(m[2]), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("loadgen: malformed metrics line %q", line)
		}
		counts[string(m[1])] = n
	}
	if len(counts) == 0 {
		return nil, fmt.Errorf("loadgen: no ulba_http_request_duration_seconds_count series in the metrics page")
	}
	return counts, nil
}

// VerifyServerCounts cross-checks this report against a /metrics scrape
// from the (single) server the run targeted: for every endpoint the run
// touched, the server's histogram count must equal the responses the
// generator observed — the "histograms sum to observed requests"
// invariant. Only sound when the generator was the server's only client.
func (r *Report) VerifyServerCounts(counts map[string]uint64) error {
	for _, ep := range r.Endpoints {
		if ep.Requests == 0 {
			continue
		}
		got, ok := counts[ep.Endpoint]
		if !ok {
			return fmt.Errorf("loadgen: server metrics have no histogram for %s", ep.Endpoint)
		}
		if got != ep.Requests {
			return fmt.Errorf("loadgen: %s: server histogram count %d != %d observed responses", ep.Endpoint, got, ep.Requests)
		}
	}
	return nil
}
