package loadgen

import (
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
)

// TestBuildBodyDeterministic pins the byte-identity premise of the
// generator: equal (family, variant, size) render equal bytes, and
// distinct variants render distinct bytes (distinct cache keys).
func TestBuildBodyDeterministic(t *testing.T) {
	mix := []MixEntry{
		{Endpoint: "sweep", Weight: 1, Distinct: 8, Size: 50},
		{Endpoint: "runtime", Weight: 1, Distinct: 6, Size: 30},
		{Endpoint: "runtime-sweep", Weight: 1, Distinct: 2, Size: 4},
	}
	for _, e := range mix {
		seen := map[string]int{}
		for v := 0; v < e.Distinct; v++ {
			a, err := buildBody(e, v)
			if err != nil {
				t.Fatalf("%s variant %d: %v", e.Endpoint, v, err)
			}
			b, err := buildBody(e, v)
			if err != nil || string(a) != string(b) {
				t.Fatalf("%s variant %d not deterministic", e.Endpoint, v)
			}
			if prev, dup := seen[string(a)]; dup {
				t.Fatalf("%s variants %d and %d share a body", e.Endpoint, prev, v)
			}
			seen[string(a)] = v
		}
	}
	if _, err := buildBody(MixEntry{Endpoint: "nope"}, 0); err == nil {
		t.Fatal("unknown endpoint accepted")
	}
}

// TestPickShotWeights drives one full weight cycle through pickShot and
// checks each family receives exactly its weight share, with variants
// cycling through the family's distinct bodies.
func TestPickShotWeights(t *testing.T) {
	states := []*endpointState{
		{entry: MixEntry{Endpoint: "a", Weight: 3, Distinct: 2}},
		{entry: MixEntry{Endpoint: "b", Weight: 1, Distinct: 1}},
	}
	total := 4
	counts := map[string]int{}
	variants := map[string]map[int]bool{"a": {}, "b": {}}
	for idx := 0; idx < 8*total; idx++ {
		st, v := pickShot(idx, states, total)
		counts[st.entry.Endpoint]++
		variants[st.entry.Endpoint][v] = true
		if v < 0 || v >= st.entry.Distinct {
			t.Fatalf("variant %d out of range for %s", v, st.entry.Endpoint)
		}
	}
	if counts["a"] != 24 || counts["b"] != 8 {
		t.Fatalf("weight shares = %v, want a:24 b:8", counts)
	}
	if len(variants["a"]) != 2 {
		t.Fatalf("family a used variants %v, want both of 2", variants["a"])
	}
}

// staticHandler serves a deterministic JSON body derived from the request
// bytes — a stand-in ulba server for accounting tests.
func staticHandler(t *testing.T, requests *atomic.Uint64) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		body, _ := io.ReadAll(r.Body)
		sum := sha256.Sum256(body)
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, "{\"sum\":%q}\n", fmt.Sprintf("%x", sum))
	})
}

// TestRunClosedAccounting runs the closed loop against a stub server: a
// fixed request count, every request completed, nothing lost.
func TestRunClosedAccounting(t *testing.T) {
	var requests atomic.Uint64
	ts := httptest.NewServer(staticHandler(t, &requests))
	defer ts.Close()

	const n = 120
	rep, err := Run(context.Background(), Config{
		Targets:     []string{ts.URL},
		Clients:     8,
		MaxRequests: n,
		Mix: []MixEntry{
			{Endpoint: "sweep", Weight: 3, Distinct: 4, Size: 10},
			{Endpoint: "runtime", Weight: 1, Distinct: 2, Size: 10},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != n || rep.TransportErrors != 0 {
		t.Fatalf("accounting = completed %d transport %d, want %d/0", rep.Completed, rep.TransportErrors, n)
	}
	if got := requests.Load(); got != n {
		t.Fatalf("server saw %d requests, want %d", got, n)
	}
	if err := rep.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	var perEndpoint uint64
	for _, ep := range rep.Endpoints {
		perEndpoint += ep.Requests
	}
	if perEndpoint != n {
		t.Fatalf("endpoint totals sum to %d, want %d", perEndpoint, n)
	}
}

// TestMismatchDetection feeds the verifier a server that changes its
// answer: the second 200 for the same request must count as a mismatch.
func TestMismatchDetection(t *testing.T) {
	var n atomic.Uint64
	flaky := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		fmt.Fprintf(w, "{\"n\":%d}\n", n.Add(1))
	})
	ts := httptest.NewServer(flaky)
	defer ts.Close()

	rep, err := Run(context.Background(), Config{
		Targets:     []string{ts.URL},
		Clients:     1,
		MaxRequests: 20,
		Mix:         []MixEntry{{Endpoint: "sweep", Weight: 1, Distinct: 1, Size: 4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mismatches == 0 {
		t.Fatal("nondeterministic server produced no mismatches")
	}
	if err := rep.Verify(); err == nil || !strings.Contains(err.Error(), "deviated") {
		t.Fatalf("Verify = %v, want byte-identity failure", err)
	}
}

// TestScrapeEndpointCounts parses a metrics page fragment.
func TestScrapeEndpointCounts(t *testing.T) {
	page := strings.Join([]string{
		`# TYPE ulba_http_request_duration_seconds histogram`,
		`ulba_http_request_duration_seconds_bucket{endpoint="POST /v1/sweep",le="0.001"} 3`,
		`ulba_http_request_duration_seconds_count{endpoint="POST /v1/sweep"} 41`,
		`ulba_http_request_duration_seconds_count{endpoint="GET /v1/stats"} 7`,
		`ulba_requests_total 99`,
	}, "\n")
	counts, err := ScrapeEndpointCounts(strings.NewReader(page))
	if err != nil {
		t.Fatal(err)
	}
	if counts["POST /v1/sweep"] != 41 || counts["GET /v1/stats"] != 7 || len(counts) != 2 {
		t.Fatalf("counts = %v", counts)
	}
	if _, err := ScrapeEndpointCounts(strings.NewReader("nothing here")); err == nil {
		t.Fatal("empty page accepted")
	}
}

// TestVerifyServerCounts checks both directions of the histogram
// cross-check.
func TestVerifyServerCounts(t *testing.T) {
	rep := &Report{Endpoints: []EndpointReport{
		{Endpoint: "POST /v1/sweep", Requests: 10},
		{Endpoint: "POST /v1/runtime", Requests: 0},
	}}
	if err := rep.VerifyServerCounts(map[string]uint64{"POST /v1/sweep": 10}); err != nil {
		t.Fatalf("exact match rejected: %v", err)
	}
	if err := rep.VerifyServerCounts(map[string]uint64{"POST /v1/sweep": 11}); err == nil {
		t.Fatal("count drift accepted")
	}
	if err := rep.VerifyServerCounts(map[string]uint64{}); err == nil {
		t.Fatal("missing series accepted")
	}
}

// TestRunValidation rejects the configurations that cannot measure.
func TestRunValidation(t *testing.T) {
	mix := []MixEntry{{Endpoint: "sweep", Weight: 1, Distinct: 1, Size: 1}}
	target := []string{"http://x"}
	cases := []Config{
		{MaxRequests: 1, Clients: 1, Mix: mix},
		{Targets: target, Clients: 1, Mix: mix},
		{Targets: target, MaxRequests: 1, Mix: mix},
		{Targets: target, MaxRequests: 1, Clients: 1},
		{Targets: target, MaxRequests: 1, Clients: 1,
			Mix: []MixEntry{{Endpoint: "sweep", Weight: 0, Distinct: 1, Size: 1}}},
		{Targets: target, MaxRequests: 1, Clients: 1,
			Mix: []MixEntry{{Endpoint: "sweep", Weight: 1, Size: 1}}},
		{Targets: target, MaxRequests: 1, Clients: 1,
			Mix: []MixEntry{{Endpoint: "sweep", Weight: 1, Distinct: 1}}},
		{Targets: target, MaxRequests: 1, Clients: 1,
			Mix: []MixEntry{{Endpoint: "nope", Weight: 1, Distinct: 1, Size: 1}}},
	}
	for i, cfg := range cases {
		if _, err := Run(context.Background(), cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}
