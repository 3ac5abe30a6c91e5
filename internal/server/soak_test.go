package server

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"ulba/internal/cluster"
	"ulba/internal/engine"
	"ulba/internal/jobs"
	"ulba/internal/loadgen"
)

// soakMix is a small request blend for the in-process soak tests: three
// endpoint families, sized so that a few hundred requests finish quickly
// even under -race.
func soakMix() []loadgen.MixEntry {
	return []loadgen.MixEntry{
		{Endpoint: "sweep", Weight: 6, Distinct: 8, Size: 20},
		{Endpoint: "runtime", Weight: 3, Distinct: 6, Size: 10},
		{Endpoint: "runtime-sweep", Weight: 1, Distinct: 2, Size: 2},
	}
}

// scrapeCounts fetches a server's /metrics page and returns its
// per-endpoint histogram counts.
func scrapeCounts(t *testing.T, baseURL string) map[string]uint64 {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("GET /metrics Content-Type = %q", ct)
	}
	counts, err := loadgen.ScrapeEndpointCounts(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return counts
}

// engineEndpoints are the metric labels of the engine routes, derived from
// the registry so the soak accounting covers every engine automatically.
var engineEndpoints = func() map[string]bool {
	m := make(map[string]bool, len(engine.Engines()))
	for _, d := range engine.Engines() {
		m["POST "+d.Endpoint] = true
	}
	return m
}()

// TestSoakStandalone is the tentpole soak against one in-process server:
// a closed-loop run with exact accounting. No request is lost, no body
// deviates, nothing is shed below the limit, the server's per-endpoint
// histogram counts equal the generator's observed responses, and
// single-flight keeps engine runs at exactly the distinct-body count.
func TestSoakStandalone(t *testing.T) {
	srv, ts := newTestServer(t)
	const n = 600
	rep, err := loadgen.Run(context.Background(), loadgen.Config{
		Targets:     []string{ts.URL},
		Clients:     32,
		MaxRequests: n,
		Mix:         soakMix(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Verify(); err != nil {
		t.Fatal(err)
	}
	if rep.Completed != n || rep.TransportErrors != 0 {
		t.Fatalf("accounting = %+v, want %d completed", rep, n)
	}
	if rep.Shed != 0 {
		t.Fatalf("shed %d requests below the admission limit", rep.Shed)
	}
	if rep.Mismatches != 0 {
		t.Fatalf("%d byte-identity mismatches", rep.Mismatches)
	}

	counts := scrapeCounts(t, ts.URL)
	if err := rep.VerifyServerCounts(counts); err != nil {
		t.Fatal(err)
	}
	var engineTotal uint64
	for label, c := range counts {
		if engineEndpoints[label] {
			engineTotal += c
		}
	}
	if engineTotal != n {
		t.Fatalf("engine-endpoint histograms sum to %d, want %d", engineTotal, n)
	}

	stats := srv.Stats()
	if stats.Admission.Shed != 0 {
		t.Errorf("server shed counter = %d, want 0", stats.Admission.Shed)
	}
	// 8 + 6 + 2 distinct bodies: single-flight and the cache make every
	// repeat free, so engine runs equal the distinct keys exactly.
	if want := uint64(16); stats.EngineRuns != want {
		t.Errorf("engine runs = %d, want %d (one per distinct body)", stats.EngineRuns, want)
	}
}

// TestSoakOverloadShedsExactly drives a deliberately starved server (one
// admission token, one engine slot) well past capacity: every request is
// still answered (2xx or 429, nothing lost, nothing mis-byte'd), the shed
// requests are exactly the 429s the generator saw, and the histograms
// still account for every response.
func TestSoakOverloadShedsExactly(t *testing.T) {
	srv, err := New(Config{MaxConcurrent: 1, MaxInflight: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close(context.Background()) })
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	const n = 400
	rep, err := loadgen.Run(context.Background(), loadgen.Config{
		Targets:     []string{ts.URL},
		Clients:     16,
		MaxRequests: n,
		Mix:         []loadgen.MixEntry{{Endpoint: "sweep", Weight: 1, Distinct: 64, Size: 10}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Verify(); err != nil {
		t.Fatal(err)
	}
	if rep.Completed != n {
		t.Fatalf("closed loop lost requests: %+v", rep)
	}
	if rep.Shed == 0 {
		t.Fatal("16 clients against 1 admission token shed nothing")
	}
	if got := srv.Stats().Admission.Shed; got != rep.Shed {
		t.Fatalf("server shed counter = %d, generator saw %d 429s — shed requests must be exactly the 429s", got, rep.Shed)
	}
	if err := rep.VerifyServerCounts(scrapeCounts(t, ts.URL)); err != nil {
		t.Fatal(err)
	}
}

// TestSoakThousandClients pins the acceptance bar: a thousand concurrent
// clients against one server, every request answered and accounted for.
func TestSoakThousandClients(t *testing.T) {
	srv, ts := newTestServer(t)
	const n, clients = 2000, 1000
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        clients,
		MaxIdleConnsPerHost: clients,
	}}
	defer client.CloseIdleConnections()
	rep, err := loadgen.Run(context.Background(), loadgen.Config{
		Targets:     []string{ts.URL},
		Client:      client,
		Clients:     clients,
		MaxRequests: n,
		Mix:         []loadgen.MixEntry{{Endpoint: "sweep", Weight: 1, Distinct: 4, Size: 8}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Verify(); err != nil {
		t.Fatal(err)
	}
	if rep.Completed != n || rep.Mismatches != 0 {
		t.Fatalf("accounting = %+v, want %d completed, 0 mismatches", rep, n)
	}
	if got := srv.Stats().Admission.Shed; got != rep.Shed {
		t.Fatalf("server shed %d, generator saw %d 429s", got, rep.Shed)
	}
	if err := rep.VerifyServerCounts(scrapeCounts(t, ts.URL)); err != nil {
		t.Fatal(err)
	}
}

// TestSoakCluster soaks a 3-node cluster through every replica at once and
// then balances the cross-node books: the nodes' engine-endpoint histogram
// counts must sum to the generator's completions plus the successful
// forwards (a forwarded request lands in two histograms — the relay's and
// the owner's).
func TestSoakCluster(t *testing.T) {
	nodes := newTestCluster(t, 3, 2, nil)
	urls := make([]string, len(nodes))
	for i, node := range nodes {
		urls[i] = node.url
	}
	const n = 300
	rep, err := loadgen.Run(context.Background(), loadgen.Config{
		Targets:     urls,
		Clients:     24,
		MaxRequests: n,
		Mix: []loadgen.MixEntry{
			{Endpoint: "sweep", Weight: 3, Distinct: 8, Size: 10},
			{Endpoint: "runtime", Weight: 1, Distinct: 4, Size: 8},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Verify(); err != nil {
		t.Fatal(err)
	}
	if rep.Completed != n || rep.Mismatches != 0 {
		t.Fatalf("accounting = %+v, want %d completed, 0 mismatches", rep, n)
	}

	var histTotal, forwards uint64
	for i, node := range nodes {
		for label, c := range scrapeCounts(t, node.url) {
			if engineEndpoints[label] {
				histTotal += c
			}
		}
		st := node.srv.Stats()
		if st.Node.Cluster == nil {
			t.Fatalf("node %d has no cluster stats", i)
		}
		forwards += st.Node.Cluster.Forwards
		if st.Node.Cluster.ForwardFailures != 0 {
			t.Errorf("node %d had %d forward failures in a stable cluster", i, st.Node.Cluster.ForwardFailures)
		}
	}
	if histTotal != n+forwards {
		t.Fatalf("cluster histograms sum to %d, want %d completed + %d forwards = %d",
			histTotal, n, forwards, n+forwards)
	}
}

// TestSoakClusterChurn kills and restarts a replica while the other two
// keep taking traffic: every response stays byte-identical (the survivors
// absorb failed forwards by computing locally), the forward loop guard
// holds on the restarted node, and the churn leaks no goroutines.
func TestSoakClusterChurn(t *testing.T) {
	// Reserve the three listeners first, so every node knows the full peer
	// list, and keep node 2's address for the same-port restart.
	lns := make([]net.Listener, 3)
	urls := make([]string, 3)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	mkConfig := func(i int) Config {
		return Config{Cluster: &cluster.Options{
			Self:           urls[i],
			Peers:          urls,
			Replication:    2,
			GossipInterval: 20 * time.Millisecond,
		}}
	}
	servers := make([]*Server, 3)
	https := make([]*httptest.Server, 3)
	start := func(i int, ln net.Listener) {
		srv, err := New(mkConfig(i))
		if err != nil {
			t.Fatal(err)
		}
		hs := httptest.NewUnstartedServer(srv.Handler())
		hs.Listener.Close()
		hs.Listener = ln
		hs.Start()
		servers[i], https[i] = srv, hs
	}
	for i := range lns {
		start(i, lns[i])
	}
	t.Cleanup(func() {
		for i := range servers {
			https[i].Close()
			servers[i].Close(context.Background())
		}
	})

	// Warm the cluster up, then take the goroutine baseline the leak check
	// compares against after the kill/restart cycle.
	warm := postURL(t, urls[0], "/v1/sweep", `{"sample":{"seed":9,"n":10},"alpha_grid":11}`)
	if warm.StatusCode != http.StatusOK {
		t.Fatalf("warmup status = %d", warm.StatusCode)
	}

	client := &http.Client{Transport: &http.Transport{MaxIdleConns: 16, MaxIdleConnsPerHost: 16}}
	// Mesh the cluster before measuring the baseline: a short pre-soak
	// makes every node open its pooled connections to every peer (gossip,
	// forwards, replication), so the real soak below adds no steady-state
	// connection goroutines the baseline has not already seen.
	if _, err := loadgen.Run(context.Background(), loadgen.Config{
		Targets: urls[:2], Client: client, Clients: 8, MaxRequests: 60,
		Mix: []loadgen.MixEntry{{Endpoint: "sweep", Weight: 1, Distinct: 6, Size: 10}},
	}); err != nil {
		t.Fatal(err)
	}
	before := settledGoroutines()
	const n = 400
	done := make(chan struct{})
	var rep *loadgen.Report
	var runErr error
	go func() {
		defer close(done)
		rep, runErr = loadgen.Run(context.Background(), loadgen.Config{
			// Traffic goes to the two survivors only; node 2 participates
			// through forwarding, dies, and comes back mid-run.
			Targets:     urls[:2],
			Client:      client,
			Clients:     16,
			MaxRequests: n,
			Mix: []loadgen.MixEntry{
				{Endpoint: "sweep", Weight: 3, Distinct: 12, Size: 10},
				{Endpoint: "runtime", Weight: 1, Distinct: 6, Size: 8},
			},
		})
	}()

	// Kill node 2 mid-run — listener closed, loops down, like a kill -9 —
	// then restart it on the same address.
	time.Sleep(150 * time.Millisecond)
	addr := lns[2].Addr().String()
	https[2].Close()
	servers[2].Close(context.Background())
	time.Sleep(100 * time.Millisecond)
	var ln net.Listener
	var err error
	deadline := time.Now().Add(5 * time.Second)
	for {
		ln, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebinding %s: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	start(2, ln)
	<-done
	if runErr != nil {
		t.Fatal(runErr)
	}
	if err := rep.Verify(); err != nil {
		t.Fatalf("soak through the churn was not clean: %v", err)
	}
	if rep.Completed != n || rep.Mismatches != 0 {
		t.Fatalf("accounting = %+v, want %d completed, 0 mismatches", rep, n)
	}

	// The forward loop guard must hold on the restarted node: a request
	// already marked forwarded is served locally, never relayed again.
	req, err := http.NewRequest(http.MethodPost, urls[2]+"/v1/experiment", strings.NewReader(`{"p":6,"alpha":0.2}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(cluster.HeaderForwarded, "n-test")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("restarted node unreachable: %v", err)
	}
	resp.Body.Close()
	if got, want := resp.Header.Get(cluster.HeaderNode), servers[2].nodeID(); got != want {
		t.Errorf("restarted node served as %q, want itself (%q)", got, want)
	}

	// Byte identity across the churned cluster: every node (including the
	// restarted one) serves the same bytes for the warmup request.
	want := readAll(t, postURL(t, urls[0], "/v1/sweep", `{"sample":{"seed":9,"n":10},"alpha_grid":11}`))
	for i := 1; i < 3; i++ {
		got := readAll(t, postURL(t, urls[i], "/v1/sweep", `{"sample":{"seed":9,"n":10},"alpha_grid":11}`))
		if string(got) != string(want) {
			t.Errorf("node %d serves different bytes after the churn", i)
		}
	}

	// No goroutine leak: after idle connections drain, the count returns
	// to the pre-churn baseline (the restarted node's loops replace the
	// dead node's). The slack absorbs scheduler and net poller stragglers.
	client.CloseIdleConnections()
	http.DefaultClient.CloseIdleConnections()
	deadline = time.Now().Add(15 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= before+25 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines = %d, want <= baseline %d + 25 — the churn leaked", runtime.NumGoroutine(), before)
		}
		runtime.Gosched()
		time.Sleep(50 * time.Millisecond)
	}
}

// settledGoroutines samples runtime.NumGoroutine until the count stops
// falling (five stable samples) and returns the settled value — the leak
// check's way of not counting request goroutines still draining.
func settledGoroutines() int {
	last, stable := runtime.NumGoroutine(), 0
	deadline := time.Now().Add(5 * time.Second)
	for stable < 5 && time.Now().Before(deadline) {
		time.Sleep(50 * time.Millisecond)
		n := runtime.NumGoroutine()
		if n < last {
			last, stable = n, 0
		} else {
			stable++
		}
	}
	return last
}

// retryAfterRe is the RFC 9110 delay-seconds form the header must take.
var retryAfterRe = regexp.MustCompile(`^[0-9]+$`)

// TestAdmissionConfig pins the Config resolution rules for the admission
// knobs: defaults, rounding, and the disable conventions.
func TestAdmissionConfig(t *testing.T) {
	cases := []struct {
		name            string
		cfg             Config
		wantMaxInflight int
		wantRetrySecs   int
	}{
		{"defaults", Config{MaxConcurrent: 2}, 128, 1},
		{"explicit limit", Config{MaxInflight: 5, RetryAfter: 3 * time.Second}, 5, 3},
		{"sub-second rounds up", Config{RetryAfter: 1500 * time.Millisecond}, 64 * runtime.GOMAXPROCS(0), 2},
		{"negative disables", Config{MaxInflight: -1}, 0, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			srv, err := New(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close(context.Background())
			st := srv.Stats().Admission
			if st.MaxInflight != c.wantMaxInflight {
				t.Errorf("max inflight = %d, want %d", st.MaxInflight, c.wantMaxInflight)
			}
			if st.RetryAfterSeconds != c.wantRetrySecs {
				t.Errorf("retry-after = %ds, want %ds", st.RetryAfterSeconds, c.wantRetrySecs)
			}
			if !retryAfterRe.MatchString(srv.retryAfter) {
				t.Errorf("Retry-After value %q is not delay-seconds", srv.retryAfter)
			}
		})
	}
}

// TestAdmissionSheds drives the limiter through its boundary with the
// saturation held stable by hand: the engine semaphore is filled from the
// test, so admitted requests block under it while their admission tokens
// stay held. At inflight == limit the next uncached request is shed with
// 429 + Retry-After; a cache hit still passes; no shed request ever
// reaches engine code; and the shed counter equals the 429s served.
func TestAdmissionSheds(t *testing.T) {
	srv, err := New(Config{MaxConcurrent: 1, MaxInflight: 2, RetryAfter: 3 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close(context.Background()) })
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	// Warm one hot key while the server is idle.
	const hotBody = `{"sample":{"seed":21,"n":10},"alpha_grid":11}`
	if resp := post(t, ts, "/v1/sweep", hotBody); resp.StatusCode != http.StatusOK {
		t.Fatalf("warmup status = %d", resp.StatusCode)
	}

	// Fill the only engine slot from the test, then admit two uncached
	// requests: both hold admission tokens, blocked waiting for the slot.
	srv.sem <- struct{}{}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"sample":{"seed":%d,"n":10},"alpha_grid":11}`, 100+i)
			resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(body))
			if err != nil {
				t.Errorf("blocked request %d: %v", i, err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("blocked request %d finished %d, want 200", i, resp.StatusCode)
			}
		}(i)
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.inflight.Load() != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("inflight = %d, never reached the limit 2", srv.inflight.Load())
		}
		time.Sleep(time.Millisecond)
	}

	engineRuns := srv.Stats().EngineRuns // the warmup; the blocked pair has not entered the engine

	// Boundary: inflight == limit, so the next uncached request is shed.
	cases := []struct {
		name, path, body string
	}{
		{"sweep over limit", "/v1/sweep", `{"sample":{"seed":200,"n":10},"alpha_grid":11}`},
		{"runtime over limit", "/v1/runtime", `{"p":4,"iterations":10,"workload":{"name":"linear","seed":1}}`},
		{"stream over limit", "/v1/sweep", `{"sample":{"seed":201,"n":10},"alpha_grid":11,"stream":true}`},
	}
	var sheds uint64
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp := post(t, ts, c.path, c.body)
			if resp.StatusCode != http.StatusTooManyRequests {
				t.Fatalf("status = %d, want 429", resp.StatusCode)
			}
			ra := resp.Header.Get("Retry-After")
			if !retryAfterRe.MatchString(ra) {
				t.Fatalf("Retry-After = %q, want delay-seconds", ra)
			}
			if ra != "3" {
				t.Fatalf("Retry-After = %q, want %q (the configured 3s)", ra, "3")
			}
			got := decodeBody[errorResponse](t, resp)
			if !strings.Contains(got.Error, "capacity") {
				t.Errorf("shed error %q does not name the cause", got.Error)
			}
			sheds++
		})
	}

	// A hot key still serves at the limit: the cache-hit fast path takes no
	// admission token, so overload never sheds work the server can answer
	// from memory.
	t.Run("cache hit bypasses the limiter", func(t *testing.T) {
		resp := post(t, ts, "/v1/sweep", hotBody)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("cached request shed at the limit: status = %d", resp.StatusCode)
		}
		if got := resp.Header.Get("X-Ulba-Cache"); got != "hit" {
			t.Errorf("X-Ulba-Cache = %q, want hit", got)
		}
	})

	// Shed requests never reached engine code, and the shed counter counts
	// exactly the 429s served.
	if got := srv.Stats().EngineRuns; got != engineRuns {
		t.Errorf("engine runs moved %d -> %d across shed requests", engineRuns, got)
	}
	if got := srv.Stats().Admission.Shed; got != sheds {
		t.Errorf("shed counter = %d, want %d (one per 429)", got, sheds)
	}

	// Release the engine; the two admitted requests complete and return
	// their tokens.
	<-srv.sem
	wg.Wait()
	if got := srv.inflight.Load(); got != 0 {
		t.Errorf("inflight = %d after drain, want 0", got)
	}
}

// TestJobsQueueShed pins the asynchronous half of admission control: a full
// job queue sheds cold submissions with 429 + Retry-After, while a
// submission whose result is already cached bypasses the limit entirely.
func TestJobsQueueShed(t *testing.T) {
	srv, err := New(Config{JobWorkers: 1, MaxQueuedJobs: 1, RetryAfter: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close(context.Background()) })
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	// Occupy the only worker so submissions stay queued.
	release := make(chan struct{})
	running := make(chan struct{})
	if _, err := srv.manager.Submit("experiment", "block", 1, jobSubmission{}, func(ctx context.Context, j *jobs.Job) error {
		close(running)
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	defer releaseOnce(release)
	<-running

	// First submission fills the queue (limit 1); the second is shed.
	first := post(t, ts, "/v1/jobs", `{"type":"sweep","request":{"sample":{"seed":300,"n":5},"alpha_grid":11}}`)
	if first.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit status = %d, want 202", first.StatusCode)
	}
	engineRuns := srv.Stats().EngineRuns
	second := post(t, ts, "/v1/jobs", `{"type":"sweep","request":{"sample":{"seed":301,"n":5},"alpha_grid":11}}`)
	if second.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second submit status = %d, want 429", second.StatusCode)
	}
	if ra := second.Header.Get("Retry-After"); ra != "2" {
		t.Fatalf("Retry-After = %q, want %q", ra, "2")
	}
	if got := srv.Stats().EngineRuns; got != engineRuns {
		t.Errorf("shed submission reached the engine (runs %d -> %d)", engineRuns, got)
	}

	// A submission whose result is already cached jumps the full queue: it
	// costs a cache read, not engine time, so shedding it would be waste.
	const cachedBody = `{"sample":{"seed":302,"n":5},"alpha_grid":11}`
	sync := post(t, ts, "/v1/sweep", cachedBody)
	if sync.StatusCode != http.StatusOK {
		t.Fatalf("sync compute status = %d", sync.StatusCode)
	}
	want := readAll(t, sync)
	hot := post(t, ts, "/v1/jobs", `{"type":"sweep","request":`+cachedBody+`}`)
	if hot.StatusCode != http.StatusAccepted {
		t.Fatalf("cached submit status = %d, want 202 past the full queue", hot.StatusCode)
	}
	hotStatus := decodeBody[jobs.Status](t, hot)

	releaseOnce(release)
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + hotStatus.ID)
		if err != nil {
			t.Fatal(err)
		}
		st := decodeBody[jobs.Status](t, resp)
		resp.Body.Close()
		if st.State == jobs.StateDone {
			break
		}
		if st.State.Terminal() {
			t.Fatalf("hot job ended %s: %s", st.State, st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("hot job still %s", st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	res, err := http.Get(ts.URL + "/v1/jobs/" + hotStatus.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if got := readAll(t, res); string(got) != string(want) {
		t.Fatal("hot job result differs from the synchronous bytes")
	}

	stats := srv.Stats()
	if stats.Jobs.Shed != 1 {
		t.Errorf("jobs shed = %d, want 1", stats.Jobs.Shed)
	}
	if stats.Jobs.QueueLimit != 1 {
		t.Errorf("jobs queue limit = %d, want 1", stats.Jobs.QueueLimit)
	}
	if stats.Admission.Shed != 1 {
		t.Errorf("admission shed = %d, want 1 (the queue shed is a 429 too)", stats.Admission.Shed)
	}
}
