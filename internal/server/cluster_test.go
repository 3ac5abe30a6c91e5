package server

import (
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ulba/internal/cluster"
	"ulba/internal/engine"
	"ulba/internal/jobs"
)

// testClusterNode is one in-process replica: the Server, its HTTP frontend,
// and its base URL as the other replicas dial it.
type testClusterNode struct {
	srv  *Server
	http *httptest.Server
	url  string
}

// newTestCluster stands up n in-process replicas that can really reach each
// other over HTTP. The URL chicken-and-egg (every node needs the full peer
// list before any server exists) is solved by reserving all listeners
// first. Gossip loops run at test speed; configure applies per-node Config
// tweaks before construction.
func newTestCluster(t *testing.T, n, replication int, configure func(i int, cfg *Config)) []testClusterNode {
	t.Helper()
	lns := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	nodes := make([]testClusterNode, n)
	for i := range nodes {
		cfg := Config{Cluster: &cluster.Options{
			Self:           urls[i],
			Peers:          urls,
			Replication:    replication,
			GossipInterval: 20 * time.Millisecond,
		}}
		if configure != nil {
			configure(i, &cfg)
		}
		srv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		hs := httptest.NewUnstartedServer(srv.Handler())
		hs.Listener.Close()
		hs.Listener = lns[i]
		hs.Start()
		nodes[i] = testClusterNode{srv: srv, http: hs, url: urls[i]}
	}
	t.Cleanup(func() {
		for _, node := range nodes {
			node.http.Close()
			node.srv.Close(context.Background())
		}
	})
	return nodes
}

func postURL(t *testing.T, url, path, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// goldenRequests is one request per engine endpoint, used to pin the
// cluster's byte-identity contract. clusterGoldenRequests derives the
// served paths from the registry, so registering an engine without a row
// here fails TestClusterGoldenByteIdentity immediately.
var goldenRequests = []struct {
	name, path, body string
}{
	{"experiment", "/v1/experiment", `{"p":8,"alpha":0.3,"compare":true}`},
	{"sweep", "/v1/sweep", `{"sample":{"seed":2019,"n":20},"alpha_grid":11}`},
	{"runtime", "/v1/runtime", `{"p":4,"iterations":40,"workload":{"name":"linear","seed":3},"trigger":{"name":"periodic","every":8}}`},
	{"runtime-sweep", "/v1/runtime-sweep", `{"sample":{"seed":5,"n":3}}`},
	{"assess", "/v1/assess", `{"criteria":[{"trigger":{"name":"degradation"}},{"trigger":{"name":"never"}}],"sample":{"seed":4,"n":2}}`},
}

// clusterGoldenRequests checks goldenRequests against the engine registry
// and returns it: every registered engine must have exactly one row.
func clusterGoldenRequests(t *testing.T) []struct{ name, path, body string } {
	t.Helper()
	rows := map[string]bool{}
	for _, req := range goldenRequests {
		rows[req.name] = true
	}
	for _, d := range engine.Engines() {
		if !rows[d.Type] {
			t.Fatalf("goldenRequests has no row for registered engine %q", d.Type)
		}
		delete(rows, d.Type)
	}
	for stale := range rows {
		t.Fatalf("goldenRequests row %q names no registered engine", stale)
	}
	return goldenRequests
}

// TestClusterGoldenByteIdentity pins the tentpole contract: a 3-replica
// cluster serves byte-identical responses to a standalone server for every
// engine request type, no matter which replica the client dials — forwarded
// or computed locally, every body is the same pure function of its request.
func TestClusterGoldenByteIdentity(t *testing.T) {
	_, standalone := newTestServer(t)
	nodes := newTestCluster(t, 3, 2, nil)
	for _, req := range clusterGoldenRequests(t) {
		resp := post(t, standalone, req.path, req.body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: standalone status = %d", req.name, resp.StatusCode)
		}
		want := readAll(t, resp)
		for i, node := range nodes {
			resp := postURL(t, node.url, req.path, req.body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s via node %d: status = %d", req.name, i, resp.StatusCode)
			}
			got := readAll(t, resp)
			if string(got) != string(want) {
				t.Errorf("%s via node %d: body differs from standalone\ngot:  %q\nwant: %q", req.name, i, got, want)
			}
			if node := resp.Header.Get(cluster.HeaderNode); node == "" {
				t.Errorf("%s via node %d: missing %s header", req.name, i, cluster.HeaderNode)
			}
		}
	}
}

// TestNodeHeaderAndStats pins the observability surface on a standalone
// server: every response names its node, /v1/stats carries the node block,
// GET /v1/cluster reports unclustered, and the cluster-protocol POSTs are
// refused.
func TestNodeHeaderAndStats(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get(cluster.HeaderNode); got != standaloneNodeID {
		t.Errorf("%s = %q, want %q", cluster.HeaderNode, got, standaloneNodeID)
	}
	st := decodeBody[Stats](t, resp)
	if st.Node == nil {
		t.Fatal("stats has no node block")
	}
	if st.Node.ID != standaloneNodeID {
		t.Errorf("stats node id = %q, want %q", st.Node.ID, standaloneNodeID)
	}
	if st.Node.Cluster != nil {
		t.Errorf("standalone stats should have no cluster block, got %+v", st.Node.Cluster)
	}

	cresp, err := http.Get(ts.URL + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	defer cresp.Body.Close()
	cs := decodeBody[clusterStatusResponse](t, cresp)
	if cs.Clustered || cs.Node != standaloneNodeID {
		t.Errorf("GET /v1/cluster = %+v, want clustered=false node=%s", cs, standaloneNodeID)
	}

	for _, path := range []string{"/v1/cluster/gossip", "/v1/cluster/replicate"} {
		resp := post(t, ts, path, `{}`)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("POST %s on standalone = %d, want 503", path, resp.StatusCode)
		}
	}
}

// TestClusterStatsAndHeader pins the clustered observability surface: node
// IDs are distinct, the stats cluster block sees every peer, and a
// forwarded response names the owner that served it.
func TestClusterStatsAndHeader(t *testing.T) {
	nodes := newTestCluster(t, 3, 2, nil)
	seen := map[string]bool{}
	for i, node := range nodes {
		resp, err := http.Get(node.url + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		st := decodeBody[Stats](t, resp)
		resp.Body.Close()
		if st.Node == nil || st.Node.Cluster == nil {
			t.Fatalf("node %d stats has no cluster block", i)
		}
		if st.Node.Cluster.Size != 3 || st.Node.Cluster.Replication != 2 {
			t.Errorf("node %d cluster size/replication = %d/%d, want 3/2",
				i, st.Node.Cluster.Size, st.Node.Cluster.Replication)
		}
		if seen[st.Node.ID] {
			t.Errorf("duplicate node id %q", st.Node.ID)
		}
		seen[st.Node.ID] = true
		if got := resp.Header.Get(cluster.HeaderNode); got != st.Node.ID {
			t.Errorf("node %d header %q != stats id %q", i, got, st.Node.ID)
		}
	}
}

// cacheEntries polls a node's cache entry count.
func cacheEntries(node testClusterNode) int {
	return node.srv.Stats().Cache.Entries
}

// TestClusterReplicationSurvivesNodeDeath pins the availability contract:
// a computed result is replicated across its replica set, so killing one
// holder loses nothing — survivors keep serving the identical bytes without
// recomputation being observable to the client.
func TestClusterReplicationSurvivesNodeDeath(t *testing.T) {
	nodes := newTestCluster(t, 3, 2, nil)
	const path, body = "/v1/sweep", `{"sample":{"seed":77,"n":15},"alpha_grid":11}`

	resp := postURL(t, nodes[0].url, path, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	want := readAll(t, resp)

	// Replication is asynchronous: wait until two replicas hold the body.
	deadline := time.Now().Add(5 * time.Second)
	var holders []int
	for time.Now().Before(deadline) {
		holders = holders[:0]
		for i, node := range nodes {
			if cacheEntries(node) > 0 {
				holders = append(holders, i)
			}
		}
		if len(holders) >= 2 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if len(holders) < 2 {
		t.Fatalf("replication never reached 2 nodes (holders %v)", holders)
	}

	// Kill one holder outright: unreachable over HTTP and its loops down,
	// like a kill -9 of the process.
	dead := holders[0]
	nodes[dead].http.Close()
	nodes[dead].srv.Close(context.Background())

	for i, node := range nodes {
		if i == dead {
			continue
		}
		resp := postURL(t, node.url, path, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("survivor %d: status = %d", i, resp.StatusCode)
		}
		got := readAll(t, resp)
		if string(got) != string(want) {
			t.Errorf("survivor %d: body differs after node death", i)
		}
	}
}

// TestCloseWaitsForDrainedJobReplicas pins the shutdown order: a job that
// finishes while Close drains the job queue persists its body and starts a
// replica push, and Close must not return before that push has landed.
// The peer is a stub whose replicate handler answers after 300 ms.
func TestCloseWaitsForDrainedJobReplicas(t *testing.T) {
	var landed atomic.Int32
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == cluster.PathReplicate {
			io.Copy(io.Discard, r.Body)
			time.Sleep(300 * time.Millisecond)
			landed.Add(1)
		}
	}))
	t.Cleanup(peer.Close)
	const self = "http://127.0.0.1:1" // never dialed: gossip is paused
	srv, err := New(Config{JobWorkers: 1, Cluster: &cluster.Options{
		Self:           self,
		Peers:          []string{self, peer.URL},
		Replication:    2,
		GossipInterval: time.Hour,
	}})
	if err != nil {
		t.Fatal(err)
	}

	// The only worker runs a job that persists once released; a second job
	// waits in the queue, and its cancellation shows the drain has begun.
	release := make(chan struct{})
	running := make(chan struct{})
	key := strings.Repeat("ab", 32)
	if _, err := srv.manager.Submit("sweep", key, 1, jobSubmission{}, func(ctx context.Context, j *jobs.Job) error {
		close(running)
		<-release
		srv.persist(key, []byte("{}\n"))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	<-running
	queued, err := srv.manager.Submit("sweep", "queued", 1, jobSubmission{}, func(ctx context.Context, j *jobs.Job) error { return nil })
	if err != nil {
		t.Fatal(err)
	}

	closed := make(chan error, 1)
	go func() { closed <- srv.Close(context.Background()) }()
	deadline := time.Now().Add(5 * time.Second)
	for queued.Status().State != jobs.StateCancelled {
		if time.Now().After(deadline) {
			t.Fatal("Close never started draining the job queue")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	if got := landed.Load(); got != 1 {
		t.Fatalf("Close returned with %d of 1 replica pushes landed", got)
	}
}

// releaseOnce closes ch if it is still open.
func releaseOnce(ch chan struct{}) {
	select {
	case <-ch:
	default:
		close(ch)
	}
}

// TestClusterReplicateValidation pins the replica-admission guards.
func TestClusterReplicateValidation(t *testing.T) {
	nodes := newTestCluster(t, 2, 2, nil)
	cases := []struct {
		name, key, body string
	}{
		{"missing key", "", `{"x":1}`},
		{"short key", "abc123", `{"x":1}`},
		{"non-hex key", strings.Repeat("z", 64), `{"x":1}`},
		{"empty body", strings.Repeat("a", 64), ""},
	}
	for _, tc := range cases {
		req, err := http.NewRequest(http.MethodPost, nodes[0].url+cluster.PathReplicate, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		if tc.key != "" {
			req.Header.Set(cluster.HeaderKey, tc.key)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", tc.name, resp.StatusCode)
		}
	}
}

// TestClusterForwardLoopGuard pins the loop guard: a request already marked
// forwarded is always served locally, so two nodes can never bounce a
// request back and forth.
func TestClusterForwardLoopGuard(t *testing.T) {
	nodes := newTestCluster(t, 3, 1, nil)
	const path, body = "/v1/experiment", `{"p":6,"alpha":0.2}`
	// Send to every node with the forwarded mark set: each must answer
	// itself (node header == its own id), never relay.
	for i, node := range nodes {
		req, err := http.NewRequest(http.MethodPost, node.url+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(cluster.HeaderForwarded, "n-test")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		got := resp.Header.Get(cluster.HeaderNode)
		want := nodes[i].srv.nodeID()
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if got != want {
			t.Errorf("node %d served as %q, want itself (%q)", i, got, want)
		}
	}
}
