package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"ulba/internal/gossip"
)

func testPeers(n int) []string {
	urls := make([]string, n)
	for i := range urls {
		urls[i] = fmt.Sprintf("http://10.0.0.%d:8383", i+1)
	}
	return urls
}

func newTestNode(t *testing.T, self int, n int, opts Options, hooks Hooks) *Node {
	t.Helper()
	peers := testPeers(n)
	opts.Self = peers[self]
	opts.Peers = peers
	node, err := New(opts, hooks)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return node
}

func TestNewValidation(t *testing.T) {
	peers := testPeers(3)
	cases := []struct {
		name string
		opts Options
	}{
		{"empty peers", Options{Self: peers[0]}},
		{"self not a peer", Options{Self: "http://10.9.9.9:1", Peers: peers}},
		{"duplicate peer", Options{Self: peers[0], Peers: append(peers, peers[1])}},
		{"bad scheme", Options{Self: peers[0], Peers: []string{peers[0], "ftp://x:1"}}},
		{"url with path", Options{Self: peers[0], Peers: []string{peers[0], "http://x:1/v1"}}},
		{"no host", Options{Self: peers[0], Peers: []string{peers[0], "http://"}}},
	}
	for _, tc := range cases {
		if _, err := New(tc.opts, Hooks{}); err == nil {
			t.Errorf("%s: want error, got nil", tc.name)
		}
	}
}

// Node identity, ranks, and placement must be a pure function of the peer
// SET: every replica is started with the same -peers flag but possibly in a
// different order, and they must all agree without coordination.
func TestMembershipOrderIndependent(t *testing.T) {
	peers := testPeers(5)
	ref, err := New(Options{Self: peers[2], Peers: peers}, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		shuffled := append([]string(nil), peers...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		node, err := New(Options{Self: peers[2], Peers: shuffled}, Hooks{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(node.Members(), ref.Members()) {
			t.Fatalf("members differ for order %v", shuffled)
		}
		for k := 0; k < 50; k++ {
			key := fmt.Sprintf("key-%d", k)
			if !reflect.DeepEqual(node.Owners(key), ref.Owners(key)) {
				t.Fatalf("owners(%s) differ for order %v", key, shuffled)
			}
		}
	}
}

func TestOwnersDistinctAndStable(t *testing.T) {
	node := newTestNode(t, 0, 5, Options{Replication: 3}, Hooks{})
	counts := make([]int, node.Size())
	for k := 0; k < 200; k++ {
		key := fmt.Sprintf("req-%d", k)
		owners := node.Owners(key)
		if len(owners) != 3 {
			t.Fatalf("owners(%s) = %d members, want 3", key, len(owners))
		}
		seen := map[int]bool{}
		for _, m := range owners {
			if seen[m.Index] {
				t.Fatalf("owners(%s) repeats member %d", key, m.Index)
			}
			seen[m.Index] = true
		}
		counts[owners[0].Index]++
		ownerSelf := false
		for _, m := range owners {
			if m.Index == 0 {
				ownerSelf = true
			}
		}
		if node.IsOwner(key) != ownerSelf {
			t.Fatalf("IsOwner(%s) = %v disagrees with Owners", key, !ownerSelf)
		}
	}
	// Placement should not degenerate: every member is primary for
	// something over 200 keys.
	for i, c := range counts {
		if c == 0 {
			t.Errorf("member %d is primary for no keys", i)
		}
	}
}

func TestReplicationClamped(t *testing.T) {
	node := newTestNode(t, 0, 3, Options{Replication: 9}, Hooks{})
	if node.Replication() != 3 {
		t.Fatalf("replication = %d, want clamped to 3", node.Replication())
	}
	node = newTestNode(t, 0, 3, Options{}, Hooks{})
	if node.Replication() != 2 {
		t.Fatalf("default replication = %d, want 2", node.Replication())
	}
}

func TestLivenessTransitions(t *testing.T) {
	node := newTestNode(t, 0, 3, Options{}, Hooks{})
	for i := 0; i < 3; i++ {
		if !node.Alive(i) {
			t.Fatalf("member %d should start alive", i)
		}
	}
	node.MarkDead(1)
	if node.Alive(1) {
		t.Fatal("member 1 should be dead after MarkDead")
	}
	node.Observe("n1")
	if !node.Alive(1) {
		t.Fatal("Observe should revive member 1")
	}
	node.MarkDead(0) // self is never dead
	if !node.Alive(0) {
		t.Fatal("self must stay alive")
	}
	if node.Alive(-1) || node.Alive(99) {
		t.Fatal("out-of-range members must read dead")
	}
}

func TestHandleGossipMergesAndRevives(t *testing.T) {
	load := 4
	node := newTestNode(t, 0, 3, Options{}, Hooks{Load: func() int { return load }})
	node.MarkDead(2)
	snap := node.HandleGossip("n1", []gossip.Entry{
		{Rank: 1, Value: 7, Iter: 3}, // rank 1: load 7, heartbeat 3
		{Rank: 2, Value: 1, Iter: 5}, // rank 2 advanced => indirect liveness evidence
	})
	if !node.Alive(1) || !node.Alive(2) {
		t.Fatal("gossip evidence should mark 1 (direct) and 2 (advance) alive")
	}
	got := map[int][2]float64{}
	for _, e := range snap {
		got[e.Rank] = [2]float64{e.Value, float64(e.Iter)}
	}
	if got[1] != [2]float64{7, 3} || got[2] != [2]float64{1, 5} {
		t.Fatalf("snapshot missing merged entries: %v", got)
	}
	if got[0][0] != float64(load) {
		t.Fatalf("snapshot self load = %v, want %d", got[0][0], load)
	}
	st := node.Stats()
	if st.Live != 3 || st.Size != 3 {
		t.Fatalf("stats live=%d size=%d, want 3/3", st.Live, st.Size)
	}
	if st.Peers[1].Load != 7 || st.Peers[1].Heartbeat != 3 {
		t.Fatalf("peer 1 status = %+v", st.Peers[1])
	}
}

// twoNodeHarness stands up two real Nodes whose URLs point at live HTTP
// servers wired to each other's protocol handlers — the same
// listener-first trick the server integration tests use.
func twoNodeHarness(t *testing.T, hooks0, hooks1 Hooks) (*Node, *Node, *http.ServeMux, *http.ServeMux) {
	t.Helper()
	lns := make([]net.Listener, 2)
	urls := make([]string, 2)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	opts := Options{Peers: urls, Client: &http.Client{Timeout: 2 * time.Second}}
	opts.Self = urls[0]
	n0, err := New(opts, hooks0)
	if err != nil {
		t.Fatal(err)
	}
	opts.Self = urls[1]
	n1, err := New(opts, hooks1)
	if err != nil {
		t.Fatal(err)
	}
	muxes := []*http.ServeMux{http.NewServeMux(), http.NewServeMux()}
	for i := range lns {
		srv := httptest.NewUnstartedServer(muxes[i])
		srv.Listener.Close()
		srv.Listener = lns[i]
		srv.Start()
		t.Cleanup(srv.Close)
	}
	return n0, n1, muxes[0], muxes[1]
}

func registerGossipHandler(mux *http.ServeMux, node *Node) {
	mux.HandleFunc(PathGossip, func(w http.ResponseWriter, r *http.Request) {
		var ex GossipExchange
		if err := json.NewDecoder(r.Body).Decode(&ex); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		json.NewEncoder(w).Encode(GossipExchange{From: node.ID(), Entries: node.HandleGossip(ex.From, ex.Entries)})
	})
}

func TestGossipTickExchangesState(t *testing.T) {
	load0, load1 := 2, 9
	n0, n1, _, mux1 := twoNodeHarness(t,
		Hooks{Load: func() int { return load0 }},
		Hooks{Load: func() int { return load1 }})
	registerGossipHandler(mux1, n1)

	n0.gossipTick(context.Background())
	st0, st1 := n0.Stats(), n1.Stats()
	if st0.GossipExchanges != 1 {
		t.Fatalf("n0 exchanges = %d, want 1", st0.GossipExchanges)
	}
	// Push-pull: each side now holds the other's load.
	i0, i1 := n0.self, n1.self
	if st0.Peers[i1].Load != float64(load1) {
		t.Fatalf("n0 sees n1 load %v, want %d", st0.Peers[i1].Load, load1)
	}
	if st1.Peers[i0].Load != float64(load0) {
		t.Fatalf("n1 sees n0 load %v, want %d", st1.Peers[i0].Load, load0)
	}
}

func TestGossipTickFailureMarksDead(t *testing.T) {
	// No handler registered on the partner: the POST gets a 404 served,
	// so instead close the partner's listener by pointing n0 at a dead
	// port via a fresh node pair where the partner server never starts.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadURL := "http://" + ln.Addr().String()
	ln.Close()
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln2.Close()
	liveURL := "http://" + ln2.Addr().String()
	n0, err := New(Options{
		Self:   liveURL,
		Peers:  []string{liveURL, deadURL},
		Client: &http.Client{Timeout: 500 * time.Millisecond},
	}, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	var partner int
	for i := range n0.members {
		if i != n0.self {
			partner = i
		}
	}
	n0.gossipTick(context.Background())
	if n0.Alive(partner) {
		t.Fatal("unreachable partner should be marked dead")
	}
	if n0.Stats().GossipFailures != 1 {
		t.Fatalf("gossip failures = %d, want 1", n0.Stats().GossipFailures)
	}
}

// stubPeers builds a node at an address nobody dials plus one httptest
// peer per handler, with every key owned by every member. It returns the
// node and the peers' members in handler order.
func stubPeers(t *testing.T, handlers ...http.HandlerFunc) (*Node, []Member) {
	t.Helper()
	const self = "http://127.0.0.1:1"
	peers := []string{self}
	for _, h := range handlers {
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		peers = append(peers, ts.URL)
	}
	node, err := New(Options{
		Self:        self,
		Peers:       peers,
		Replication: len(peers),
		Client:      &http.Client{Timeout: 2 * time.Second},
	}, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	members := make([]Member, len(handlers))
	for i, u := range peers[1:] {
		for _, m := range node.Members() {
			if m.URL == u {
				members[i] = m
			}
		}
	}
	return node, members
}

func TestForwardMarksRelay(t *testing.T) {
	var forwarded, from, path, body string
	node, peers := stubPeers(t, func(w http.ResponseWriter, r *http.Request) {
		forwarded, from, path = r.Header.Get(HeaderForwarded), r.Header.Get(HeaderFrom), r.URL.Path
		b, _ := io.ReadAll(r.Body)
		body = string(b)
	})
	resp, err := node.Forward(context.Background(), peers[0], "/v1/sweep", []byte(`{"x":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if forwarded != node.ID() || from != node.ID() {
		t.Fatalf("%s = %q, %s = %q, want both %q", HeaderForwarded, forwarded, HeaderFrom, from, node.ID())
	}
	if path != "/v1/sweep" || body != `{"x":1}` {
		t.Fatalf("peer got %s %q, want /v1/sweep with the client body", path, body)
	}
	if st := node.Stats(); st.Forwards != 1 || st.ForwardsShed != 0 || st.ForwardFailures != 0 {
		t.Fatalf("forwards/shed/failures = %d/%d/%d, want 1/0/0", st.Forwards, st.ForwardsShed, st.ForwardFailures)
	}
}

func TestForwardCountsShed(t *testing.T) {
	node, peers := stubPeers(t, func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTooManyRequests)
	})
	resp, err := node.Forward(context.Background(), peers[0], "/v1/sweep", []byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("relayed status = %d, want 429", resp.StatusCode)
	}
	if st := node.Stats(); st.Forwards != 1 || st.ForwardsShed != 1 {
		t.Fatalf("forwards/shed = %d/%d, want 1/1", st.Forwards, st.ForwardsShed)
	}
	if !node.Alive(peers[0].Index) {
		t.Fatal("a shedding owner is still alive")
	}
}

func TestForwardTransportErrorMarksDead(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadURL := "http://" + ln.Addr().String()
	ln.Close()
	const self = "http://127.0.0.1:1"
	node, err := New(Options{Self: self, Peers: []string{self, deadURL}}, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	var dead Member
	for _, m := range node.Members() {
		if !m.Self {
			dead = m
		}
	}

	// A caller whose context is already done says nothing about the peer.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := node.Forward(ctx, dead, "/v1/sweep", []byte(`{}`)); err == nil {
		t.Fatal("forward with a cancelled context succeeded")
	}
	if !node.Alive(dead.Index) {
		t.Fatal("a cancelled caller marked the peer dead")
	}

	if _, err := node.Forward(context.Background(), dead, "/v1/sweep", []byte(`{}`)); err == nil {
		t.Fatal("forward to a closed port succeeded")
	}
	if node.Alive(dead.Index) {
		t.Fatal("unreachable owner should be marked dead")
	}
	if st := node.Stats(); st.ForwardFailures != 2 || st.Forwards != 0 {
		t.Fatalf("forwards/failures = %d/%d, want 0/2", st.Forwards, st.ForwardFailures)
	}
}

// replicaRecorder is a peer handler that records the replica pushes it
// receives, answering each with status after delay.
type replicaRecorder struct {
	status int
	delay  time.Duration

	mu     sync.Mutex
	pushes []string // "key body"
}

func (rr *replicaRecorder) handle(w http.ResponseWriter, r *http.Request) {
	b, _ := io.ReadAll(r.Body)
	time.Sleep(rr.delay)
	if r.URL.Path == PathReplicate {
		rr.mu.Lock()
		rr.pushes = append(rr.pushes, r.Header.Get(HeaderKey)+" "+string(b))
		rr.mu.Unlock()
	}
	w.WriteHeader(rr.status)
}

func (rr *replicaRecorder) got() []string {
	rr.mu.Lock()
	defer rr.mu.Unlock()
	return append([]string(nil), rr.pushes...)
}

func TestReplicateAsyncPushesToOtherOwners(t *testing.T) {
	a, b := &replicaRecorder{status: http.StatusOK}, &replicaRecorder{status: http.StatusOK}
	node, _ := stubPeers(t, a.handle, b.handle)
	const key = "k1"
	node.ReplicateAsync(key, []byte(`{"r":1}`))
	node.Close()
	// Self is an owner too but is never dialed: a push to its unreachable
	// address would count as a failure.
	for i, rr := range []*replicaRecorder{a, b} {
		if got := rr.got(); len(got) != 1 || got[0] != key+` {"r":1}` {
			t.Errorf("peer %d pushes = %q, want one push of %s", i, got, key)
		}
	}
	if st := node.Stats(); st.ReplicasSent != 2 || st.ReplicaFailures != 0 {
		t.Fatalf("replicas sent/failed = %d/%d, want 2/0", st.ReplicasSent, st.ReplicaFailures)
	}
}

func TestReplicateCountsRejections(t *testing.T) {
	rr := &replicaRecorder{status: http.StatusBadRequest}
	node, peers := stubPeers(t, rr.handle)
	node.ReplicateAsync("k2", []byte(`{}`))
	node.Close()
	if st := node.Stats(); st.ReplicasSent != 0 || st.ReplicaFailures != 1 {
		t.Fatalf("replicas sent/failed = %d/%d, want 0/1", st.ReplicasSent, st.ReplicaFailures)
	}
	if !node.Alive(peers[0].Index) {
		t.Fatal("a peer that answered is still alive")
	}
}

func TestCloseWaitsForReplicaPushes(t *testing.T) {
	rr := &replicaRecorder{status: http.StatusOK, delay: 200 * time.Millisecond}
	node, _ := stubPeers(t, rr.handle)
	node.Start()
	node.ReplicateAsync("k3", []byte(`{}`))
	node.Close()
	if got := len(rr.got()); got != 1 {
		t.Fatalf("Close returned with %d of 1 pushes landed", got)
	}
	if st := node.Stats(); st.ReplicasSent != 1 {
		t.Fatalf("replicas sent = %d, want 1", st.ReplicasSent)
	}
}

func TestStartCloseSingleton(t *testing.T) {
	node, err := New(Options{Self: "http://127.0.0.1:1", Peers: []string{"http://127.0.0.1:1"}}, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	node.Start() // no-op for size 1
	node.Close()
}

func TestStartCloseLoops(t *testing.T) {
	n0, n1, mux0, mux1 := twoNodeHarness(t,
		Hooks{Load: func() int { return 0 }},
		Hooks{Load: func() int { return 0 }})
	registerGossipHandler(mux0, n0)
	registerGossipHandler(mux1, n1)
	n0.gossipEvery, n1.gossipEvery = 5*time.Millisecond, 5*time.Millisecond
	n0.Start()
	n1.Start()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if n0.Stats().GossipExchanges > 0 && n1.Stats().GossipExchanges > 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	n0.Close()
	n1.Close()
	if n0.Stats().GossipExchanges == 0 || n1.Stats().GossipExchanges == 0 {
		t.Fatal("gossip loops never exchanged")
	}
}

func TestRingCollisionDeterminism(t *testing.T) {
	// Degenerate ring inputs must not panic and stay deterministic.
	r := buildRing(nil, 64)
	if got := r.owners("k", 2); got != nil {
		t.Fatalf("owners on empty ring = %v, want nil", got)
	}
	r = buildRing([]string{"http://a:1"}, 0)
	if got := r.owners("k", 2); got != nil {
		t.Fatalf("owners with zero vnodes = %v, want nil", got)
	}
}
