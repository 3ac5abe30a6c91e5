// Package cluster is the membership and placement layer of a multi-replica
// ulba-serve deployment. Every replica runs the same engines over the same
// content-addressed key space (DESIGN.md's determinism contract), so the
// cluster's job is not correctness — any node can compute any request — but
// placement: a consistent-hash ring over the canonical request hashes
// decides which replicas own (cache, persist, replicate) each key, and
// liveness decides who is worth forwarding to.
//
// Membership is static — the peer list comes from the -peers flag and every
// node must be started with the same list — while liveness and per-node
// load are disseminated with the same doubling-ring gossip core
// (internal/gossip) the paper's simulated runtime uses, pointed at HTTP
// instead of the simulated MPI transport. Each gossip tick a node refreshes
// its own entry (value = queued-job depth, iteration = heartbeat sequence)
// and exchanges full databases with its doubling-ring partner; the
// deterministic merge makes every node converge on the same view regardless
// of exchange interleaving.
//
// The package owns the client half of the cluster protocol (forward,
// replicate, gossip exchange) and the gossip loop; the HTTP handlers
// serving /v1/cluster/* live in internal/server, which wires the two
// together through Hooks.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ulba/internal/gossip"
)

// Cluster protocol endpoints, registered by internal/server and dialed by
// this package's client half.
const (
	PathGossip    = "/v1/cluster/gossip"
	PathReplicate = "/v1/cluster/replicate"
	PathStatus    = "/v1/cluster"
)

// Cluster protocol headers.
const (
	// HeaderNode is the response header naming the node that served a
	// request — on a forwarded request, the owner that computed it, not
	// the node the client dialed.
	HeaderNode = "X-Ulba-Node"
	// HeaderFrom carries the sender's node ID on intra-cluster requests.
	HeaderFrom = "X-Ulba-From"
	// HeaderForwarded marks a request as already forwarded once; a node
	// receiving it always serves locally, so routing loops are impossible.
	HeaderForwarded = "X-Ulba-Forwarded"
	// HeaderKey carries the content address of a replicated body.
	HeaderKey = "X-Ulba-Key"
)

// GossipExchange is the body of POST /v1/cluster/gossip — one half of a
// push-pull exchange. The response body is the receiver's GossipExchange.
type GossipExchange struct {
	From    string         `json:"from"`
	Entries []gossip.Entry `json:"entries"`
}

// Options configures a Node. Self and Peers are required; everything else
// has serviceable defaults.
type Options struct {
	// Self is this node's base URL as peers reach it (e.g.
	// "http://10.0.0.1:8383"). It must appear in Peers.
	Self string
	// Peers lists every cluster member's base URL, self included. Order
	// does not matter — the list is canonicalized by sorting — but every
	// node must be started with the same set.
	Peers []string
	// Replication is how many distinct nodes own each key; <= 0 selects 2.
	// Values beyond the cluster size are clamped.
	Replication int
	// VirtualNodes is the points-per-member granularity of the hash ring;
	// <= 0 selects 64.
	VirtualNodes int
	// GossipInterval paces the heartbeat/load dissemination loop; <= 0
	// selects 250ms.
	GossipInterval time.Duration
	// Client overrides the intra-cluster HTTP client (tests); nil builds
	// one with a short dial timeout so dead peers fail fast.
	Client *http.Client
}

// Hooks is the serving layer's half of the contract: the gossip loop needs
// to know the local load.
type Hooks struct {
	// Load returns the local queued-job depth, gossiped as each member's
	// load on GET /v1/cluster.
	Load func() int
}

// Member is one cluster node in the canonical (sorted-URL) order.
type Member struct {
	// ID is the stable node name ("n0".."n{P-1}") in canonical order.
	ID string `json:"id"`
	// Index is the member's rank in canonical order — the gossip rank.
	Index int `json:"index"`
	// URL is the member's base URL.
	URL string `json:"url"`
	// Self marks the local node.
	Self bool `json:"self,omitempty"`
}

// Node is one replica's view of the cluster: the immutable member ring plus
// the gossiped liveness/load state and the gossip loop. Build it with
// New, start the loops with Start, and Close on shutdown. All methods are
// safe for concurrent use.
type Node struct {
	members     []Member
	self        int
	ring        ring
	replication int
	gossipEvery time.Duration
	client      *http.Client
	hooks       Hooks

	mu        sync.Mutex
	db        *gossip.DB
	alive     []bool
	heartbeat int
	step      int

	gossipExchanges, gossipFailures atomic.Uint64
	forwards, forwardFailures       atomic.Uint64
	forwardsShed                    atomic.Uint64
	replicasSent, replicaFailures   atomic.Uint64

	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// normalizeURL canonicalizes one peer URL: scheme+host only, no trailing
// slash, no path (the cluster protocol owns the full path space).
func normalizeURL(raw string) (string, error) {
	u, err := url.Parse(strings.TrimSuffix(strings.TrimSpace(raw), "/"))
	if err != nil {
		return "", fmt.Errorf("cluster: invalid peer URL %q: %w", raw, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return "", fmt.Errorf("cluster: peer URL %q must use http or https", raw)
	}
	if u.Host == "" {
		return "", fmt.Errorf("cluster: peer URL %q has no host", raw)
	}
	if u.Path != "" || u.RawQuery != "" || u.Fragment != "" {
		return "", fmt.Errorf("cluster: peer URL %q must be a bare scheme://host[:port]", raw)
	}
	return u.Scheme + "://" + u.Host, nil
}

// New validates the options into a Node. The member list is the sorted,
// deduplicated peer set; node IDs ("n0"..) index into it, so every replica
// given the same -peers flag derives the same IDs, the same gossip ranks,
// and the same ring.
func New(opts Options, hooks Hooks) (*Node, error) {
	if len(opts.Peers) == 0 {
		return nil, fmt.Errorf("cluster: peer list must not be empty")
	}
	self, err := normalizeURL(opts.Self)
	if err != nil {
		return nil, err
	}
	urls := make([]string, 0, len(opts.Peers))
	seen := map[string]bool{}
	for _, p := range opts.Peers {
		u, err := normalizeURL(p)
		if err != nil {
			return nil, err
		}
		if seen[u] {
			return nil, fmt.Errorf("cluster: duplicate peer %q", u)
		}
		seen[u] = true
		urls = append(urls, u)
	}
	sort.Strings(urls)
	selfIdx := sort.SearchStrings(urls, self)
	if selfIdx == len(urls) || urls[selfIdx] != self {
		return nil, fmt.Errorf("cluster: self %q is not in the peer list %v", self, urls)
	}

	replication := opts.Replication
	if replication <= 0 {
		replication = 2
	}
	if replication > len(urls) {
		replication = len(urls)
	}
	virtual := opts.VirtualNodes
	if virtual <= 0 {
		virtual = 64
	}
	gossipEvery := opts.GossipInterval
	if gossipEvery <= 0 {
		gossipEvery = 250 * time.Millisecond
	}
	client := opts.Client
	if client == nil {
		client = &http.Client{
			Transport: &http.Transport{
				DialContext:         (&net.Dialer{Timeout: 2 * time.Second}).DialContext,
				MaxIdleConnsPerHost: 4,
			},
		}
	}

	members := make([]Member, len(urls))
	alive := make([]bool, len(urls))
	for i, u := range urls {
		members[i] = Member{ID: fmt.Sprintf("n%d", i), Index: i, URL: u, Self: i == selfIdx}
		alive[i] = true // optimistic: a peer is presumed up until contact fails
	}
	n := &Node{
		members:     members,
		self:        selfIdx,
		ring:        buildRing(urls, virtual),
		replication: replication,
		gossipEvery: gossipEvery,
		client:      client,
		hooks:       hooks,
		db:          gossip.NewDB(selfIdx, len(urls)),
	}
	n.alive = alive
	n.mu.Lock()
	n.refreshSelfLocked()
	n.mu.Unlock()
	return n, nil
}

// ID returns the local node's stable name ("n3").
func (n *Node) ID() string { return n.members[n.self].ID }

// Self returns the local member.
func (n *Node) Self() Member { return n.members[n.self] }

// Members returns the canonical member list (a copy).
func (n *Node) Members() []Member {
	return append([]Member(nil), n.members...)
}

// Size returns the cluster size.
func (n *Node) Size() int { return len(n.members) }

// Replication returns the effective replication factor.
func (n *Node) Replication() int { return n.replication }

// Owners returns key's replica set in ring order: the primary first, then
// the failover replicas.
func (n *Node) Owners(key string) []Member {
	idxs := n.ring.owners(key, n.replication)
	out := make([]Member, len(idxs))
	for i, idx := range idxs {
		out[i] = n.members[idx]
	}
	return out
}

// IsOwner reports whether the local node is in key's replica set.
func (n *Node) IsOwner(key string) bool {
	for _, idx := range n.ring.owners(key, n.replication) {
		if idx == n.self {
			return true
		}
	}
	return false
}

// Alive reports the liveness belief about a member.
func (n *Node) Alive(idx int) bool {
	if idx < 0 || idx >= len(n.members) {
		return false
	}
	if idx == n.self {
		return true
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.alive[idx]
}

// Observe records direct evidence that the named node is up — the server
// calls it for every intra-cluster request it receives.
func (n *Node) Observe(id string) {
	if idx, ok := n.memberByID(id); ok {
		n.markAlive(idx)
	}
}

// MarkDead records a failed direct contact; the peer stays skipped until
// new evidence (an incoming request, a gossip advance, a successful retry)
// revives it. The gossip loop keeps dialing dead partners on its fixed
// rotation, so a restarted replica is re-discovered without manual action.
func (n *Node) MarkDead(idx int) {
	if idx < 0 || idx >= len(n.members) || idx == n.self {
		return
	}
	n.mu.Lock()
	n.alive[idx] = false
	n.mu.Unlock()
}

func (n *Node) markAlive(idx int) {
	if idx < 0 || idx >= len(n.members) || idx == n.self {
		return
	}
	n.mu.Lock()
	n.alive[idx] = true
	n.mu.Unlock()
}

func (n *Node) memberByID(id string) (int, bool) {
	for i, m := range n.members {
		if m.ID == id {
			return i, true
		}
	}
	return 0, false
}

// refreshSelfLocked re-stamps the local gossip entry with the current load.
// Callers hold n.mu.
func (n *Node) refreshSelfLocked() {
	load := 0.0
	if n.hooks.Load != nil {
		load = float64(n.hooks.Load())
	}
	n.heartbeat++
	n.db.Update(n.self, load, n.heartbeat)
}

// HandleGossip is the server half of a push-pull exchange: merge the
// sender's entries (tracking which ranks advanced, indirect evidence that
// those nodes are alive), refresh the local entry, and return the merged
// snapshot for the response.
func (n *Node) HandleGossip(from string, entries []gossip.Entry) []gossip.Entry {
	n.mu.Lock()
	before := make([]int, len(n.members))
	for i := range n.members {
		if e, ok := n.db.Get(i); ok {
			before[i] = e.Iter
		} else {
			before[i] = -1
		}
	}
	n.db.Merge(entries)
	n.refreshSelfLocked()
	advanced := make([]int, 0, len(n.members))
	for i := range n.members {
		if e, ok := n.db.Get(i); ok && i != n.self && e.Iter > before[i] {
			advanced = append(advanced, i)
		}
	}
	snap := n.db.Snapshot()
	n.mu.Unlock()
	for _, idx := range advanced {
		n.markAlive(idx)
	}
	n.Observe(from)
	return snap
}

// Start launches the gossip loop. A singleton cluster has nothing to
// disseminate, so Start is a no-op there.
func (n *Node) Start() {
	if len(n.members) == 1 || n.cancel != nil {
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	n.cancel = cancel
	n.wg.Add(1)
	go n.loop(ctx, n.gossipEvery, n.gossipTick)
}

// Close stops the gossip loop and waits for it and for every replica push
// still in flight.
func (n *Node) Close() {
	if n.cancel != nil {
		n.cancel()
		n.cancel = nil
	}
	n.wg.Wait()
}

func (n *Node) loop(ctx context.Context, every time.Duration, tick func(ctx context.Context)) {
	defer n.wg.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			tick(ctx)
		}
	}
}

// gossipTick refreshes the local entry and exchanges databases with the
// current doubling-ring partner. Dead partners are still dialed on their
// turn — the fixed rotation doubles as the failure-recovery probe.
func (n *Node) gossipTick(ctx context.Context) {
	n.mu.Lock()
	n.refreshSelfLocked()
	dst, _ := gossip.Partner(n.self, n.step, len(n.members))
	n.step++
	snap := n.db.Snapshot()
	n.mu.Unlock()
	if dst == n.self {
		return
	}
	reqBody, err := json.Marshal(GossipExchange{From: n.ID(), Entries: snap})
	if err != nil {
		return
	}
	callCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	resp, err := n.post(callCtx, n.members[dst], PathGossip, "application/json", nil, reqBody)
	if err != nil {
		n.gossipFailures.Add(1)
		if ctx.Err() == nil {
			n.MarkDead(dst)
		}
		return
	}
	defer resp.Body.Close()
	var theirs GossipExchange
	if resp.StatusCode != http.StatusOK || json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&theirs) != nil {
		n.gossipFailures.Add(1)
		return
	}
	n.gossipExchanges.Add(1)
	n.HandleGossip(theirs.From, theirs.Entries)
	n.markAlive(dst)
}

// post issues one intra-cluster POST with the sender identity attached.
func (n *Node) post(ctx context.Context, m Member, path, contentType string, extra http.Header, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, m.URL+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", contentType)
	req.Header.Set(HeaderFrom, n.ID())
	for k, vs := range extra {
		for _, v := range vs {
			req.Header.Set(k, v)
		}
	}
	return n.client.Do(req)
}

// Forward relays a client request body to m and returns the raw response.
// The HeaderForwarded mark makes the receiver serve locally, so a forward
// can never loop. A transport failure marks the member dead (unless the
// caller's context died first) so the next request skips it.
func (n *Node) Forward(ctx context.Context, m Member, endpoint string, body []byte) (*http.Response, error) {
	extra := http.Header{HeaderForwarded: []string{n.ID()}}
	resp, err := n.post(ctx, m, endpoint, "application/json", extra, body)
	if err != nil {
		n.forwardFailures.Add(1)
		if ctx.Err() == nil {
			n.MarkDead(m.Index)
		}
		return nil, err
	}
	n.forwards.Add(1)
	if resp.StatusCode == http.StatusTooManyRequests {
		// The owner admitted the relay but shed it: count separately, so
		// an overloaded owner is visible from the forwarding side too.
		n.forwardsShed.Add(1)
	}
	n.markAlive(m.Index)
	return resp, nil
}

// ReplicateAsync pushes a completed body to every other member of key's
// replica set, in the background. Replication is an availability
// optimization, never a correctness requirement — a lost push only costs a
// recomputation after a failure — so failures are counted, not retried.
func (n *Node) ReplicateAsync(key string, body []byte) {
	for _, m := range n.Owners(key) {
		if m.Index == n.self {
			continue
		}
		m := m
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
			defer cancel()
			n.replicateTo(ctx, m, key, body)
		}()
	}
}

// replicateTo pushes one (key, body) record to m.
func (n *Node) replicateTo(ctx context.Context, m Member, key string, body []byte) {
	extra := http.Header{HeaderKey: []string{key}}
	resp, err := n.post(ctx, m, PathReplicate, "application/json", extra, body)
	if err != nil {
		n.replicaFailures.Add(1)
		if ctx.Err() == nil {
			n.MarkDead(m.Index)
		}
		return
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		n.replicaFailures.Add(1)
		return
	}
	n.replicasSent.Add(1)
	n.markAlive(m.Index)
}

// PeerStatus is one member's row in the cluster status block.
type PeerStatus struct {
	ID    string `json:"id"`
	URL   string `json:"url"`
	Self  bool   `json:"self,omitempty"`
	Alive bool   `json:"alive"`
	// Load and Heartbeat are the member's last gossiped queue depth and
	// heartbeat sequence (zero until first heard from).
	Load      float64 `json:"load"`
	Heartbeat int     `json:"heartbeat"`
}

// Stats is the cluster block of GET /v1/stats and GET /v1/cluster.
type Stats struct {
	Size        int          `json:"size"`
	Replication int          `json:"replication"`
	Live        int          `json:"live"`
	Peers       []PeerStatus `json:"peers"`

	GossipExchanges uint64 `json:"gossip_exchanges"`
	GossipFailures  uint64 `json:"gossip_failures"`
	Forwards        uint64 `json:"forwards"`
	ForwardFailures uint64 `json:"forward_failures"`
	// ForwardsShed counts forwards the owner answered with 429 — relayed
	// admission-control rejections, as opposed to transport failures.
	ForwardsShed    uint64 `json:"forwards_shed"`
	ReplicasSent    uint64 `json:"replicas_sent"`
	ReplicaFailures uint64 `json:"replica_failures"`
}

// Stats snapshots the membership view and protocol counters.
func (n *Node) Stats() Stats {
	st := Stats{
		Size:            len(n.members),
		Replication:     n.replication,
		Peers:           make([]PeerStatus, len(n.members)),
		GossipExchanges: n.gossipExchanges.Load(),
		GossipFailures:  n.gossipFailures.Load(),
		Forwards:        n.forwards.Load(),
		ForwardFailures: n.forwardFailures.Load(),
		ForwardsShed:    n.forwardsShed.Load(),
		ReplicasSent:    n.replicasSent.Load(),
		ReplicaFailures: n.replicaFailures.Load(),
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	for i, m := range n.members {
		ps := PeerStatus{ID: m.ID, URL: m.URL, Self: m.Self, Alive: n.alive[i] || m.Self}
		if e, ok := n.db.Get(i); ok {
			ps.Load, ps.Heartbeat = e.Value, e.Iter
		}
		st.Peers[i] = ps
		if ps.Alive {
			st.Live++
		}
	}
	return st
}
