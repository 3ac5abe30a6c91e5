// The cluster surface: the /v1/cluster/* protocol endpoints and the
// request-forwarding leg that sends a client request to the owner replica
// of its content address. The routes are registered on every server —
// clustered or not — so the documentation drift tests pin them; on a
// standalone server the protocol POSTs answer 503 and GET /v1/cluster
// reports clustered:false.
//
// Division of labor with internal/cluster: the cluster package owns
// placement (ring), membership (gossip liveness/load), and the client half
// of the protocol (forward, replicate push, gossip exchange); this file
// owns the server half and the glue into the cache, store, and job
// manager — wired into the node through cluster.Hooks.
package server

import (
	"fmt"
	"io"
	"net/http"

	"ulba/internal/cluster"
)

// standaloneNodeID names an unclustered server in the X-Ulba-Node header
// and the stats node block: a cluster of one, canonically its own "n0".
const standaloneNodeID = "n0"

// nodeID returns this server's stable node name.
func (s *Server) nodeID() string {
	if s.node == nil {
		return standaloneNodeID
	}
	return s.node.ID()
}

// clusterHooks is the serving-layer half of the cluster contract: the
// gossiped load is the queued-job depth.
func (s *Server) clusterHooks() cluster.Hooks {
	return cluster.Hooks{Load: s.manager.QueuedLen}
}

// maybeForward relays a unary engine request to the owner of its content
// address and reports whether it wrote the response. It declines (returns
// false, caller serves locally) when the server is standalone, the request
// already forwarded once (loop guard), the local node is in the key's
// replica set, or the body is already cached here. When every live owner
// fails, the request is served locally too — any replica can compute any
// key, so owner failure degrades placement, never availability.
func (s *Server) maybeForward(w http.ResponseWriter, r *http.Request, endpoint, key string, raw []byte) bool {
	n := s.node
	if n == nil || r.Header.Get(cluster.HeaderForwarded) != "" || n.IsOwner(key) || s.cache.Has(key) {
		return false
	}
	for _, m := range n.Owners(key) {
		if m.Self || !n.Alive(m.Index) {
			continue
		}
		resp, err := n.Forward(r.Context(), m, endpoint, raw)
		if err != nil {
			continue // Forward marked the member dead; try the next owner
		}
		defer resp.Body.Close()
		for _, h := range []string{"Content-Type", "X-Ulba-Cache", cluster.HeaderNode} {
			if v := resp.Header.Get(h); v != "" {
				w.Header().Set(h, v)
			}
		}
		w.WriteHeader(resp.StatusCode)
		io.Copy(w, resp.Body)
		return true
	}
	return false
}

// admitReplica stores a peer-pushed body under its content address: into
// the LRU (so the key serves as a hit) and the store (so it survives a
// restart). Determinism makes the push idempotent and conflict-free — any
// two bodies for one key are identical. The push is terminal: a replica
// admission never re-replicates, so a push can never cascade.
func (s *Server) admitReplica(key string, body []byte) {
	s.cache.Admit(key, body)
	if s.store != nil {
		if err := s.store.Put(key, body); err == nil {
			s.store.ClearCheckpoint(key)
		}
	}
}

// isHexKey reports whether k is a well-formed content address (64 hex
// digits of SHA-256).
func isHexKey(k string) bool {
	if len(k) != 64 {
		return false
	}
	for i := 0; i < len(k); i++ {
		c := k[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// errNotClustered answers a cluster-protocol POST on a standalone server.
func (s *Server) errNotClustered(w http.ResponseWriter) bool {
	if s.node != nil {
		return false
	}
	writeError(w, http.StatusServiceUnavailable, fmt.Errorf("this server is not part of a cluster (start with -peers)"))
	return true
}

// clusterStatusResponse is the body of GET /v1/cluster.
type clusterStatusResponse struct {
	Clustered bool           `json:"clustered"`
	Node      string         `json:"node"`
	Cluster   *cluster.Stats `json:"cluster,omitempty"`
}

func (s *Server) handleClusterStatus(w http.ResponseWriter, _ *http.Request) {
	resp := clusterStatusResponse{Clustered: s.node != nil, Node: s.nodeID()}
	if s.node != nil {
		st := s.node.Stats()
		resp.Cluster = &st
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleClusterGossip(w http.ResponseWriter, r *http.Request) {
	if s.errNotClustered(w) {
		return
	}
	var ex cluster.GossipExchange
	if err := decode(r, &ex); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	entries := s.node.HandleGossip(ex.From, ex.Entries)
	writeJSON(w, http.StatusOK, cluster.GossipExchange{From: s.node.ID(), Entries: entries})
}

func (s *Server) handleClusterReplicate(w http.ResponseWriter, r *http.Request) {
	if s.errNotClustered(w) {
		return
	}
	key := r.Header.Get(cluster.HeaderKey)
	if !isHexKey(key) {
		writeError(w, http.StatusBadRequest, fmt.Errorf("missing or malformed %s header (want a 64-digit hex content address)", cluster.HeaderKey))
		return
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("reading replica body: %w", err))
		return
	}
	if len(body) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("empty replica body"))
		return
	}
	s.admitReplica(key, body)
	s.replicasReceived.Add(1)
	writeJSON(w, http.StatusOK, map[string]bool{"stored": true})
}

// NodeStats is the node block of GET /v1/stats: this node's identity, the
// server-side cluster counters, and (when clustered) the membership view.
type NodeStats struct {
	ID string `json:"id"`
	// ForwardedIn counts requests that arrived already forwarded by a peer.
	ForwardedIn uint64 `json:"forwarded_in"`
	// ReplicasReceived counts peer-pushed bodies admitted locally.
	ReplicasReceived uint64 `json:"replicas_received"`
	// Cluster is the membership/protocol view; nil on a standalone server.
	Cluster *cluster.Stats `json:"cluster,omitempty"`
}

// nodeStats builds the stats node block.
func (s *Server) nodeStats() *NodeStats {
	ns := &NodeStats{
		ID:               s.nodeID(),
		ForwardedIn:      s.forwardedIn.Load(),
		ReplicasReceived: s.replicasReceived.Load(),
	}
	if s.node != nil {
		st := s.node.Stats()
		ns.Cluster = &st
	}
	return ns
}
