// Package server is the HTTP/JSON service layer over the registered engines
// of internal/engine (experiment, sweep, runtime, runtime-sweep, assess —
// all built on package ulba). The layer is engine-generic: one handler
// serves every engine's sync endpoint, one job runner serves every engine's
// async path, and the cluster hooks route by content address alone, so a
// new engine costs a registration, not a subsystem. The determinism
// contract (every result is a pure function of its request) makes the
// engines ideal behind a content-addressed result cache: the server
// canonicalizes each request, hashes it, and serves repeated or concurrent
// identical requests from one computation. Batch engines accept instance or
// scenario sets and can stream NDJSON results as they complete.
//
// cmd/ulba-serve wraps this package into a deployable binary; API.md is the
// HTTP reference, and the "Service layer" and "Generic engine core"
// sections of DESIGN.md document the cache-key, single-flight, and
// streaming contracts.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"ulba"
	"ulba/internal/cluster"
	"ulba/internal/engine"
	"ulba/internal/jobs"
	"ulba/internal/metrics"
)

// Config parameterizes a Server. The zero value is usable: a 64 MiB cache,
// GOMAXPROCS concurrent engine requests, 32 MiB request bodies, GOMAXPROCS
// job workers, memory-only results, and 1 h job retention.
type Config struct {
	// CacheBytes is the result cache's byte budget. Negative disables
	// storage (single-flight deduplication still applies); 0 selects the
	// 64 MiB default.
	CacheBytes int64
	// MaxConcurrent bounds how many requests may run engine work at
	// once — the server-level counterpart of WithWorkers, with the same
	// convention: <= 0 selects GOMAXPROCS. Requests beyond the bound
	// queue (respecting their context) rather than erroring.
	MaxConcurrent int
	// MaxBodyBytes bounds a request body; <= 0 selects 32 MiB.
	MaxBodyBytes int64

	// MaxInflight bounds how many engine-bound requests may be admitted at
	// once — the load-shedding layer above MaxConcurrent: requests beyond
	// MaxConcurrent queue for an engine slot, requests beyond MaxInflight
	// are answered 429 + Retry-After immediately. Cache hits bypass the
	// bound (they cost no engine time). 0 selects 64x the resolved
	// MaxConcurrent; negative disables shedding.
	MaxInflight int
	// MaxQueuedJobs bounds the job queue depth: submissions beyond it are
	// answered 429 + Retry-After, except submissions whose result is
	// already cached (those jump the queue instead). 0 leaves the queue
	// unbounded.
	MaxQueuedJobs int
	// RetryAfter is the hint sent with every 429, rounded up to whole
	// seconds; 0 selects 1s.
	RetryAfter time.Duration

	// Store, when non-nil, persists rendered response bodies and job
	// checkpoints on disk (cmd/ulba-serve: -store-dir). At startup the
	// store is replayed into the result cache, so identical requests from
	// before a restart are served without recomputation; bodies the LRU
	// evicts are re-read from disk on demand. Nil keeps results in memory
	// only. The server takes ownership: Close closes the store.
	Store *jobs.Store
	// JobWorkers bounds how many jobs run concurrently (<= 0 selects
	// GOMAXPROCS). Job engine work additionally respects MaxConcurrent,
	// like every synchronous request.
	JobWorkers int
	// JobRetention is how long finished jobs stay listable; 0 selects the
	// 1 h default, negative keeps them forever.
	JobRetention time.Duration

	// Cluster, when non-nil, joins this server to a multi-replica cluster
	// (cmd/ulba-serve: -peers/-self/-replication): requests are forwarded
	// to the owner replicas of their content address, and completed bodies
	// are replicated across each key's replica set. Nil serves standalone;
	// the /v1/cluster/* routes are registered either way.
	Cluster *cluster.Options
}

// Server routes the service endpoints and owns the result cache, the
// persistent store, the job queue, and the engine-concurrency limiter.
// Build it with New; it is safe for concurrent use and is typically
// mounted via Handler. Call Close on shutdown to drain jobs and close the
// store.
type Server struct {
	cache   *Cache
	store   *jobs.Store
	manager *jobs.Manager
	node    *cluster.Node // nil when standalone
	sem     chan struct{}
	mux     *http.ServeMux
	routes  []string
	maxBody int64

	metrics     *metrics.Registry
	maxInflight int    // 0 = unlimited
	retryAfter  string // whole seconds, the Retry-After header value
	inflight    atomic.Int64
	shed        atomic.Uint64

	requests   atomic.Uint64
	engineRuns atomic.Uint64
	seeded     int

	forwardedIn      atomic.Uint64
	replicasReceived atomic.Uint64
}

// New builds a Server from cfg (see Config for the zero-value defaults).
// The only construction failure is an invalid cluster configuration.
func New(cfg Config) (*Server, error) {
	budget := cfg.CacheBytes
	switch {
	case budget == 0:
		budget = 64 << 20
	case budget < 0:
		budget = 0
	}
	workers := cfg.MaxConcurrent
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	maxBody := cfg.MaxBodyBytes
	if maxBody <= 0 {
		maxBody = 32 << 20
	}
	retention := cfg.JobRetention
	switch {
	case retention == 0:
		retention = time.Hour
	case retention < 0:
		retention = 0
	}
	maxInflight := cfg.MaxInflight
	switch {
	case maxInflight == 0:
		maxInflight = 64 * workers
	case maxInflight < 0:
		maxInflight = 0
	}
	retryAfter := cfg.RetryAfter
	if retryAfter <= 0 {
		retryAfter = time.Second
	}
	retrySecs := int((retryAfter + time.Second - 1) / time.Second)
	s := &Server{
		cache:       NewCache(budget),
		store:       cfg.Store,
		manager:     jobs.NewManager(cfg.JobWorkers, retention),
		sem:         make(chan struct{}, workers),
		mux:         http.NewServeMux(),
		maxBody:     maxBody,
		metrics:     metrics.NewRegistry(),
		maxInflight: maxInflight,
		retryAfter:  fmt.Sprintf("%d", retrySecs),
	}
	if cfg.MaxQueuedJobs > 0 {
		s.manager.SetQueueLimit(cfg.MaxQueuedJobs)
	}
	if s.store != nil {
		// Disk is the second cache level: warm-load persisted results
		// until the cache budget is full (anything beyond it stays
		// reachable through the fallback), and fall back to a disk read
		// when a key misses the LRU later.
		s.store.Range(func(key string, body []byte) bool {
			if !s.cache.Seed(key, body) {
				return false
			}
			s.seeded++
			return true
		})
		s.cache.fallback = func(key string) ([]byte, bool) {
			body, ok, err := s.store.Get(key)
			return body, ok && err == nil
		}
	}
	if cfg.Cluster != nil {
		node, err := cluster.New(*cfg.Cluster, s.clusterHooks())
		if err != nil {
			s.manager.Close(context.Background())
			return nil, err
		}
		s.node = node
	}
	s.route("GET /metrics", s.handleMetrics)
	s.route("GET /v1/registries", s.handleRegistries)
	s.route("GET /v1/stats", s.handleStats)
	// Every registered engine mounts the same generic handler; the
	// registration order is the mount order.
	for _, d := range engine.Engines() {
		s.route("POST "+d.Endpoint, s.handleEngine(d))
	}
	s.route("POST /v1/jobs", s.handleJobSubmit)
	s.route("GET /v1/jobs", s.handleJobList)
	s.route("GET /v1/jobs/{id}", s.handleJobStatus)
	s.route("GET /v1/jobs/{id}/result", s.handleJobResult)
	s.route("GET /v1/jobs/{id}/stream", s.handleJobStream)
	s.route("DELETE /v1/jobs/{id}", s.handleJobCancel)
	s.route("GET /v1/cluster", s.handleClusterStatus)
	s.route("POST /v1/cluster/gossip", s.handleClusterGossip)
	s.route("POST /v1/cluster/replicate", s.handleClusterReplicate)
	if s.node != nil {
		s.node.Start()
	}
	return s, nil
}

// route registers a handler and records its pattern, so Routes stays the
// single source of truth the documentation drift test pins against. Every
// handler is wrapped with the endpoint's latency/status instrumentation,
// labeled by the pattern itself — sync, jobs, and cluster routes alike.
func (s *Server) route(pattern string, h http.HandlerFunc) {
	s.mux.HandleFunc(pattern, s.instrument(s.metrics.Family(pattern), h))
	s.routes = append(s.routes, pattern)
}

// Routes lists every registered endpoint pattern ("METHOD /path") in
// registration order. The docs drift test compares this against the
// endpoint tables of DESIGN.md and API.md.
func (s *Server) Routes() []string {
	return append([]string(nil), s.routes...)
}

// Close shuts the asynchronous machinery down: no new jobs, queued jobs
// cancelled, running jobs given until ctx expires before their contexts are
// cancelled (their checkpoints persist either way), then the cluster node
// stops, then the store is closed. The HTTP handler itself is stateless —
// shut the http.Server down first, then Close.
func (s *Server) Close(ctx context.Context) error {
	err := s.manager.Close(ctx)
	if s.node != nil {
		// Only after the drain: a job finishing during it persists its body
		// and starts replica pushes, which the node's Close waits out.
		s.node.Close()
	}
	if s.store != nil {
		if cerr := s.store.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Handler returns the root handler serving every endpoint.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(1)
		// Every response names its serving node; a relayed response
		// overwrites this with the owner's name in maybeForward.
		w.Header().Set(cluster.HeaderNode, s.nodeID())
		if s.node != nil {
			if from := r.Header.Get(cluster.HeaderFrom); from != "" {
				s.node.Observe(from)
			}
			if r.Header.Get(cluster.HeaderForwarded) != "" {
				s.forwardedIn.Add(1)
			}
		}
		r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
		s.mux.ServeHTTP(w, r)
	})
}

// Stats is the service-level counter snapshot behind GET /v1/stats.
type Stats struct {
	Requests   uint64         `json:"requests"`
	EngineRuns uint64         `json:"engine_runs"`
	Admission  AdmissionStats `json:"admission"`
	Cache      CacheStats     `json:"cache"`
	Jobs       jobs.Stats     `json:"jobs"`
	Store      *StoreStats    `json:"store,omitempty"`
	Node       *NodeStats     `json:"node"`
}

// StoreStats describes the persistent result store, when one is configured.
type StoreStats struct {
	// Entries and Bytes size the on-disk result log.
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
	// Seeded is how many stored bodies were replayed into the cache at
	// startup — the restart-survival half of the persistence contract.
	Seeded int `json:"seeded"`
}

// Stats snapshots the request, engine-run, cache, job, and store counters.
// EngineRuns counts actual engine executions: the gap between it and
// Requests is the work the cache, the single-flight deduplication, and the
// persistent store saved.
func (s *Server) Stats() Stats {
	retrySecs, _ := strconv.Atoi(s.retryAfter)
	st := Stats{
		Requests:   s.requests.Load(),
		EngineRuns: s.engineRuns.Load(),
		Admission: AdmissionStats{
			Inflight:          s.inflight.Load(),
			MaxInflight:       s.maxInflight,
			Shed:              s.shed.Load(),
			RetryAfterSeconds: retrySecs,
		},
		Cache: s.cache.Stats(),
		Jobs:  s.manager.Stats(),
	}
	if s.store != nil {
		st.Store = &StoreStats{Entries: s.store.Len(), Bytes: s.store.Bytes(), Seeded: s.seeded}
	}
	st.Node = s.nodeStats()
	return st
}

// acquire claims an engine slot, or gives up when the request dies first.
func (s *Server) acquire(ctx context.Context) error {
	select {
	case s.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *Server) release() { <-s.sem }

// errorResponse is the body of every non-2xx response.
type errorResponse struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorResponse{Error: err.Error()})
}

// writeEngineError maps an engine failure: a dead request context is the
// client's doing (or the server draining), everything else is a 500.
func writeEngineError(w http.ResponseWriter, err error) {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	writeError(w, http.StatusInternalServerError, err)
}

// decode strictly parses a request body: unknown fields and trailing data
// are errors, so typos surface as 400s instead of silently evaluating a
// default.
func decode(r *http.Request, into any) error {
	return decodeStrict(r.Body, into)
}

// readBody slurps a request body (already bounded by MaxBytesReader) so the
// engine handlers can both parse it and relay the identical bytes when the
// request forwards to its owner replica.
func readBody(r *http.Request) ([]byte, error) {
	raw, err := io.ReadAll(r.Body)
	if err != nil {
		return nil, fmt.Errorf("invalid request body: %w", err)
	}
	return raw, nil
}

// decodeStrict is decode over any reader — the same rules applied to the
// nested request object of a job submission and the cluster protocol
// bodies. Engine request decoding shares the rule through
// engine.DecodeStrict.
func decodeStrict(rd io.Reader, into any) error {
	return engine.DecodeStrict(rd, into)
}

// render runs one rendering function under an engine slot and persists the
// body it produces. It is the compute leg shared by every cached path —
// synchronous endpoints and jobs alike — so a body always reaches the store
// no matter which surface computed it.
func (s *Server) render(ctx context.Context, key string, render func(ctx context.Context) ([]byte, error)) ([]byte, error) {
	if err := s.acquire(ctx); err != nil {
		return nil, err
	}
	defer s.release()
	s.engineRuns.Add(1)
	body, err := render(ctx)
	if err != nil {
		return nil, err
	}
	s.persist(key, body)
	return body, nil
}

// persist best-effort writes a rendered body to the store and retires the
// key's checkpoint: once the final body is durable there is no partial
// state left to protect, whichever surface — synchronous endpoint or job —
// computed it. Persistence is an optimization, never a correctness
// requirement — a failed write only costs a future recomputation — so
// errors do not fail the request.
func (s *Server) persist(key string, body []byte) {
	if s.node != nil {
		// Push the freshly computed body to the key's other owners. The
		// push lands through admitReplica, which never re-replicates, so
		// replication cannot cascade.
		s.node.ReplicateAsync(key, body)
	}
	if s.store == nil {
		return
	}
	// Clear the checkpoint only once the body actually is durable: if the
	// Put failed (disk full), the partial state is still the only thing a
	// post-crash resubmission can resume from.
	if err := s.store.Put(key, body); err == nil {
		s.store.ClearCheckpoint(key)
	}
}

// marshalBody renders a response value into its final wire form. The
// trailing newline is part of the body, so hits, joins, store reads, and
// job results all serve bytes identical to the original miss.
func marshalBody(resp any) ([]byte, error) {
	buf, err := json.Marshal(resp)
	if err != nil {
		return nil, err
	}
	return append(buf, '\n'), nil
}

// computeBody is cache.Do's compute leg for a unary request: engine slot,
// compute, marshal, persist.
func (s *Server) computeBody(ctx context.Context, key string, compute func(ctx context.Context) (any, error)) ([]byte, error) {
	return s.render(ctx, key, func(ctx context.Context) ([]byte, error) {
		resp, err := compute(ctx)
		if err != nil {
			return nil, err
		}
		return marshalBody(resp)
	})
}

// handleEngine is the one synchronous handler every registered engine
// mounts: read, decode (strict parse + validation, 400 on failure), then
// either the cached unary path or — for a batch engine asked to stream —
// the NDJSON path. No engine-specific code lives here; the engine's
// Descriptor carries everything the serving layer needs.
func (s *Server) handleEngine(d *engine.Descriptor) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		raw, err := readBody(r)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		inst, err := d.Decode(raw)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		if inst.Stream() {
			b := inst.NewBatch()
			// Materialization failures (server-side sampling) are server
			// bugs, not client errors: 500, before any stream bytes.
			if err := b.Prepare(); err != nil {
				writeError(w, http.StatusInternalServerError, err)
				return
			}
			// Streams always compute (they bypass the cache), so they
			// always need an admission token, held for the whole stream.
			if !s.admit() {
				s.writeShed(w)
				return
			}
			defer s.releaseAdmission()
			s.streamBatch(w, r, b)
			return
		}
		s.serveCached(w, r, raw, inst)
	}
}

// serveCached answers one unary engine request through the cache: compute
// runs at most once per content address across concurrent and repeated
// requests, under an engine slot. The cached body is fully rendered, so
// hits, joins, and store reads are byte-identical to fresh misses. In a
// cluster, a request whose content address this node does not own is
// relayed to an owner replica first (raw is the exact client body);
// determinism makes the relayed bytes identical to a local computation.
func (s *Server) serveCached(w http.ResponseWriter, r *http.Request, raw []byte, inst *engine.Instance) {
	key, err := inst.Key()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	// Hot-key fast path: a body resident in the LRU serves without an
	// admission token, so overload sheds only work that would cost engine
	// time — a saturated server keeps answering its hot keys.
	if body, ok := s.cache.Get(key); ok {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Ulba-Cache", string(Hit))
		w.Write(body)
		return
	}
	if s.maybeForward(w, r, inst.Endpoint(), key, raw) {
		return
	}
	if !s.admit() {
		s.writeShed(w)
		return
	}
	defer s.releaseAdmission()
	ctx := r.Context()
	body, outcome, err := s.cache.Do(ctx, key, func() ([]byte, error) {
		return s.computeBody(ctx, key, inst.Run)
	})
	if err != nil {
		writeEngineError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Ulba-Cache", string(outcome))
	w.Write(body)
}

// registriesResponse lists the registered policy and scenario names — the
// exact vocabulary the request specs accept — plus the engine registry
// itself: the job-submission types, which are also the sync endpoints'
// path suffixes.
type registriesResponse struct {
	Planners  []string `json:"planners"`
	Triggers  []string `json:"triggers"`
	Workloads []string `json:"workloads"`
	Engines   []string `json:"engines"`
}

func (s *Server) handleRegistries(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(registriesResponse{
		Planners:  ulba.PlannerNames(),
		Triggers:  ulba.TriggerNames(),
		Workloads: ulba.WorkloadNames(),
		Engines:   engine.TypeNames(),
	})
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.Stats())
}
