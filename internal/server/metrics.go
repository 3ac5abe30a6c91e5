// Instrumentation and admission control: every registered route is wrapped
// with a per-endpoint latency/status recorder (internal/metrics), exposed
// in Prometheus text form at GET /metrics; the engine-work paths sit behind
// an inflight admission limiter that sheds excess load with 429 +
// Retry-After instead of queueing without bound. Cache hits bypass the
// limiter entirely — under overload the server sheds only work that would
// cost engine time, never work it can serve from memory.
package server

import (
	"bytes"
	"fmt"
	"net/http"
	"time"

	"ulba/internal/metrics"
)

// statusRecorder captures the response status for the per-endpoint
// counters. It forwards Flush so the NDJSON streaming endpoints keep their
// line-at-a-time delivery through the wrapper.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.ResponseWriter.Write(b)
}

func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps a handler with the endpoint's latency/status family.
// The observation lands after the handler returns, so a /metrics scrape
// never counts itself and a family's histogram count equals the requests
// the endpoint has finished — the invariant the soak harness pins.
func (s *Server) instrument(fam *metrics.Family, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w}
		h(rec, r)
		if rec.status == 0 {
			rec.status = http.StatusOK
		}
		fam.Observe(rec.status, time.Since(start))
	}
}

// admit claims an admission token for one unit of engine-bound work, or
// reports that the inflight bound is reached. The counter bounds admitted
// work exactly: a request is either counted and admitted or neither.
func (s *Server) admit() bool {
	n := s.inflight.Add(1)
	if s.maxInflight > 0 && n > int64(s.maxInflight) {
		s.inflight.Add(-1)
		return false
	}
	return true
}

func (s *Server) releaseAdmission() { s.inflight.Add(-1) }

// writeShed answers one shed request: 429, a Retry-After hint, and the
// shed counter — the only place the server produces a 429, so shed
// requests are exactly the 429s.
func (s *Server) writeShed(w http.ResponseWriter) {
	s.shed.Add(1)
	w.Header().Set("Retry-After", s.retryAfter)
	writeError(w, http.StatusTooManyRequests,
		fmt.Errorf("server over capacity; retry after %ss", s.retryAfter))
}

// AdmissionStats is the admission-control block of GET /v1/stats.
type AdmissionStats struct {
	// Inflight is the number of admission tokens currently held;
	// MaxInflight is the bound (0 = unlimited).
	Inflight    int64 `json:"inflight"`
	MaxInflight int   `json:"max_inflight"`
	// Shed counts requests answered 429 by this server (inflight and
	// job-queue sheds alike).
	Shed uint64 `json:"shed"`
	// RetryAfterSeconds is the hint sent with every 429.
	RetryAfterSeconds int `json:"retry_after_seconds"`
}

// handleMetrics renders the Prometheus text exposition page: per-endpoint
// request counters and latency histograms, then the service-level cache,
// job, store, admission, and cluster counters.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	var b bytes.Buffer
	s.metrics.WritePrometheus(&b, "ulba_http", "endpoint")

	st := s.Stats()
	metrics.WriteCounter(&b, "ulba_requests_total", st.Requests)
	metrics.WriteCounter(&b, "ulba_engine_runs_total", st.EngineRuns)

	metrics.WriteGauge(&b, "ulba_admission_inflight", float64(st.Admission.Inflight))
	metrics.WriteGauge(&b, "ulba_admission_max_inflight", float64(st.Admission.MaxInflight))
	metrics.WriteCounter(&b, "ulba_admission_shed_total", st.Admission.Shed)

	metrics.WriteCounter(&b, "ulba_cache_hits_total", st.Cache.Hits)
	metrics.WriteCounter(&b, "ulba_cache_misses_total", st.Cache.Misses)
	metrics.WriteCounter(&b, "ulba_cache_joins_total", st.Cache.Joins)
	metrics.WriteCounter(&b, "ulba_cache_store_hits_total", st.Cache.StoreHits)
	metrics.WriteCounter(&b, "ulba_cache_evictions_total", st.Cache.Evictions)
	metrics.WriteGauge(&b, "ulba_cache_entries", float64(st.Cache.Entries))
	metrics.WriteGauge(&b, "ulba_cache_bytes", float64(st.Cache.Bytes))

	metrics.WriteCounter(&b, "ulba_jobs_submitted_total", st.Jobs.Submitted)
	metrics.WriteCounter(&b, "ulba_jobs_shed_total", st.Jobs.Shed)
	metrics.WriteGauge(&b, "ulba_jobs_queue_limit", float64(st.Jobs.QueueLimit))
	metrics.WriteGauge(&b, "ulba_jobs_queued", float64(st.Jobs.Queued))
	metrics.WriteGauge(&b, "ulba_jobs_running", float64(st.Jobs.Running))

	if st.Store != nil {
		metrics.WriteGauge(&b, "ulba_store_entries", float64(st.Store.Entries))
		metrics.WriteGauge(&b, "ulba_store_bytes", float64(st.Store.Bytes))
	}

	metrics.WriteCounter(&b, "ulba_cluster_forwarded_in_total", st.Node.ForwardedIn)
	metrics.WriteCounter(&b, "ulba_cluster_replicas_received_total", st.Node.ReplicasReceived)
	if cs := st.Node.Cluster; cs != nil {
		metrics.WriteGauge(&b, "ulba_cluster_size", float64(cs.Size))
		metrics.WriteGauge(&b, "ulba_cluster_live", float64(cs.Live))
		metrics.WriteCounter(&b, "ulba_cluster_forwards_total", cs.Forwards)
		metrics.WriteCounter(&b, "ulba_cluster_forward_failures_total", cs.ForwardFailures)
		metrics.WriteCounter(&b, "ulba_cluster_forwards_shed_total", cs.ForwardsShed)
		metrics.WriteCounter(&b, "ulba_cluster_replicas_sent_total", cs.ReplicasSent)
		metrics.WriteCounter(&b, "ulba_cluster_replica_failures_total", cs.ReplicaFailures)
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write(b.Bytes())
}
