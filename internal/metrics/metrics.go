// Package metrics provides the lock-cheap instrumentation primitives the
// serving tier records on every request: monotonic counters, a log-linear
// latency histogram, and a registry of per-endpoint families rendered in
// Prometheus text exposition format.
//
// Everything on the hot path is a single atomic add — no locks, no
// allocation — so instrumentation stays honest under the very load it is
// meant to measure. Reads (rendering) take a point-in-time
// snapshot of the atomics; they are monotone but not transactionally
// consistent with concurrent writers, which is the standard contract for
// scrape-style metrics.
package metrics

import (
	"fmt"
	"io"
	"math/bits"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// The histogram is log-linear (HDR-style): values are bucketed by their
// power-of-two octave, and each octave is split into 2^subBits linear
// sub-buckets, bounding the relative error of a quantile read off the
// buckets by 2^-subBits (6.25%).
// Values are nanoseconds; the covered range is [0, 2^(subBits+octaves)),
// about nine minutes, beyond which values clamp into the top bucket.
const (
	subBits    = 4
	subCount   = 1 << subBits
	octaves    = 36
	numBuckets = subCount + octaves*subCount
)

// Histogram is a fixed-size log-linear latency histogram safe for
// concurrent use. The zero value is ready to record.
type Histogram struct {
	count atomic.Uint64
	sumNs atomic.Uint64
	// buckets[i] counts values whose nanosecond magnitude falls in
	// bucket i; see bucketIndex for the layout.
	buckets [numBuckets]atomic.Uint64
}

// bucketIndex maps a nanosecond value to its bucket. The first subCount
// buckets are exact (one per integer nanosecond); after that, bucket
// subCount + (exp-subBits)*subCount + sub covers the sub-th sixteenth of
// the octave [2^exp, 2^(exp+1)).
func bucketIndex(ns uint64) int {
	if ns < subCount {
		return int(ns)
	}
	exp := bits.Len64(ns) - 1
	if exp >= subBits+octaves {
		return numBuckets - 1
	}
	sub := (ns >> (uint(exp) - subBits)) & (subCount - 1)
	return subCount + (exp-subBits)*subCount + int(sub)
}

// bucketUpperNs returns the largest nanosecond value bucket i can hold.
func bucketUpperNs(i int) uint64 {
	if i < subCount {
		return uint64(i)
	}
	g := (i - subCount) / subCount
	sub := uint64((i - subCount) % subCount)
	exp := uint(subBits + g)
	lower := uint64(1)<<exp + sub<<(exp-subBits)
	return lower + uint64(1)<<(exp-subBits) - 1
}

// Record adds one observation. Negative durations clamp to zero rather
// than corrupting the counts.
func (h *Histogram) Record(d time.Duration) {
	ns := d.Nanoseconds()
	if ns < 0 {
		ns = 0
	}
	h.buckets[bucketIndex(uint64(ns))].Add(1)
	h.sumNs.Add(uint64(ns))
	h.count.Add(1)
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the total of all recorded observations.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sumNs.Load()) }

// Snapshot copies the histogram's atomics into an immutable value for
// rendering.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count: h.count.Load(),
		SumNs: h.sumNs.Load(),
	}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			s.buckets = append(s.buckets, bucketCount{index: i, count: n})
		}
	}
	return s
}

type bucketCount struct {
	index int
	count uint64
}

// HistogramSnapshot is a point-in-time copy of a Histogram.
type HistogramSnapshot struct {
	Count   uint64
	SumNs   uint64
	buckets []bucketCount // non-empty buckets, ascending index
}

// maxStatus bounds the per-family status-code table; HTTP status codes
// are three digits, so 600 atomic slots cover them all with zero locking.
const maxStatus = 600

// Family couples the latency histogram and status-code counters of one
// labeled series (an endpoint, in the server's use).
type Family struct {
	name     string
	latency  Histogram
	statuses [maxStatus]atomic.Uint64
}

// Name returns the label the family was registered under.
func (f *Family) Name() string { return f.name }

// Observe records one completed request: its status code and latency.
// Codes outside [0, 600) count under 0 so nothing is silently dropped.
func (f *Family) Observe(status int, d time.Duration) {
	f.latency.Record(d)
	if status < 0 || status >= maxStatus {
		status = 0
	}
	f.statuses[status].Add(1)
}

// Count returns the total observations across all status codes.
func (f *Family) Count() uint64 { return f.latency.Count() }

// StatusCounts returns the non-zero status-code counters, keyed by code.
func (f *Family) StatusCounts() map[int]uint64 {
	out := map[int]uint64{}
	for code := range f.statuses {
		if n := f.statuses[code].Load(); n > 0 {
			out[code] = n
		}
	}
	return out
}

// Registry holds the per-endpoint families. Family registration takes a
// lock; observation does not.
type Registry struct {
	mu       sync.Mutex
	names    []string // registration order, for deterministic rendering
	families map[string]*Family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*Family{}}
}

// Family returns the family registered under name, creating it on first
// use.
func (r *Registry) Family(name string) *Family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		return f
	}
	f := &Family{name: name}
	r.families[name] = f
	r.names = append(r.names, name)
	return f
}

// Families returns the registered families in registration order.
func (r *Registry) Families() []*Family {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Family, 0, len(r.names))
	for _, name := range r.names {
		out = append(out, r.families[name])
	}
	return out
}

// WritePrometheus renders every family as two Prometheus metrics under
// the given prefix: <prefix>_requests_total{<label>,code} counters and a
// <prefix>_request_duration_seconds{<label>} histogram. Only non-empty
// buckets are emitted (plus the mandatory +Inf), which is valid
// exposition format and keeps the page proportional to observed traffic.
func (r *Registry) WritePrometheus(w io.Writer, prefix, label string) {
	families := r.Families()

	fmt.Fprintf(w, "# HELP %s_requests_total Requests completed, by %s and status code.\n", prefix, label)
	fmt.Fprintf(w, "# TYPE %s_requests_total counter\n", prefix)
	for _, f := range families {
		counts := f.StatusCounts()
		codes := make([]int, 0, len(counts))
		for code := range counts {
			codes = append(codes, code)
		}
		sort.Ints(codes)
		for _, code := range codes {
			fmt.Fprintf(w, "%s_requests_total{%s=%q,code=\"%d\"} %d\n", prefix, label, f.name, code, counts[code])
		}
	}

	fmt.Fprintf(w, "# HELP %s_request_duration_seconds Request latency, by %s.\n", prefix, label)
	fmt.Fprintf(w, "# TYPE %s_request_duration_seconds histogram\n", prefix)
	for _, f := range families {
		s := f.latency.Snapshot()
		var cum uint64
		for _, b := range s.buckets {
			cum += b.count
			le := strconv.FormatFloat(float64(bucketUpperNs(b.index))/1e9, 'g', -1, 64)
			fmt.Fprintf(w, "%s_request_duration_seconds_bucket{%s=%q,le=%q} %d\n", prefix, label, f.name, le, cum)
		}
		fmt.Fprintf(w, "%s_request_duration_seconds_bucket{%s=%q,le=\"+Inf\"} %d\n", prefix, label, f.name, s.Count)
		fmt.Fprintf(w, "%s_request_duration_seconds_sum{%s=%q} %s\n", prefix, label, f.name,
			strconv.FormatFloat(float64(s.SumNs)/1e9, 'g', -1, 64))
		fmt.Fprintf(w, "%s_request_duration_seconds_count{%s=%q} %d\n", prefix, label, f.name, s.Count)
	}
}

// WriteGauge renders one unlabeled gauge line in exposition format.
func WriteGauge(w io.Writer, name string, value float64) {
	fmt.Fprintf(w, "# TYPE %s gauge\n%s %s\n", name, name,
		strconv.FormatFloat(value, 'g', -1, 64))
}

// WriteCounter renders one unlabeled counter line in exposition format.
func WriteCounter(w io.Writer, name string, value uint64) {
	fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", name, name, value)
}
