package metrics

import (
	"math"
	"math/rand"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestBucketLayout proves the log-linear mapping is a partition: every
// value lands in a bucket whose bounds actually contain it, and the upper
// bounds are strictly increasing so cumulative rendering is monotone.
func TestBucketLayout(t *testing.T) {
	for i := 1; i < numBuckets; i++ {
		if bucketUpperNs(i) <= bucketUpperNs(i-1) {
			t.Fatalf("bucket %d upper %d not above bucket %d upper %d",
				i, bucketUpperNs(i), i-1, bucketUpperNs(i-1))
		}
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20000; trial++ {
		v := uint64(rng.Int63()) >> uint(rng.Intn(40))
		i := bucketIndex(v)
		if v > bucketUpperNs(i) && i != numBuckets-1 {
			t.Fatalf("value %d above its bucket %d upper %d", v, i, bucketUpperNs(i))
		}
		if i > 0 && v <= bucketUpperNs(i-1) {
			t.Fatalf("value %d not above previous bucket %d upper %d", v, i-1, bucketUpperNs(i-1))
		}
	}
}

// TestQuantileRelativeError checks the advertised 6.25% bound: a quantile
// read off the snapshot's buckets the way a scrape consumer reads it (the
// upper bound of the bucket holding the order statistic) is an upper bound
// within one sub-bucket of the true value.
func TestQuantileRelativeError(t *testing.T) {
	var h Histogram
	values := make([]int64, 0, 10000)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 10000; i++ {
		// Log-uniform over ~1us..1s to exercise many octaves.
		v := int64(math.Exp(rng.Float64()*math.Log(1e9/1e3))) * 1e3
		values = append(values, v)
		h.Record(time.Duration(v))
	}
	s := h.Snapshot()
	if s.Count != 10000 {
		t.Fatalf("count = %d, want 10000", s.Count)
	}
	sort.Slice(values, func(i, j int) bool { return values[i] < values[j] })
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		rank := int(q*float64(len(values)) + 0.5)
		truth := float64(values[rank-1])
		var got float64
		seen := 0
		for _, b := range s.buckets {
			if seen += int(b.count); seen >= rank {
				got = float64(bucketUpperNs(b.index))
				break
			}
		}
		if got < truth {
			t.Errorf("q=%g: estimate %g below true value %g", q, got, truth)
		}
		if got > truth*(1+2.0/subCount) {
			t.Errorf("q=%g: estimate %g exceeds error bound around %g", q, got, truth)
		}
	}
}

// TestHistogramEdges checks the clamps through the snapshot's buckets:
// negative durations count as zero, and values past the covered range land
// in the top bucket.
func TestHistogramEdges(t *testing.T) {
	var h Histogram
	h.Record(-time.Second)   // clamps to 0
	h.Record(0)              //
	h.Record(24 * time.Hour) // clamps into the top bucket
	h.Record(time.Duration(1 << 62))
	s := h.Snapshot()
	want := []bucketCount{{index: 0, count: 2}, {index: numBuckets - 1, count: 2}}
	if s.Count != 4 || !reflect.DeepEqual(s.buckets, want) {
		t.Errorf("snapshot count %d buckets %+v, want 4 and %+v", s.Count, s.buckets, want)
	}
}

// TestFamilyCountsAgree pins the core soak-harness invariant: a family's
// histogram count always equals the sum of its status counters.
func TestFamilyCountsAgree(t *testing.T) {
	r := NewRegistry()
	f := r.Family("POST /v1/sweep")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				status := 200
				if i%7 == 0 {
					status = 429
				}
				f.Observe(status, time.Duration(i)*time.Microsecond)
			}
		}(g)
	}
	wg.Wait()
	var sum uint64
	for _, n := range f.StatusCounts() {
		sum += n
	}
	if sum != f.Count() || f.Count() != 8000 {
		t.Fatalf("status sum %d, histogram count %d, want 8000", sum, f.Count())
	}
	if f.StatusCount(429) == 0 || f.StatusCount(200) == 0 {
		t.Fatalf("expected both 200 and 429 counts, got %v", f.StatusCounts())
	}
	if f.Observe(1234, time.Millisecond); f.StatusCount(0) != 1 {
		t.Errorf("out-of-range status not folded into code 0")
	}
}

func TestRegistryOrderStable(t *testing.T) {
	r := NewRegistry()
	names := []string{"b", "a", "c", "a", "b"}
	for _, n := range names {
		r.Family(n)
	}
	var got []string
	for _, f := range r.Families() {
		got = append(got, f.Name())
	}
	if strings.Join(got, ",") != "b,a,c" {
		t.Fatalf("families = %v, want registration order b,a,c", got)
	}
	if r.Family("a") != r.Family("a") {
		t.Fatal("Family is not idempotent")
	}
}

// TestWritePrometheus parses the rendered page back and checks the
// exposition-format invariants the scrapers (and the soak suite's
// histogram cross-check) rely on: cumulative non-decreasing buckets ending
// in +Inf, and a _count line equal to the +Inf bucket and to the
// requests_total sum.
func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	f := r.Family("POST /v1/sweep")
	for i := 0; i < 500; i++ {
		status := 200
		if i%10 == 0 {
			status = 429
		}
		f.Observe(status, time.Duration(i)*time.Millisecond)
	}
	var b strings.Builder
	r.WritePrometheus(&b, "ulba_http", "endpoint")
	page := b.String()

	bucketRe := regexp.MustCompile(`^ulba_http_request_duration_seconds_bucket\{endpoint="POST /v1/sweep",le="([^"]+)"\} (\d+)$`)
	var lastCum uint64
	var lastLe float64 = -1
	var sawInf bool
	var infCount uint64
	for _, line := range strings.Split(page, "\n") {
		m := bucketRe.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		cum, _ := strconv.ParseUint(m[2], 10, 64)
		if cum < lastCum {
			t.Fatalf("cumulative bucket decreased: %s", line)
		}
		lastCum = cum
		if m[1] == "+Inf" {
			sawInf, infCount = true, cum
			continue
		}
		le, err := strconv.ParseFloat(m[1], 64)
		if err != nil || le <= lastLe {
			t.Fatalf("le bounds not increasing: %s", line)
		}
		lastLe = le
	}
	if !sawInf || infCount != 500 {
		t.Fatalf("+Inf bucket = %d (seen=%v), want 500", infCount, sawInf)
	}
	if !strings.Contains(page, `ulba_http_request_duration_seconds_count{endpoint="POST /v1/sweep"} 500`) {
		t.Fatalf("missing _count line in page:\n%s", page)
	}
	if !strings.Contains(page, `ulba_http_requests_total{endpoint="POST /v1/sweep",code="429"} 50`) {
		t.Fatalf("missing 429 counter in page:\n%s", page)
	}
	if !strings.Contains(page, `ulba_http_requests_total{endpoint="POST /v1/sweep",code="200"} 450`) {
		t.Fatalf("missing 200 counter in page:\n%s", page)
	}
}

func TestGaugeAndCounterHelpers(t *testing.T) {
	var b strings.Builder
	WriteGauge(&b, "ulba_inflight", 3)
	WriteCounter(&b, "ulba_shed_total", 42)
	out := b.String()
	for _, want := range []string{
		"# TYPE ulba_inflight gauge\nulba_inflight 3\n",
		"# TYPE ulba_shed_total counter\nulba_shed_total 42\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output %q missing %q", out, want)
		}
	}
}
