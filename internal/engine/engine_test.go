package engine

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
)

// TestRegistryOrder pins the registry's shape: the five engines in serving
// order, each resolvable by type, with distinct endpoints.
func TestRegistryOrder(t *testing.T) {
	want := []string{"experiment", "sweep", "runtime", "runtime-sweep", "assess"}
	got := TypeNames()
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("TypeNames() = %v, want %v", got, want)
	}
	endpoints := map[string]bool{}
	for _, d := range Engines() {
		if byType, ok := ByType(d.Type); !ok || byType != d {
			t.Errorf("ByType(%q) does not resolve to the listed descriptor", d.Type)
		}
		if endpoints[d.Endpoint] {
			t.Errorf("endpoint %q registered twice", d.Endpoint)
		}
		endpoints[d.Endpoint] = true
	}
	if _, ok := ByType("no-such-engine"); ok {
		t.Error(`ByType("no-such-engine") resolved`)
	}
}

// TestTypeList pins the human-readable type enumeration used in the
// unknown-job-type error.
func TestTypeList(t *testing.T) {
	list := TypeList()
	if !strings.HasPrefix(list, `"experiment", `) || !strings.Contains(list, `or "assess"`) {
		t.Fatalf("TypeList() = %s", list)
	}
}

// TestDecodeStrict pins the strict-decoder 400 surface: unknown fields and
// trailing data are rejected with messages naming the problem.
func TestDecodeStrict(t *testing.T) {
	var v struct {
		A int `json:"a"`
	}
	if err := DecodeStrict(strings.NewReader(`{"a":1}`), &v); err != nil || v.A != 1 {
		t.Fatalf("valid body: %v", err)
	}
	if err := DecodeStrict(strings.NewReader(`{"b":1}`), &v); err == nil || !strings.Contains(err.Error(), "invalid request body") {
		t.Fatalf("unknown field: %v", err)
	}
	if err := DecodeStrict(strings.NewReader(`{"a":1} {"a":2}`), &v); err == nil || !strings.Contains(err.Error(), "trailing data") {
		t.Fatalf("trailing data: %v", err)
	}
}

// TestKeyDeterminism pins the content address: stable across calls,
// sensitive to both the endpoint and the canonical value.
func TestKeyDeterminism(t *testing.T) {
	k1, err := Key("/v1/x", map[string]int{"a": 1})
	if err != nil {
		t.Fatal(err)
	}
	k2, _ := Key("/v1/x", map[string]int{"a": 1})
	if k1 != k2 {
		t.Fatalf("key not stable: %s != %s", k1, k2)
	}
	if k3, _ := Key("/v1/y", map[string]int{"a": 1}); k3 == k1 {
		t.Fatal("key ignores the endpoint")
	}
	if k4, _ := Key("/v1/x", map[string]int{"a": 2}); k4 == k1 {
		t.Fatal("key ignores the canonical value")
	}
	if len(k1) != 64 {
		t.Fatalf("key %q is not a SHA-256 hex digest", k1)
	}
}

// decodeBatch decodes a batch engine request and returns its instance and
// a fresh batch.
func decodeBatch(t *testing.T, typ, raw string) (*Instance, *Batch) {
	t.Helper()
	d, ok := ByType(typ)
	if !ok {
		t.Fatalf("engine %q not registered", typ)
	}
	inst, err := d.Decode([]byte(raw))
	if err != nil {
		t.Fatal(err)
	}
	b := inst.NewBatch()
	if b == nil {
		t.Fatalf("engine %q has no batch surface", typ)
	}
	return inst, b
}

// TestBatchLifecycle drives the erased batch machinery end to end on the
// sweep engine: open a partial index set, restore the produced lines into a
// second batch, complete it, and check the assembled body equals the unary
// Run result byte for byte.
func TestBatchLifecycle(t *testing.T) {
	const raw = `{"sample":{"seed":11,"n":6},"alpha_grid":7}`
	inst, b := decodeBatch(t, "sweep", raw)
	if err := b.Prepare(); err != nil {
		t.Fatal(err)
	}
	if b.N != 6 || inst.Units() != 6 {
		t.Fatalf("batch size = %d, units = %d, want 6", b.N, inst.Units())
	}

	// First pass: compute indices {1, 3, 5} and render their lines.
	ctx := context.Background()
	var lines [][]byte
	for u := range b.Open(ctx, []int{1, 3, 5}) {
		if u.Err != nil {
			t.Fatalf("unit %d: %v", u.Index, u.Err)
		}
		buf, err := json.Marshal(b.Line(u.Index))
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, buf)
	}
	if len(lines) != 3 {
		t.Fatalf("delivered %d units, want 3", len(lines))
	}

	// Second pass: a fresh batch restores those lines (garbage and
	// out-of-range lines are refused), computes the rest, and its body
	// equals the unary result.
	inst2, b2 := decodeBatch(t, "sweep", raw)
	if err := b2.Prepare(); err != nil {
		t.Fatal(err)
	}
	for _, line := range lines {
		idx, ok := b2.Restore(line)
		if !ok {
			t.Fatalf("line %s did not restore", line)
		}
		if idx != 1 && idx != 3 && idx != 5 {
			t.Fatalf("restored index %d, want one of 1/3/5", idx)
		}
	}
	if _, ok := b2.Restore([]byte(`not json`)); ok {
		t.Fatal("garbage line restored")
	}
	if idx, ok := b2.Restore([]byte(`{"index":99,"comparison":{}}`)); ok {
		t.Fatalf("out-of-range index %d restored", idx)
	}
	for u := range b2.Open(ctx, []int{0, 2, 4}) {
		if u.Err != nil {
			t.Fatalf("unit %d: %v", u.Index, u.Err)
		}
	}
	body, err := b2.Body()
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	unary, err := inst2.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(unary)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("restored+completed body differs from unary Run:\n%s\n%s", got, want)
	}
	_ = inst
}

// TestBatchCancellation pins that a cancelled context closes the unit
// channel without requiring the consumer to drain every unit.
func TestBatchCancellation(t *testing.T) {
	_, b := decodeBatch(t, "runtime-sweep", `{"sample":{"seed":2,"n":8}}`)
	if err := b.Prepare(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	ch := b.Open(ctx, []int{0, 1, 2, 3, 4, 5, 6, 7})
	<-ch // first unit delivered
	cancel()
	for range ch { // the relay must close the channel promptly
	}
}

// TestUnaryInstance pins the unary side of the erasure: no batch surface,
// and Run produces the response directly.
func TestUnaryInstance(t *testing.T) {
	d, _ := ByType("runtime")
	inst, err := d.Decode([]byte(`{"p":4,"iterations":20,"workload":{"name":"linear","seed":1}}`))
	if err != nil {
		t.Fatal(err)
	}
	if inst.NewBatch() != nil {
		t.Fatal("unary engine produced a batch")
	}
	if inst.Units() != 1 {
		t.Fatalf("units = %d, want 1", inst.Units())
	}
	resp, err := inst.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := resp.(RuntimeResponse); !ok {
		t.Fatalf("Run returned %T, want RuntimeResponse", resp)
	}
}

// TestAssessEngineGrid pins the fifth engine's cell grid: criteria-major
// ordering over the scenario columns, with the memoized build shared
// between Run and the batch surface.
func TestAssessEngineGrid(t *testing.T) {
	const raw = `{"criteria":[{"trigger":{"name":"degradation"}},{"trigger":{"name":"never"}}],"scenarios":[{"p":4,"iterations":20,"workload":{"name":"linear","seed":1}},{"p":4,"iterations":20,"workload":{"name":"bursty","seed":2}}]}`
	d, _ := ByType("assess")
	inst, err := d.Decode([]byte(raw))
	if err != nil {
		t.Fatal(err)
	}
	if inst.Units() != 4 {
		t.Fatalf("units = %d, want 2 criteria x 2 scenarios = 4", inst.Units())
	}
	resp, err := inst.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ar, ok := resp.(AssessResponse)
	if !ok {
		t.Fatalf("Run returned %T", resp)
	}
	if len(ar.Results) != 4 || len(ar.Summary.Criteria) != 2 || ar.Summary.Scenarios != 2 {
		t.Fatalf("summary = %+v over %d results", ar.Summary, len(ar.Results))
	}
	// The never trigger does no balancing; the reactive criterion must
	// rank at least as high, so it is the grid's best.
	if ar.Summary.Best != "degradation" {
		t.Fatalf("best = %q, want degradation over never", ar.Summary.Best)
	}
	for _, c := range ar.Summary.Criteria {
		if c.Regret < 0 {
			t.Fatalf("criterion %q has negative regret %f", c.Name, c.Regret)
		}
	}
}

// TestAssessValidation pins the assess 400 surface.
func TestAssessValidation(t *testing.T) {
	d, _ := ByType("assess")
	cases := []struct {
		name, raw, want string
	}{
		{"no scenarios", `{"criteria":[{"trigger":{"name":"menon"}}]}`, "needs scenarios, sample, or both"},
		{"both policies", `{"criteria":[{"trigger":{"name":"menon"},"planner":{"name":"greedy"}}],"sample":{"seed":1,"n":1}}`, "exactly one of trigger or planner"},
		{"neither policy", `{"criteria":[{"name":"x"}],"sample":{"seed":1,"n":1}}`, "exactly one of trigger or planner"},
		{"unknown trigger", `{"criteria":[{"trigger":{"name":"nope"}}],"sample":{"seed":1,"n":1}}`, "criterion 0"},
		{"bad sample", `{"sample":{"seed":1,"n":0}}`, "must be positive"},
		{"cell limit", `{"sample":{"seed":1,"n":99999}}`, "exceed the per-request limit"},
		{"bad explicit scenario", `{"criteria":[{"trigger":{"name":"menon"}}],"scenarios":[{"p":0}]}`, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := d.Decode([]byte(c.raw))
			if err == nil {
				t.Fatalf("decode accepted %s", c.raw)
			}
			if c.want != "" && !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}
}
