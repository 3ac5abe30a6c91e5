package engine

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// TestScenarioCostCeiling pins the per-scenario items x iterations ceiling
// on every intake that carries explicit runtime scenarios: /v1/runtime,
// each runtime-sweep scenario, and each assess column. Generator workloads
// place 64 items per PE, so p x iterations x 64 is the grid.
func TestScenarioCostCeiling(t *testing.T) {
	const limit = "exceeds the per-scenario limit"
	runtimeBody := func(p, iters int) string {
		return fmt.Sprintf(`{"p":%d,"iterations":%d,"workload":{"name":"stationary"}}`, p, iters)
	}
	cases := []struct {
		name, typ, raw, want string
	}{
		// 64 x 64 x 1024 = 4Mi cells: exactly at the ceiling.
		{"runtime at the ceiling", "runtime", runtimeBody(64, 1024), ""},
		{"runtime one iteration over", "runtime", runtimeBody(64, 1025), limit},
		{"runtime default iterations", "runtime", `{"p":512}`, limit},
		{"runtime p alone over", "runtime", `{"p":5000000,"iterations":1}`, limit},
		{"runtime overflowing p x iterations", "runtime", `{"p":9000000000000000000,"iterations":9000000000000000000}`, limit},
		{"runtime trace width", "runtime",
			`{"p":2,"iterations":2000000,"workload":{"name":"trace","rows":[[1,2]]}}`, ""},
		{"runtime trace width over", "runtime",
			`{"p":2,"iterations":2000000,"workload":{"name":"trace","rows":[[1,2,3]]}}`, limit},
		{"runtime-sweep explicit scenario", "runtime-sweep",
			`{"scenarios":[{"p":4},` + runtimeBody(64, 2000) + `]}`, "scenario 1: " + "scenario of"},
		{"runtime-sweep within", "runtime-sweep", `{"scenarios":[` + runtimeBody(8, 100) + `]}`, ""},
		{"assess explicit column", "assess",
			`{"scenarios":[{"p":4,"iterations":20},{"p":64,"iterations":2000}]}`, "scenario 1: "},
		{"assess explicit column beside a sample", "assess",
			`{"scenarios":[{"p":64,"iterations":2000}],"sample":{"seed":1,"n":1}}`, limit},
		{"assess within", "assess", `{"criteria":[{"trigger":{"name":"never"}}],"scenarios":[{"p":8,"iterations":100}]}`, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d, _ := ByType(c.typ)
			_, err := d.Decode([]byte(c.raw))
			switch {
			case c.want == "" && err != nil:
				t.Fatalf("decode rejected %s: %v", c.raw, err)
			case c.want != "" && err == nil:
				t.Fatalf("decode accepted %s", c.raw)
			case c.want != "" && !strings.Contains(err.Error(), c.want):
				t.Fatalf("error %q does not mention %q", err, c.want)
			case c.want != "" && !strings.Contains(err.Error(), limit):
				t.Fatalf("error %q is not the cost ceiling", err)
			}
		})
	}
}

// TestExperimentCostCeiling pins the two ceilings of /v1/experiment at
// decode: at most 256 PEs, and at most 131,072 PE-iterations, with omitted
// iterations counted as New's default run length.
func TestExperimentCostCeiling(t *testing.T) {
	const limit = "exceeds the per-experiment limit"
	cases := []struct {
		name, raw string
		ok        bool
	}{
		{"PEs at the ceiling", `{"p":256}`, true},
		{"PEs one over", `{"p":257,"iterations":1}`, false},
		{"a million PEs", `{"p":1000000}`, false},
		{"the paper's largest run", `{"p":256,"iterations":450,"method":"ulba","compare":true}`, true},
		{"PE-iterations at the ceiling", `{"p":256,"iterations":512}`, true},
		{"PE-iterations one over", `{"p":256,"iterations":513}`, false},
		{"PE-iterations one over at p=8", `{"p":8,"iterations":16385}`, false},
		{"a billion iterations", `{"p":8,"iterations":1000000000}`, false},
		{"overflowing p x iterations", `{"p":8,"iterations":9000000000000000000}`, false},
		{"overflowing p and iterations", `{"p":9000000000000000000,"iterations":9000000000000000000}`, false},
	}
	d, _ := ByType("experiment")
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := d.Decode([]byte(c.raw))
			switch {
			case c.ok && err != nil:
				t.Fatalf("decode rejected %s: %v", c.raw, err)
			case !c.ok && err == nil:
				t.Fatalf("decode accepted %s", c.raw)
			case !c.ok && !strings.Contains(err.Error(), limit):
				t.Fatalf("error %q is not the cost ceiling", err)
			}
		})
	}
	// The ceiling counts omitted iterations as the run New would build.
	inst, err := experimentEngine{}.Decode([]byte(`{"p":8}`))
	if err != nil {
		t.Fatal(err)
	}
	if got := inst.exp.Config().Iterations; got != defaultExperimentIterations {
		t.Fatalf("New runs %d iterations by default, the ceiling assumes %d", got, defaultExperimentIterations)
	}
}

// TestRuntimeDecodeStaysCheap pins that decoding a runtime body does no work
// proportional to the scenario grid: the weight table (1024 items x 200
// iterations = 1.6 MB here) is built on the first run, never at decode, so
// a cache hit, a forwarded request and a job submission stay cheap.
func TestRuntimeDecodeStaysCheap(t *testing.T) {
	const bound = 32 << 10
	d, _ := ByType("runtime")
	for _, workload := range []string{"stationary", "minife", "linear", "outlier"} {
		raw := []byte(fmt.Sprintf(`{"p":16,"iterations":200,"workload":{"name":%q,"seed":3},"trigger":{"name":"degradation"}}`, workload))
		if _, err := d.Decode(raw); err != nil { // warm the registries
			t.Fatal(err)
		}
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			if _, err := d.Decode(raw); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		perDecode := (after.TotalAlloc - before.TotalAlloc) / runs
		if perDecode > bound {
			t.Errorf("%s: decoding a p=16, 200-iteration body allocates %d B, want under %d B (an eager grid build?)",
				workload, perDecode, bound)
		}
	}
}
