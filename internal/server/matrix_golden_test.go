package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"runtime"
	"testing"

	"ulba"
	"ulba/internal/engine"
)

// TestExemplarMatrixGoldenAcrossDeployments drives a planner x trigger
// matrix over the exemplar-derived workloads (minife, amr, target) —
// including heterogeneous-speed variants — and requires one answer
// everywhere: the in-process result is invariant across worker counts
// (1, 4, GOMAXPROCS), and the served body is byte-identical whether the
// request hits a standalone server or any replica of a 3-node cluster.
func TestExemplarMatrixGoldenAcrossDeployments(t *testing.T) {
	workloads := []*ulba.WorkloadSpec{
		{Name: "minife", Seed: 7},
		{Name: "amr", Seed: 7, Levels: 5},
		{Name: "target", Seed: 7, Target: 2},
	}
	policies := []struct {
		name    string
		trigger *ulba.TriggerSpec
		planner *ulba.PlannerSpec
	}{
		{"trigger/degradation", &ulba.TriggerSpec{Name: "degradation"}, nil},
		{"trigger/wli", &ulba.TriggerSpec{Name: "wli", Threshold: 0.2}, nil},
		{"trigger/periodic", &ulba.TriggerSpec{Name: "periodic", Every: 8}, nil},
		{"planner/sigma+", nil, &ulba.PlannerSpec{Name: "sigma+"}},
		{"planner/periodic", nil, &ulba.PlannerSpec{Name: "periodic", Every: 10}},
	}
	speedVariants := []struct {
		name   string
		speeds []float64
	}{
		{"homogeneous", nil},
		{"heterogeneous", []float64{1, 2.5, 1, 4}},
	}

	_, standalone := newTestServer(t)
	nodes := newTestCluster(t, 3, 2, nil)

	for _, w := range workloads {
		for _, pol := range policies {
			for _, sv := range speedVariants {
				name := fmt.Sprintf("%s/%s/%s", w.Name, pol.name, sv.name)
				t.Run(name, func(t *testing.T) {
					req := engine.RuntimeRequest{
						P: 4, Iterations: 30,
						Workload: w, Trigger: pol.trigger, Planner: pol.planner,
						Speeds: sv.speeds,
					}
					want := inProcessRuntimeBody(t, req)

					body, err := json.Marshal(req)
					if err != nil {
						t.Fatal(err)
					}
					resp := post(t, standalone, "/v1/runtime", string(body))
					if resp.StatusCode != http.StatusOK {
						t.Fatalf("standalone status = %d: %s", resp.StatusCode, readAll(t, resp))
					}
					if got := readAll(t, resp); !bytes.Equal(got, want) {
						t.Fatalf("standalone body differs from in-process result\ngot:  %s\nwant: %s", got, want)
					}
					for i, node := range nodes {
						resp := postURL(t, node.url, "/v1/runtime", string(body))
						if resp.StatusCode != http.StatusOK {
							t.Fatalf("node %d status = %d: %s", i, resp.StatusCode, readAll(t, resp))
						}
						if got := readAll(t, resp); !bytes.Equal(got, want) {
							t.Fatalf("node %d body differs from in-process result", i)
						}
					}
				})
			}
		}
	}
}

// inProcessRuntimeBody computes the matrix cell through the public
// functional-options API at several worker counts, requires the results to
// be identical, and returns the response body the service must serve for
// it.
func inProcessRuntimeBody(t *testing.T, req engine.RuntimeRequest) []byte {
	t.Helper()
	var ref *ulba.RuntimeResult
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		opts := []ulba.Option{ulba.WithIterations(req.Iterations), ulba.WithWorkers(workers)}
		if len(req.Speeds) > 0 {
			opts = append(opts, ulba.WithSpeeds(req.Speeds))
		}
		w, err := req.Workload.Workload()
		if err != nil {
			t.Fatal(err)
		}
		opts = append(opts, ulba.WithWorkload(w))
		if req.Trigger != nil {
			tr, err := req.Trigger.Trigger()
			if err != nil {
				t.Fatal(err)
			}
			opts = append(opts, ulba.WithTrigger(tr))
		}
		if req.Planner != nil {
			pl, err := req.Planner.Planner()
			if err != nil {
				t.Fatal(err)
			}
			opts = append(opts, ulba.WithPlanner(pl))
		}
		exp, err := ulba.NewRuntime(req.P, opts...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := exp.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = &res
		} else if !reflect.DeepEqual(*ref, res) {
			t.Fatalf("workers=%d result differs from workers=1", workers)
		}
	}
	want, err := json.Marshal(engine.RuntimeResponse{Result: *ref, Gain: ref.Gain(), Efficiency: ref.Efficiency()})
	if err != nil {
		t.Fatal(err)
	}
	return append(want, '\n')
}
