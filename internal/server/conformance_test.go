package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ulba/internal/engine"
	"ulba/internal/jobs"
)

// The cross-engine conformance harness: one table-driven suite that holds
// every registered engine to the same behavioral contract, so a new engine
// is conformant the moment it registers (and the suite fails loudly if an
// engine registers without a fixture). It replaces the per-engine
// copy-pasted families these properties used to live in — most directly the
// old TestJobBitIdenticalToSync table.
//
// Per engine:
//
//   - cache-key canonicalization: the execution knob (workers) does not
//     change the content address, and the address is stable across a
//     decode -> canonical -> re-encode round trip;
//   - sync-vs-job byte identity: the async result equals the synchronous
//     response bit for bit, computed on separate servers so neither path
//     can borrow the other's cache;
//   - job stream framing (batch engines): one NDJSON line per unit,
//     indices covering the range exactly, bypass header set, terminal
//     done line last;
//   - checkpoint/resume bit identity (batch engines): a job interrupted
//     mid-run resumes from its checkpoint on a fresh server and still
//     produces the synchronous bytes;
//   - context cancellation: a client abandoning a request leaves the
//     server healthy — the engine slot is released and the next request
//     succeeds.

// conformanceFixture is one engine's test inputs. request must be small
// enough to run under -race; variant must canonicalize identically to
// request (only execution knobs may differ).
type conformanceFixture struct {
	request string
	variant string
	// short skips the compute-heavy legs under -short (the fixture still
	// runs the key-stability leg).
	short bool
}

var conformanceFixtures = map[string]conformanceFixture{
	"experiment": {
		request: `{"p":4,"iterations":25,"method":"ulba","seed":3,"compare":true}`,
		variant: `{"seed":3,"compare":true,"method":"ulba","iterations":25,"p":4,"workers":3}`,
		short:   true, // the erosion run dominates -short budgets
	},
	"sweep": {
		request: `{"sample":{"seed":21,"n":12},"alpha_grid":9}`,
		variant: `{"alpha_grid":9,"sample":{"n":12,"seed":21},"workers":2}`,
	},
	"runtime": {
		request: `{"p":4,"iterations":30,"workload":{"name":"bursty","seed":2},"trigger":{"name":"menon"}}`,
		variant: `{"trigger":{"name":"menon"},"workload":{"seed":2,"name":"bursty"},"iterations":30,"p":4,"workers":5}`,
	},
	"runtime-sweep": {
		request: `{"sample":{"seed":6,"n":3}}`,
		variant: `{"workers":2,"sample":{"seed":6,"n":3}}`,
	},
	"assess": {
		request: `{"criteria":[{"trigger":{"name":"degradation"}},{"trigger":{"name":"never"}}],"sample":{"seed":5,"n":2}}`,
		variant: `{"sample":{"n":2,"seed":5},"criteria":[{"trigger":{"name":"degradation"}},{"trigger":{"name":"never"}}],"workers":4}`,
	},
}

// TestConformanceFixturesCoverRegistry fails the build the moment an engine
// registers without joining the conformance table (or a fixture outlives
// its engine).
func TestConformanceFixturesCoverRegistry(t *testing.T) {
	for _, typ := range engine.TypeNames() {
		if _, ok := conformanceFixtures[typ]; !ok {
			t.Errorf("registered engine %q has no conformance fixture", typ)
		}
	}
	for typ := range conformanceFixtures {
		if _, ok := engine.ByType(typ); !ok {
			t.Errorf("conformance fixture %q names no registered engine", typ)
		}
	}
}

// decodeKey decodes raw through the engine registry and returns the
// instance's content address.
func decodeKey(t *testing.T, typ string, raw string) (string, *engine.Instance) {
	t.Helper()
	d, ok := engine.ByType(typ)
	if !ok {
		t.Fatalf("engine %q is not registered", typ)
	}
	inst, err := d.Decode([]byte(raw))
	if err != nil {
		t.Fatalf("decode %q: %v", typ, err)
	}
	key, err := inst.Key()
	if err != nil {
		t.Fatalf("key %q: %v", typ, err)
	}
	return key, inst
}

// TestConformanceCacheKey pins canonicalization for every engine: the
// content address ignores execution knobs and field order, and survives a
// canonical-form re-encode.
func TestConformanceCacheKey(t *testing.T) {
	for typ, fx := range conformanceFixtures {
		t.Run(typ, func(t *testing.T) {
			key, inst := decodeKey(t, typ, fx.request)
			variantKey, _ := decodeKey(t, typ, fx.variant)
			if key != variantKey {
				t.Errorf("variant key %s != request key %s: execution knobs or field order leaked into the content address", variantKey, key)
			}
			canon, err := json.Marshal(inst.Canonical())
			if err != nil {
				t.Fatal(err)
			}
			roundKey, _ := decodeKey(t, typ, string(canon))
			if key != roundKey {
				t.Errorf("canonical round-trip key %s != request key %s", roundKey, key)
			}
			d, _ := engine.ByType(typ)
			want, err := engine.Key(d.Endpoint, inst.Canonical())
			if err != nil {
				t.Fatal(err)
			}
			if key != want {
				t.Errorf("instance key %s != engine.Key %s", key, want)
			}
		})
	}
}

// TestConformanceSyncJobByteIdentity pins the headline determinism
// contract for every engine: the asynchronous result bytes equal the
// synchronous response for the same request.
func TestConformanceSyncJobByteIdentity(t *testing.T) {
	for _, typ := range engine.TypeNames() {
		fx := conformanceFixtures[typ]
		t.Run(typ, func(t *testing.T) {
			if fx.short && testing.Short() {
				t.Skip("compute-heavy fixture in -short mode")
			}
			d, _ := engine.ByType(typ)
			_, syncTS, _ := newStoreServer(t, "", Config{})
			syncResp := post(t, syncTS, d.Endpoint, fx.request)
			if syncResp.StatusCode != http.StatusOK {
				t.Fatalf("sync status = %d: %s", syncResp.StatusCode, readAll(t, syncResp))
			}
			want := readAll(t, syncResp)

			_, jobTS, _ := newStoreServer(t, t.TempDir(), Config{})
			st := submitJob(t, jobTS, typ, fx.request)
			if st.Type != typ || st.Key == "" {
				t.Fatalf("accepted status = %+v", st)
			}
			done := awaitJob(t, jobTS, st.ID)
			if done.State != jobs.StateDone {
				t.Fatalf("job = %+v", done)
			}
			if done.Progress.Completed != done.Progress.Total || done.Progress.Total == 0 {
				t.Fatalf("progress = %+v", done.Progress)
			}
			resp, got := jobResult(t, jobTS, st.ID)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("result status = %d", resp.StatusCode)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("job result (%d bytes) is not bit-identical to the synchronous response (%d bytes)", len(got), len(want))
			}
		})
	}
}

// TestConformanceJobStreamFraming pins the job stream contract for every
// batch engine: NDJSON content type, bypass header, one line per unit with
// indices covering the range exactly once, then a terminal line with state
// done.
func TestConformanceJobStreamFraming(t *testing.T) {
	for _, typ := range engine.TypeNames() {
		fx := conformanceFixtures[typ]
		t.Run(typ, func(t *testing.T) {
			_, inst := decodeKey(t, typ, fx.request)
			if inst.NewBatch() == nil {
				t.Skipf("engine %q is unary: no per-unit lines", typ)
			}
			_, ts := newTestServer(t)
			st := submitJob(t, ts, typ, fx.request)
			resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/stream")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
				t.Errorf("Content-Type = %q, want application/x-ndjson", ct)
			}
			if cc := resp.Header.Get("X-Ulba-Cache"); cc != "bypass" {
				t.Errorf("X-Ulba-Cache = %q, want bypass", cc)
			}
			n := inst.Units()
			seen := make(map[int]bool, n)
			var lines []map[string]json.RawMessage
			sc := bufio.NewScanner(resp.Body)
			sc.Buffer(make([]byte, 1<<20), 1<<20)
			for sc.Scan() {
				var m map[string]json.RawMessage
				if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
					t.Fatalf("unparseable NDJSON line %q: %v", sc.Text(), err)
				}
				lines = append(lines, m)
			}
			if err := sc.Err(); err != nil {
				t.Fatal(err)
			}
			if len(lines) != n+1 {
				t.Fatalf("stream delivered %d lines, want %d units + 1 terminal line", len(lines), n)
			}
			for _, m := range lines[:n] {
				var idx int
				if err := json.Unmarshal(m["index"], &idx); err != nil {
					t.Fatalf("unit line has no index: %v", m)
				}
				if idx < 0 || idx >= n || seen[idx] {
					t.Fatalf("unit index %d out of range or duplicated (n = %d)", idx, n)
				}
				seen[idx] = true
			}
			var state jobs.State
			if err := json.Unmarshal(lines[n]["state"], &state); err != nil || state != jobs.StateDone {
				t.Fatalf("terminal line = %v, want state %q", lines[n], jobs.StateDone)
			}
		})
	}
}

// TestConformanceCheckpointResume pins checkpoint/resume bit identity for
// every batch engine: a job parked mid-run and cancelled resumes its
// remaining units from the checkpoint on a fresh server over the same
// store, and the final bytes equal the uninterrupted synchronous response.
func TestConformanceCheckpointResume(t *testing.T) {
	for _, typ := range engine.TypeNames() {
		fx := conformanceFixtures[typ]
		t.Run(typ, func(t *testing.T) {
			_, inst := decodeKey(t, typ, fx.request)
			if inst.NewBatch() == nil {
				t.Skipf("engine %q is unary: no checkpoint surface", typ)
			}
			d, _ := engine.ByType(typ)
			n := inst.Units()
			holdAfter := n / 2
			if holdAfter < 1 {
				holdAfter = 1
			}

			_, refTS, _ := newStoreServer(t, "", Config{})
			refResp := post(t, refTS, d.Endpoint, fx.request)
			if refResp.StatusCode != http.StatusOK {
				t.Fatalf("reference status = %d", refResp.StatusCode)
			}
			want := readAll(t, refResp)

			// Server A: park the job after holdAfter checkpointed units (the
			// hook blocks until the job's context is cancelled), then cancel
			// and shut down.
			dir := t.TempDir()
			var units atomic.Int32
			hook := func(ctx context.Context) {
				if units.Add(1) >= int32(holdAfter) {
					<-ctx.Done()
				}
			}
			jobUnitHook.Store(&hook)
			defer jobUnitHook.Store(nil)
			_, ts1, shutdown1 := newStoreServer(t, dir, Config{})
			st := submitJob(t, ts1, typ, fx.request)
			deadline := time.Now().Add(60 * time.Second)
			for {
				resp, err := http.Get(ts1.URL + "/v1/jobs/" + st.ID)
				if err != nil {
					t.Fatal(err)
				}
				cur := decodeBody[jobs.Status](t, resp)
				resp.Body.Close()
				if cur.Progress.Completed >= holdAfter && cur.State == jobs.StateRunning {
					break
				}
				if cur.State.Terminal() {
					t.Fatalf("job finished before the interrupt: %+v", cur)
				}
				if time.Now().After(deadline) {
					t.Fatal("no progress before deadline")
				}
				time.Sleep(5 * time.Millisecond)
			}
			req, _ := http.NewRequest(http.MethodDelete, ts1.URL+"/v1/jobs/"+st.ID, nil)
			dresp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			dresp.Body.Close()
			awaitJob(t, ts1, st.ID)
			shutdown1()
			jobUnitHook.Store(nil)

			// Server B: the resubmission resumes from the checkpoint and the
			// final bytes match.
			_, ts2, _ := newStoreServer(t, dir, Config{})
			st2 := submitJob(t, ts2, typ, fx.request)
			done := awaitJob(t, ts2, st2.ID)
			if done.State != jobs.StateDone {
				t.Fatalf("resumed job = %+v", done)
			}
			if done.Progress.Resumed == 0 {
				t.Fatal("resumed job recomputed everything: progress.resumed = 0")
			}
			if done.Progress.Completed != n {
				t.Fatalf("resumed job completed %d of %d", done.Progress.Completed, n)
			}
			resp, got := jobResult(t, ts2, st2.ID)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("result status = %d", resp.StatusCode)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("resumed result is not bit-identical to the uninterrupted response")
			}
		})
	}
}

// TestConformanceCancellation pins that an abandoned request leaves the
// server healthy for every engine: after the client walks away from a
// request, the engine slot is released and a fresh request on the same
// server succeeds.
func TestConformanceCancellation(t *testing.T) {
	for _, typ := range engine.TypeNames() {
		fx := conformanceFixtures[typ]
		t.Run(typ, func(t *testing.T) {
			if fx.short && testing.Short() {
				t.Skip("compute-heavy fixture in -short mode")
			}
			d, _ := engine.ByType(typ)
			// One engine slot: a leaked slot would deadlock the follow-up.
			srv, err := New(Config{MaxConcurrent: 1})
			if err != nil {
				t.Fatal(err)
			}
			ts := newHTTPServer(t, srv)

			ctx, cancel := context.WithCancel(context.Background())
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+d.Endpoint, strings.NewReader(fx.request))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Content-Type", "application/json")
			resp, err := http.DefaultClient.Do(req)
			if err == nil {
				// Read at most one line, then abandon the response.
				br := bufio.NewReader(resp.Body)
				br.ReadString('\n')
				cancel()
				resp.Body.Close()
			} else {
				cancel()
			}

			// The follow-up must acquire the single engine slot: a healthy
			// server released it on cancellation.
			follow := post(t, ts, d.Endpoint, fx.request)
			if follow.StatusCode != http.StatusOK {
				t.Fatalf("follow-up status = %d: %s", follow.StatusCode, readAll(t, follow))
			}
		})
	}
}

// newHTTPServer wraps an already-built Server in an httptest front end.
func newHTTPServer(t *testing.T, srv *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close(context.Background())
	})
	return ts
}
