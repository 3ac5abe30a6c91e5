package ulba_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"ulba"
	"ulba/internal/jobs"
	"ulba/internal/server"
)

// mustServer builds a server for the examples; construction cannot fail.
func mustServer() *server.Server {
	srv, err := server.New(server.Config{})
	if err != nil {
		panic(err)
	}
	return srv
}

// Example_server runs the HTTP service layer in-process and drives one
// cached sweep through it: the first request computes, the identical
// second request is served from the deterministic result cache with
// bit-identical bytes. cmd/ulba-serve wraps the same handler into a
// deployable binary; see API.md for the full endpoint reference.
func Example_server() {
	ts := httptest.NewServer(mustServer().Handler())
	defer ts.Close()

	const req = `{"sample": {"seed": 2019, "n": 100}, "alpha_grid": 21}`
	post := func() (cache string, body []byte, err error) {
		resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(req))
		if err != nil {
			return "", nil, err
		}
		defer resp.Body.Close()
		body, err = io.ReadAll(resp.Body)
		return resp.Header.Get("X-Ulba-Cache"), body, err
	}

	cache1, body1, err1 := post()
	cache2, body2, err2 := post()
	if err1 != nil || err2 != nil {
		fmt.Println("error:", err1, err2)
		return
	}

	var decoded struct {
		Summary ulba.SweepSummary `json:"summary"`
	}
	if err := json.Unmarshal(body1, &decoded); err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("first request:", cache1)
	fmt.Println("second request:", cache2)
	fmt.Println("identical bytes:", string(body1) == string(body2))
	fmt.Println("instances evaluated:", decoded.Summary.Instances)
	fmt.Println("ULBA never loses:", decoded.Summary.Gains.Min >= 0)
	// Output:
	// first request: miss
	// second request: hit
	// identical bytes: true
	// instances evaluated: 100
	// ULBA never loses: true
}

// Example_serverJobs drives the asynchronous flow end to end: submit a
// sweep as a job, poll its state machine to completion, and fetch the
// result — which is bit-identical to the synchronous endpoint's response
// for the same request. With a store directory (ulba-serve -store-dir)
// the result would additionally survive a restart, and an interrupted
// job's checkpoint would let a resubmission resume; see API.md.
func Example_serverJobs() {
	ts := httptest.NewServer(mustServer().Handler())
	defer ts.Close()

	const request = `{"sample": {"seed": 2019, "n": 100}, "alpha_grid": 21}`

	// Submit: the response returns immediately with the job's identity.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"type": "sweep", "request": `+request+`}`))
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	var st jobs.Status
	json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	fmt.Println("accepted:", resp.StatusCode, "total units:", st.Progress.Total)

	// Poll until the state machine reaches a terminal state.
	for !st.State.Terminal() {
		time.Sleep(5 * time.Millisecond)
		resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
	}
	fmt.Println("final state:", st.State, "completed:", st.Progress.Completed)

	// Fetch the result and compare with the synchronous endpoint.
	resp, err = http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	jobBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()

	resp, err = http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(request))
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	syncBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	fmt.Println("job result == synchronous bytes:", string(jobBody) == string(syncBody))
	// Output:
	// accepted: 202 total units: 100
	// final state: done completed: 100
	// job result == synchronous bytes: true
}
