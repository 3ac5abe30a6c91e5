package ulba_test

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"ulba"
	"ulba/internal/engine"
	"ulba/internal/server"
)

// TestDesignTablesMatchRegistries parses the policy tables of DESIGN.md and
// pins their registry-name columns to the live PlannerNames / TriggerNames /
// WorkloadNames output, so the documentation cannot drift from the code: a
// registration without a table row (or a stale row) fails here.
func TestDesignTablesMatchRegistries(t *testing.T) {
	data, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	// Table rows look like: | `SigmaPlusPlanner` | `sigma+` | ... — the
	// implementation type's suffix says which registry the row documents.
	row := regexp.MustCompile("^\\| `([A-Za-z]+)` +\\| `([a-z+]+)` ")
	documented := map[string][]string{}
	for _, line := range strings.Split(string(data), "\n") {
		m := row.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		for _, kind := range []string{"Planner", "Trigger", "Workload"} {
			if strings.HasSuffix(m[1], kind) {
				documented[kind] = append(documented[kind], m[2])
			}
		}
	}
	for kind, registered := range map[string][]string{
		"Planner":  ulba.PlannerNames(),
		"Trigger":  ulba.TriggerNames(),
		"Workload": ulba.WorkloadNames(),
	} {
		docs := append([]string(nil), documented[kind]...)
		sort.Strings(docs)
		if strings.Join(docs, ",") != strings.Join(registered, ",") {
			t.Errorf("%s registry %v does not match the DESIGN.md table %v", kind, registered, docs)
		}
	}
}

// TestWorkloadTablePinsParameters parses the workload-registry table of
// DESIGN.md — rows of the form | `TypeWorkload` | `name` | `F1, F2` | ... —
// and checks the parameters column against the exported struct fields of
// the registered implementation, in declaration order. A new workload knob
// (or a renamed one) cannot land without its documentation row following.
func TestWorkloadTablePinsParameters(t *testing.T) {
	data, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	row := regexp.MustCompile("^\\| `([A-Za-z]+Workload)` +\\| `([a-z+]+)` +\\| `([^`]+)` ")
	tabled := map[string]string{}
	for _, line := range strings.Split(string(data), "\n") {
		if m := row.FindStringSubmatch(line); m != nil {
			tabled[m[2]] = m[3]
		}
	}
	for _, name := range ulba.WorkloadNames() {
		params, ok := tabled[name]
		if !ok {
			t.Errorf("DESIGN.md workload table has no parameters row for %q", name)
			continue
		}
		w, err := ulba.NewWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		typ := reflect.TypeOf(w)
		var fields []string
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.IsExported() {
				fields = append(fields, f.Name)
			}
		}
		if want := strings.Join(fields, ", "); params != want {
			t.Errorf("DESIGN.md parameters for %q are `%s`, struct %s has `%s`", name, params, typ.Name(), want)
		}
	}
}

// TestAPIRegistriesListingMatchesCode pins the GET /v1/registries example
// response in API.md to the live registries: the documented vocabulary of
// planner/trigger/workload names must be exactly what the server serves.
func TestAPIRegistriesListingMatchesCode(t *testing.T) {
	data, err := os.ReadFile("API.md")
	if err != nil {
		t.Fatal(err)
	}
	row := regexp.MustCompile(`^\s*"(planners|triggers|workloads|engines)": \[([^\]]*)\]`)
	documented := map[string][]string{}
	for _, line := range strings.Split(string(data), "\n") {
		m := row.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		for _, q := range strings.Split(m[2], ",") {
			documented[m[1]] = append(documented[m[1]], strings.Trim(strings.TrimSpace(q), `"`))
		}
	}
	for kind, registered := range map[string][]string{
		"planners":  ulba.PlannerNames(),
		"triggers":  ulba.TriggerNames(),
		"workloads": ulba.WorkloadNames(),
		"engines":   engine.TypeNames(),
	} {
		if !reflect.DeepEqual(documented[kind], registered) {
			t.Errorf("API.md registries example lists %s %v, registry has %v", kind, documented[kind], registered)
		}
	}
}

// TestAPIRequestBodiesDecode pins the request examples of API.md to the
// decoders: every `curl ... localhost:8383/v1/... -d '...'` body must decode
// under the engine its route names, and a job submission's request must
// decode under the engine its type names, so an example cannot carry a
// field the strict decoders reject.
func TestAPIRequestBodiesDecode(t *testing.T) {
	data, err := os.ReadFile("API.md")
	if err != nil {
		t.Fatal(err)
	}
	api := string(data)
	example := regexp.MustCompile(`curl -\S+ localhost:8383(/v1/[a-z-]+) -d '([^']*)'`)
	matches := example.FindAllStringSubmatch(api, -1)
	if withBody := regexp.MustCompile(`(?m)^curl .* -d `).FindAllString(api, -1); len(withBody) != len(matches) {
		t.Fatalf("API.md has %d curl examples with a body, the pattern matched %d", len(withBody), len(matches))
	}
	byPath := map[string]*engine.Descriptor{}
	for _, d := range engine.Engines() {
		byPath[d.Endpoint] = d
	}
	covered := map[string]bool{}
	for _, m := range matches {
		path, body := m[1], []byte(m[2])
		covered[path] = true
		d, ok := byPath[path]
		if path == "/v1/jobs" {
			var sub struct {
				Type    string          `json:"type"`
				Request json.RawMessage `json:"request"`
			}
			if err := engine.DecodeStrict(bytes.NewReader(body), &sub); err != nil {
				t.Errorf("API.md job submission %s: %v", body, err)
				continue
			}
			d, ok = engine.ByType(sub.Type)
			path, body = path+" ("+sub.Type+")", sub.Request
		}
		if !ok {
			t.Errorf("API.md posts to %s, which no engine serves", path)
			continue
		}
		if _, err := d.Decode(body); err != nil {
			t.Errorf("API.md %s body %s: %v", path, body, err)
		}
	}
	for _, d := range engine.Engines() {
		if !covered[d.Endpoint] {
			t.Errorf("API.md has no request example for %s", d.Endpoint)
		}
	}
	if !covered["/v1/jobs"] {
		t.Error("API.md has no job submission example")
	}
}

// TestDesignEngineTableMatchesRegistry pins DESIGN.md's engine table —
// rows of the form | `type` | `POST /endpoint` | ... — to the live engine
// registry: every registered engine needs a row with its exact endpoint,
// and the table may not describe an engine that does not exist. An engine
// registration cannot land without its documentation row following.
func TestDesignEngineTableMatchesRegistry(t *testing.T) {
	data, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	row := regexp.MustCompile("^\\| `([a-z-]+)` +\\| `POST ([^`]+)` ")
	documented := map[string]string{}
	for _, line := range strings.Split(string(data), "\n") {
		if m := row.FindStringSubmatch(line); m != nil {
			documented[m[1]] = m[2]
		}
	}
	for _, d := range engine.Engines() {
		endpoint, ok := documented[d.Type]
		if !ok {
			t.Errorf("DESIGN.md engine table has no row for registered engine %q", d.Type)
			continue
		}
		if endpoint != d.Endpoint {
			t.Errorf("DESIGN.md engine table maps %q to %q, registry serves it at %q", d.Type, endpoint, d.Endpoint)
		}
		delete(documented, d.Type)
	}
	for stale := range documented {
		t.Errorf("DESIGN.md engine table documents %q, which is not a registered engine", stale)
	}
}

// TestEndpointDocsMatchRoutes pins the HTTP documentation to the routes the
// server actually registers (server.Routes is recorded at registration
// time, so it cannot lie): every registered route must appear as a
// backticked `METHOD /path` row in DESIGN.md's endpoint table and as a
// `## METHOD /path` section heading in API.md, and neither document may
// describe an endpoint that does not exist. Adding or removing a route
// without the docs pass fails here.
func TestEndpointDocsMatchRoutes(t *testing.T) {
	srv, err := server.New(server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close(context.Background())
	registered := srv.Routes()
	sort.Strings(registered)

	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	row := regexp.MustCompile("^\\| `((?:GET|POST|PUT|DELETE|PATCH) [^`]+)`")
	var tabled []string
	for _, line := range strings.Split(string(design), "\n") {
		if m := row.FindStringSubmatch(line); m != nil {
			tabled = append(tabled, m[1])
		}
	}
	sort.Strings(tabled)
	if strings.Join(tabled, "\n") != strings.Join(registered, "\n") {
		t.Errorf("DESIGN.md endpoint table %v does not match the registered routes %v", tabled, registered)
	}

	api, err := os.ReadFile("API.md")
	if err != nil {
		t.Fatal(err)
	}
	headings := map[string]bool{}
	heading := regexp.MustCompile(`^## ((?:GET|POST|PUT|DELETE|PATCH) /\S+)$`)
	for _, line := range strings.Split(string(api), "\n") {
		if m := heading.FindStringSubmatch(line); m != nil {
			headings[m[1]] = true
		}
	}
	for _, route := range registered {
		if !headings[route] {
			t.Errorf("API.md has no `## %s` section for the registered route", route)
		}
		delete(headings, route)
	}
	for stale := range headings {
		t.Errorf("API.md documents %q, which is not a registered route", stale)
	}
}
