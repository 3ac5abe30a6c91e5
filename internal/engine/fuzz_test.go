package engine

import (
	"encoding/json"
	"testing"
)

// FuzzEngineRequestRoundTrip fuzzes the decode/validate seam of every
// registered engine with one invariant: any body that decodes must have a
// stable content address under canonicalization. The canonical form
// re-marshals to JSON that decodes again (the strict decoder accepts its
// own canonical output), and the re-decoded instance has the same cache
// key and unit count — otherwise execution knobs or field ordering would
// leak into the address and identical work would compute twice.
//
// The seed corpus is the API.md example bodies, one per endpoint, plus
// knob-heavy variants.
func FuzzEngineRequestRoundTrip(f *testing.F) {
	seeds := []struct {
		typ string
		raw string
	}{
		{"experiment", `{"p": 16, "method": "ulba", "alpha": 0.4, "iterations": 120, "compare": true}`},
		{"experiment", `{"p":4,"iterations":25,"method":"standard","seed":3,"z_threshold":1.5,"rcb":true}`},
		{"sweep", `{"sample": {"seed": 2019, "n": 1000}, "alpha_grid": 100}`},
		{"sweep", `{"instances":[{"p":4,"n":1000,"gamma":10,"w0":1,"a":0.001,"m":0.5,"omega":0.01,"c":0.2}],"workers":2}`},
		{"runtime", `{"p": 8, "iterations": 200, "workload": {"name": "bursty", "seed": 7}, "trigger": {"name": "menon"}}`},
		{"runtime", `{"p": 4, "iterations": 60, "workload": {"name": "amr", "seed": 7}, "trigger": {"name": "wli", "threshold": 0.2}, "speeds": [1, 2.5, 1, 4]}`},
		{"runtime", `{"p": 8, "workload": {"name": "linear", "seed": 7}, "planner": {"name": "sigma+"}}`},
		{"runtime-sweep", `{"scenarios": [{"p": 8, "workload": {"name": "linear"}, "trigger": {"name": "degradation"}}]}`},
		{"runtime-sweep", `{"sample": {"seed": 1, "n": 32}, "workers": 4}`},
		{"assess", `{"sample": {"seed": 7, "n": 4}}`},
		{"assess", `{"criteria": [{"trigger": {"name": "menon"}}, {"name": "plan", "planner": {"name": "sigma+"}}], "scenarios": [{"p": 4, "workload": {"name": "linear"}}]}`},
	}
	for _, s := range seeds {
		f.Add(s.typ, []byte(s.raw))
	}
	f.Fuzz(func(t *testing.T, typ string, raw []byte) {
		d, ok := ByType(typ)
		if !ok {
			t.Skip("not a registered engine type")
		}
		inst, err := d.Decode(raw)
		if err != nil {
			return // rejected bodies just need to not panic
		}
		key, err := inst.Key()
		if err != nil {
			t.Fatalf("accepted body has no key: %v", err)
		}
		canon, err := json.Marshal(inst.Canonical())
		if err != nil {
			t.Fatalf("canonical form does not marshal: %v", err)
		}
		inst2, err := d.Decode(canon)
		if err != nil {
			t.Fatalf("canonical form %s does not re-decode: %v", canon, err)
		}
		key2, err := inst2.Key()
		if err != nil {
			t.Fatal(err)
		}
		if key != key2 {
			t.Fatalf("cache key unstable under canonical round trip: %s != %s (canonical %s)", key, key2, canon)
		}
		if inst.Units() != inst2.Units() {
			t.Fatalf("unit count unstable under canonical round trip: %d != %d", inst.Units(), inst2.Units())
		}
	})
}
