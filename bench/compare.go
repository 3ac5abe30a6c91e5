package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
)

// runRecord is one line of a -record file.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    int    `json:"trace"`
	Result   result `json:"result"`
}

func appendRecord(path string, rec runRecord) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readRecords returns the untraced runs of a -record file, by workload.
func readRecords(path string) (map[string][]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]result{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var rec runRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if rec.Trace == 0 {
			out[rec.Workload] = append(out[rec.Workload], rec.Result)
		}
	}
	return out, sc.Err()
}

// bound is one end-to-end metric of BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type definition struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []bound `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readDefinition(path string) (*definition, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d definition
	if err := json.Unmarshal(buf, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// quartiles are Python's statistics.quantiles(xs, n=4) (the exclusive
// method), so the spreads printed here match the ones the bounds came from.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := slices.Sorted(slices.Values(xs))
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// verdict judges head against base for one metric. A spread is the distance
// between the quartiles as a share of the median; a metric whose spread on
// either side exceeds its bound is unresolved unless every head run beats
// every base run. setup_s is exempt: the benchmark sets up a few times per
// run and bounds only the median. Otherwise head regressed when its median
// is worse by more than the bound, and is better when its median is better
// by more than base's spread and it wins at least nine tenths of all run
// pairs.
func verdict(b bound, base, head []float64) string {
	bq1, bm, bq3 := quartiles(base)
	hq1, hm, hq3 := quartiles(head)
	worse := func(x, y float64) bool { // x is worse than y
		if b.Better == "higher" {
			return x < y
		}
		return x > y
	}
	wins, pairs := 0, 0
	for _, h := range head {
		for _, x := range base {
			pairs++
			if worse(x, h) {
				wins++
			}
		}
	}
	spread := func(q1, m, q3 float64) float64 {
		if m == 0 {
			return 0
		}
		return (q3 - q1) / m
	}
	change := 0.0 // relative worsening of the median
	if bm != 0 {
		change = (hm - bm) / bm
		if b.Better == "higher" {
			change = -change
		}
	}
	switch {
	case wins == pairs && change < 0:
		return "better"
	case b.Name != "setup_s" && (spread(bq1, bm, bq3) > b.Bound || spread(hq1, hm, hq3) > b.Bound):
		return "unresolved"
	case change > b.Bound:
		return "regressed"
	case -change > spread(bq1, bm, bq3) && float64(wins) >= 0.9*float64(pairs):
		return "better"
	}
	return "no worse"
}

// compareRecords prints one row per workload and end-to-end metric and
// reports whether no row regressed or stayed unresolved.
func compareRecords(out io.Writer, defPath, basePath, headPath string) (bool, error) {
	def, err := readDefinition(defPath)
	if err != nil {
		return false, err
	}
	base, err := readRecords(basePath)
	if err != nil {
		return false, err
	}
	head, err := readRecords(headPath)
	if err != nil {
		return false, err
	}
	ok := true
	fmt.Fprintf(out, "%-13s %-15s %6s %32s %32s %6s  %s\n", "workload", "metric", "bound", "base median [q1, q3]", "head median [q1, q3]", "change", "verdict")
	for _, w := range def.Workloads {
		bs, hs := base[w.Name], head[w.Name]
		if len(bs) == 0 || len(hs) == 0 {
			fmt.Fprintf(out, "%-13s (no runs: %d base, %d head)\n", w.Name, len(bs), len(hs))
			ok = false
			continue
		}
		for _, m := range def.EndToEnd {
			values := func(rs []result) []float64 {
				var xs []float64
				for _, r := range rs {
					xs = append(xs, r.Metrics[m.Name].Value)
				}
				return xs
			}
			bv, hv := values(bs), values(hs)
			bq1, bm, bq3 := quartiles(bv)
			hq1, hm, hq3 := quartiles(hv)
			v := verdict(m, bv, hv)
			if v == "regressed" || v == "unresolved" {
				ok = false
			}
			change := 0.0
			if bm != 0 {
				change = (hm - bm) / bm * 100
			}
			fmt.Fprintf(out, "%-13s %-15s %5.1f%% %12.4g [%8.4g, %8.4g] %12.4g [%8.4g, %8.4g] %+5.1f%%  %s\n",
				w.Name, m.Name, m.Bound*100, bm, bq1, bq3, hm, hq1, hq3, change, v)
		}
	}
	return ok, nil
}
