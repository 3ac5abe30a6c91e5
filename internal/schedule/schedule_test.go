package schedule

import (
	"math"
	"testing"
	"testing/quick"

	"ulba/internal/model"
	"ulba/internal/stats"
)

func refParams() model.Params {
	p := model.Params{
		P:     256,
		N:     25,
		Gamma: 100,
		W0:    2.56e11,
		Omega: 1e9,
		Alpha: 0.5,
	}
	p.DeltaW = 0.1 * p.W0 / float64(p.P)
	y := 0.9
	p.A = p.DeltaW * (1 - y) / float64(p.P)
	p.M = p.DeltaW * y / float64(p.N)
	p.C = 0.5 * p.W0 / (float64(p.P) * p.Omega)
	return p
}

func randomParams(seed uint64) model.Params {
	r := stats.NewRNG(seed)
	ps := []int{256, 512, 1024, 2048}
	p := model.Params{P: ps[r.Intn(len(ps))], Gamma: 100, Omega: 1e9}
	p.N = int(float64(p.P) * r.Uniform(0.01, 0.2))
	if p.N < 1 {
		p.N = 1
	}
	p.W0 = r.Uniform(52e7, 1165e7) * float64(p.P)
	p.DeltaW = p.W0 / float64(p.P) * r.Uniform(0.01, 0.3)
	y := r.Uniform(0.8, 1.0)
	p.A = p.DeltaW * (1 - y) / float64(p.P)
	p.M = p.DeltaW * y / float64(p.N)
	p.Alpha = r.Float64()
	p.C = p.W0 / float64(p.P) * r.Uniform(0.1, 3.0) / p.Omega
	return p
}

func TestValidate(t *testing.T) {
	if err := (Schedule{5, 10, 20}).Validate(100); err != nil {
		t.Errorf("valid schedule rejected: %v", err)
	}
	if err := (Schedule{0, 10}).Validate(100); err == nil {
		t.Error("schedule containing iteration 0 should be invalid")
	}
	if err := (Schedule{10, 10}).Validate(100); err == nil {
		t.Error("non-increasing schedule should be invalid")
	}
	if err := (Schedule{10, 100}).Validate(100); err == nil {
		t.Error("schedule reaching gamma should be invalid")
	}
	if err := (Schedule{}).Validate(1); err != nil {
		t.Errorf("empty schedule rejected: %v", err)
	}
}

func TestBoolsRoundTrip(t *testing.T) {
	s := Schedule{3, 7, 42}
	flags := make([]bool, 100)
	for _, it := range s {
		flags[it] = true
	}
	got := FromBools(flags)
	if len(got) != len(s) {
		t.Fatalf("round trip changed length: %v vs %v", got, s)
	}
	for i := range s {
		if got[i] != s[i] {
			t.Errorf("round trip mismatch: %v vs %v", got, s)
		}
	}
	// Index 0 is always ignored.
	flags2 := []bool{true, false, true}
	if got := FromBools(flags2); len(got) != 1 || got[0] != 2 {
		t.Errorf("FromBools ignores index 0: got %v", got)
	}
}

func TestNormalize(t *testing.T) {
	s := Normalize([]int{42, 3, 7, 3, 0, -5, 200}, 100)
	want := Schedule{3, 7, 42}
	if len(s) != len(want) {
		t.Fatalf("Normalize = %v, want %v", s, want)
	}
	for i := range want {
		if s[i] != want[i] {
			t.Errorf("Normalize = %v, want %v", s, want)
		}
	}
	if err := s.Validate(100); err != nil {
		t.Errorf("normalized schedule invalid: %v", err)
	}
}

func TestPeriodic(t *testing.T) {
	s := Periodic(100, 30)
	want := Schedule{30, 60, 90}
	if len(s) != 3 {
		t.Fatalf("Periodic = %v, want %v", s, want)
	}
	for i := range want {
		if s[i] != want[i] {
			t.Errorf("Periodic = %v, want %v", s, want)
		}
	}
	if got := Periodic(10, 100); len(got) != 0 {
		t.Errorf("period beyond gamma should be empty, got %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("Periodic with k=0 should panic")
		}
	}()
	Periodic(10, 0)
}

func TestTotalTimeNoLB(t *testing.T) {
	// Without LB steps the standard total is the closed-form sum:
	// sum_{t=0}^{gamma-1} [W0/P + (m+a) t] / omega.
	p := refParams()
	g := float64(p.Gamma)
	want := (g*p.W0/float64(p.P) + (p.M+p.A)*g*(g-1)/2) / p.Omega
	got := TotalTimeStd(p, nil)
	if !almostEqual(got, want, 1e-9) {
		t.Errorf("TotalTimeStd(no LB) = %g, want %g", got, want)
	}
}

func TestTotalTimeCountsLBCost(t *testing.T) {
	p := refParams()
	t0 := TotalTimeStd(p, nil)
	t1 := TotalTimeStd(p, Schedule{50})
	// One LB step adds C and resets the per-iteration ramp; with the
	// reference parameters the reset saves more than C for late halves.
	// At minimum the difference must include the cost C exactly when we
	// zero out the benefit, so verify accounting directly instead:
	// evaluating a schedule at gamma-1 (last iteration) yields exactly
	// +C - savings for one iteration.
	if t1 >= t0 {
		t.Logf("schedule at 50 did not pay off (t1=%g t0=%g) — acceptable, depends on C", t1, t0)
	}
	// Make LB free: then balancing mid-run can only help (or tie).
	p2 := p
	p2.C = 0
	if TotalTimeStd(p2, Schedule{50}) > TotalTimeStd(p2, nil) {
		t.Error("free LB step should never hurt the standard method")
	}
	// And an absurdly expensive LB must hurt.
	p3 := p
	p3.C = 1e9
	if TotalTimeStd(p3, Schedule{50}) <= TotalTimeStd(p3, nil) {
		t.Error("an expensive LB step must increase total time")
	}
}

func TestEverySigmaPlusMatchesManualIteration(t *testing.T) {
	p := refParams()
	s := EverySigmaPlus(p)
	if err := s.Validate(p.Gamma); err != nil {
		t.Fatalf("EverySigmaPlus produced invalid schedule: %v", err)
	}
	// Rebuild manually.
	var want Schedule
	lbp := 0
	for {
		sp, err := p.SigmaPlus(lbp)
		if err != nil {
			break
		}
		next := lbp + int(math.Floor(sp))
		if int(math.Floor(sp)) < 1 {
			next = lbp + 1
		}
		if next >= p.Gamma {
			break
		}
		want = append(want, next)
		lbp = next
	}
	if len(s) != len(want) {
		t.Fatalf("schedule = %v, want %v", s, want)
	}
	for i := range want {
		if s[i] != want[i] {
			t.Errorf("schedule = %v, want %v", s, want)
		}
	}
}

func TestMenonIsAlphaZeroSigmaPlus(t *testing.T) {
	p := refParams()
	m := Menon(p)
	z := EverySigmaPlus(p.WithAlpha(0))
	if len(m) != len(z) {
		t.Fatalf("Menon %v != sigma+(alpha=0) %v", m, z)
	}
	for i := range m {
		if m[i] != z[i] {
			t.Errorf("Menon %v != sigma+(alpha=0) %v", m, z)
		}
	}
	if len(m) == 0 {
		t.Error("Menon schedule should have at least one LB step for the reference params")
	}
}

func TestEverySigmaPlusNoOverload(t *testing.T) {
	p := refParams()
	p.N = 0
	p.M = 0
	p.DeltaW = p.A * float64(p.P)
	if s := EverySigmaPlus(p); len(s) != 0 {
		t.Errorf("no-overload schedule should be empty, got %v", s)
	}
}

func TestAlphaZeroTotalsAgree(t *testing.T) {
	p := refParams().WithAlpha(0)
	s := Menon(p)
	std := TotalTimeStd(p, s)
	ul := TotalTimeULBA(p, s)
	if !almostEqual(std, ul, 1e-12) {
		t.Errorf("alpha=0: std %g != ulba %g", std, ul)
	}
}

func TestCountAndString(t *testing.T) {
	s := Schedule{5, 6}
	if s.Count() != 2 {
		t.Errorf("Count = %d", s.Count())
	}
	if s.String() == "" {
		t.Error("String empty")
	}
}

// Property: for any random instance and any valid schedule, ULBA at the best
// of a small alpha grid is never worse than the standard method on the SAME
// schedule-building rule (each method uses its own sigma+ schedule). This is
// the paper's headline claim ("always performs at least as good"), testable
// because alpha = 0 reproduces the standard method exactly.
func TestULBABestAlphaNeverWorseProperty(t *testing.T) {
	f := func(seed uint64) bool {
		p := randomParams(seed)
		pStd := p.WithAlpha(0)
		std := TotalTimeStd(pStd, EverySigmaPlus(pStd))
		best := math.Inf(1)
		for i := 0; i <= 10; i++ {
			pa := p.WithAlpha(float64(i) / 10)
			tt := TotalTimeULBA(pa, EverySigmaPlus(pa))
			if tt < best {
				best = tt
			}
		}
		return best <= std+1e-9*std
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: total time is strictly increasing when appending LB calls whose
// cost exceeds any possible savings (C huge).
func TestExpensiveLBMonotoneProperty(t *testing.T) {
	f := func(seed uint64) bool {
		p := randomParams(seed)
		p.C = 1e12
		t0 := TotalTimeStd(p, nil)
		t1 := TotalTimeStd(p, Schedule{p.Gamma / 2})
		t2 := TotalTimeStd(p, Schedule{p.Gamma / 3, p.Gamma / 2})
		return t0 < t1 && t1 < t2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}
