package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give same stream")
		}
	}
	c := NewRNG(43)
	diff := false
	a = NewRNG(42)
	for i := 0; i < 10; i++ {
		if a.Uint64() != c.Uint64() {
			diff = true
		}
	}
	if !diff {
		t.Error("different seeds should give different streams")
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 10000; i++ {
		x := r.Float64()
		if x < 0 || x >= 1 {
			t.Fatalf("Float64 out of range: %v", x)
		}
	}
}

func TestUniformRange(t *testing.T) {
	r := NewRNG(7)
	lo, hi := -3.5, 12.25
	for i := 0; i < 10000; i++ {
		x := r.Uniform(lo, hi)
		if x < lo || x >= hi {
			t.Fatalf("Uniform out of range: %v", x)
		}
	}
}

func TestUniformMeanApprox(t *testing.T) {
	r := NewRNG(99)
	var run Running
	for i := 0; i < 100000; i++ {
		run.Add(r.Uniform(0, 10))
	}
	if math.Abs(run.Mean()-5) > 0.1 {
		t.Errorf("uniform(0,10) mean = %v, want ~5", run.Mean())
	}
}

func TestIntnRangeAndPanic(t *testing.T) {
	r := NewRNG(5)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(4)
		if v < 0 || v >= 4 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 4 {
		t.Errorf("Intn(4) did not hit all values: %v", seen)
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	r.Intn(0)
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(11)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestHashUniformDeterministicAndUniform(t *testing.T) {
	if HashUniform(1, 2, 3) != HashUniform(1, 2, 3) {
		t.Error("HashUniform must be deterministic")
	}
	if HashUniform(1, 2, 3) == HashUniform(1, 2, 4) {
		t.Error("HashUniform should differ on different inputs")
	}
	// Uniformity smoke test over a grid of cells.
	var run Running
	for x := uint64(0); x < 100; x++ {
		for y := uint64(0); y < 100; y++ {
			u := HashUniform(12345, 7, x, y)
			if u < 0 || u >= 1 {
				t.Fatalf("HashUniform out of range: %v", u)
			}
			run.Add(u)
		}
	}
	if math.Abs(run.Mean()-0.5) > 0.02 {
		t.Errorf("HashUniform mean = %v, want ~0.5", run.Mean())
	}
	// Variance of U(0,1) is 1/12.
	if math.Abs(run.Variance()-1.0/12) > 0.01 {
		t.Errorf("HashUniform variance = %v, want ~%v", run.Variance(), 1.0/12)
	}
}

func TestHashUniformOrderSensitivity(t *testing.T) {
	// (x, y) must not collide with (y, x) in general.
	if HashUniform(9, 2, 5) == HashUniform(9, 5, 2) {
		t.Error("HashUniform should be order sensitive")
	}
}

func TestSplitDerivesIndependentStream(t *testing.T) {
	r := NewRNG(1234)
	s := r.Split()
	equal := 0
	for i := 0; i < 100; i++ {
		if r.Uint64() == s.Uint64() {
			equal++
		}
	}
	if equal > 2 {
		t.Errorf("split stream tracks parent: %d collisions", equal)
	}
}

// Property: HashUniform depends on every argument.
func TestHashUniformArgSensitivityProperty(t *testing.T) {
	f := func(a, b, c uint64) bool {
		base := HashUniform(a, b, c)
		return base != HashUniform(a+1, b, c) ||
			base != HashUniform(a, b+1, c) ||
			base != HashUniform(a, b, c+1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMix64AvalancheSmoke(t *testing.T) {
	// Flipping one input bit should flip roughly half the output bits.
	var total int
	const trials = 256
	for i := 0; i < trials; i++ {
		x := NewRNG(uint64(i)).Uint64()
		d := Mix64(x) ^ Mix64(x^1)
		total += popcount(d)
	}
	avg := float64(total) / trials
	if avg < 24 || avg > 40 {
		t.Errorf("avalanche average bit flips = %v, want ~32", avg)
	}
}

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}
