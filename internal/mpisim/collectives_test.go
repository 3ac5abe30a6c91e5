package mpisim

import (
	"fmt"
	"testing"
	"testing/quick"

	"ulba/internal/stats"
)

// worldSizes exercises powers of two, odd, prime, and singleton sizes.
var worldSizes = []int{1, 2, 3, 4, 5, 7, 8, 13, 16, 17}

// The max-allreduce of the clocks is the iteration barrier of both
// runners: no rank leaves it before the slowest rank has arrived.
func TestBarrierSynchronizesClocks(t *testing.T) {
	for _, size := range worldSizes {
		size := size
		t.Run(fmt.Sprintf("P=%d", size), func(t *testing.T) {
			before := make([]float64, size)
			after := make([]float64, size)
			_, _, err := RunCollect(size, testCost(), func(p *Proc) error {
				// Stagger the ranks: rank r computes r ms.
				p.Compute(float64(p.Rank()) * 1e6)
				before[p.Rank()] = p.Clock()
				p.AllreduceMax(p.Clock())
				after[p.Rank()] = p.Clock()
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			maxBefore := 0.0
			for _, c := range before {
				if c > maxBefore {
					maxBefore = c
				}
			}
			for r, c := range after {
				if c < maxBefore {
					t.Errorf("rank %d left the barrier at %v before the slowest rank arrived at %v", r, c, maxBefore)
				}
			}
		})
	}
}

func TestBcastAllSizesAndRoots(t *testing.T) {
	for _, size := range worldSizes {
		for root := 0; root < size; root += 1 + size/3 {
			size, root := size, root
			t.Run(fmt.Sprintf("P=%d root=%d", size, root), func(t *testing.T) {
				payload := []byte("broadcast-payload")
				err := Run(size, testCost(), func(p *Proc) error {
					var in []byte
					if p.Rank() == root {
						in = payload
					}
					got := p.Bcast(root, in)
					if string(got) != string(payload) {
						return fmt.Errorf("rank %d got %q", p.Rank(), got)
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

func TestBcastLogDepth(t *testing.T) {
	// The binomial tree must complete in O(log P) latency, not O(P).
	cost := CostModel{Latency: 1e-3, ByteTime: 0, FLOPS: 1e9}
	const size = 64 // depth 6
	clocks, _, err := RunCollect(size, cost, func(p *Proc) error {
		p.Bcast(0, []byte{42})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	maxClock := 0.0
	for _, c := range clocks {
		if c > maxClock {
			maxClock = c
		}
	}
	// Each hop costs ~2 latencies (send overhead + recv overhead); allow
	// generous slack but far below linear (64 * 1ms).
	if maxClock > 20e-3 {
		t.Errorf("broadcast took %v, want O(log P) ~ 12ms, not O(P) ~ 64ms+", maxClock)
	}
}

func TestGatherCollectsVariableSizes(t *testing.T) {
	for _, size := range worldSizes {
		size := size
		t.Run(fmt.Sprintf("P=%d", size), func(t *testing.T) {
			err := Run(size, testCost(), func(p *Proc) error {
				data := make([]byte, p.Rank()+1)
				for i := range data {
					data[i] = byte(p.Rank())
				}
				parts := p.Gather(0, data)
				if p.Rank() != 0 {
					if parts != nil {
						return fmt.Errorf("non-root got parts")
					}
					return nil
				}
				if len(parts) != size {
					return fmt.Errorf("root got %d parts", len(parts))
				}
				for r, part := range parts {
					if len(part) != r+1 {
						return fmt.Errorf("part %d has length %d", r, len(part))
					}
					for _, b := range part {
						if b != byte(r) {
							return fmt.Errorf("part %d corrupted: %v", r, part)
						}
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestReduceSumAndMax(t *testing.T) {
	for _, size := range worldSizes {
		size := size
		t.Run(fmt.Sprintf("P=%d", size), func(t *testing.T) {
			wantSum := 0.0
			wantMax := 0.0
			for r := 0; r < size; r++ {
				v := float64(r*r + 1)
				wantSum += v
				if v > wantMax {
					wantMax = v
				}
			}
			err := Run(size, testCost(), func(p *Proc) error {
				v := float64(p.Rank()*p.Rank() + 1)
				sum := []float64{v}
				if isRoot := p.reduceInPlace(0, sum, OpSum); isRoot != (p.Rank() == 0) {
					return fmt.Errorf("rank %d: reduce reports root = %v", p.Rank(), isRoot)
				}
				if p.Rank() == 0 && !close2(sum[0], wantSum) {
					return fmt.Errorf("sum = %v, want %v", sum[0], wantSum)
				}
				got := p.AllreduceMax(v)
				if got != wantMax {
					return fmt.Errorf("allreduce max = %v, want %v", got, wantMax)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestReduceNonzeroRoot(t *testing.T) {
	const size, root = 6, 4
	err := Run(size, testCost(), func(p *Proc) error {
		res := []float64{1}
		if isRoot := p.reduceInPlace(root, res, OpSum); isRoot != (p.Rank() == root) {
			return fmt.Errorf("rank %d: reduce reports root = %v", p.Rank(), isRoot)
		}
		if p.Rank() == root && res[0] != float64(size) {
			return fmt.Errorf("sum = %v, want %v", res[0], size)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceVector(t *testing.T) {
	const size = 5
	err := Run(size, testCost(), func(p *Proc) error {
		vec := []float64{float64(p.Rank()), float64(-p.Rank()), 1}
		p.AllreduceInPlace(vec, OpSum)
		want := []float64{10, -10, 5} // sum 0..4 = 10
		for i := range want {
			if !close2(vec[i], want[i]) {
				return fmt.Errorf("allreduce[%d] = %v, want %v", i, vec[i], want[i])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// AllreduceInPlace takes any associative, commutative op, not only the
// built-in sum and max.
func TestAllreduceMinOp(t *testing.T) {
	opMin := func(dst, src []float64) {
		for i := range dst {
			dst[i] = min(dst[i], src[i])
		}
	}
	const size = 7
	err := Run(size, testCost(), func(p *Proc) error {
		got := []float64{float64(p.Rank() + 3)}
		p.AllreduceInPlace(got, opMin)
		if got[0] != 3 {
			return fmt.Errorf("min = %v, want 3", got[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCollectivesBackToBack(t *testing.T) {
	// Tag reuse across consecutive collectives must not cross-match:
	// run many collectives in a row with rank-dependent timing skew.
	const size = 8
	err := Run(size, testCost(), func(p *Proc) error {
		rng := stats.NewRNG(uint64(p.Rank() + 1))
		for round := 0; round < 30; round++ {
			p.Compute(rng.Uniform(0, 1e5))
			sum := p.AllreduceSum(float64(round))
			if sum != float64(round*size) {
				return fmt.Errorf("round %d: sum = %v", round, sum)
			}
			data := p.Bcast(round%size, []byte{byte(round)})
			if data[0] != byte(round) {
				return fmt.Errorf("round %d: bcast = %v", round, data)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestScalarShorthands(t *testing.T) {
	err := Run(4, testCost(), func(p *Proc) error {
		if got := p.AllreduceSum(1); got != 4 {
			return fmt.Errorf("AllreduceSum = %v", got)
		}
		if got := p.AllreduceMax(float64(p.Rank())); got != 3 {
			return fmt.Errorf("AllreduceMax = %v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Property: AllreduceInPlace(sum) equals the sequential sum for random
// vectors and world sizes.
func TestAllreduceSumProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		size := 1 + rng.Intn(12)
		dim := 1 + rng.Intn(8)
		inputs := make([][]float64, size)
		want := make([]float64, dim)
		for r := range inputs {
			inputs[r] = make([]float64, dim)
			for d := range inputs[r] {
				inputs[r][d] = rng.Uniform(-100, 100)
				want[d] += inputs[r][d]
			}
		}
		ok := true
		err := Run(size, testCost(), func(p *Proc) error {
			got := inputs[p.Rank()]
			p.AllreduceInPlace(got, OpSum)
			for d := range want {
				// Tree order differs from sequential order; allow
				// float tolerance.
				if diff := got[d] - want[d]; diff > 1e-9 || diff < -1e-9 {
					ok = false
				}
			}
			return nil
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestWirePackUnpack(t *testing.T) {
	xs := []float64{0, 1.5, -2.25, 1e308, -1e-300}
	if got := UnpackFloat64s(PackFloat64s(xs)); len(got) != len(xs) {
		t.Fatal("float64 round trip length")
	} else {
		for i := range xs {
			if got[i] != xs[i] {
				t.Errorf("float64 round trip [%d]: %v != %v", i, got[i], xs[i])
			}
		}
	}
	is := []int{0, 1, -1, 1 << 40, -(1 << 40)}
	got := UnpackInts(PackInts(is))
	for i := range is {
		if got[i] != is[i] {
			t.Errorf("int round trip [%d]: %v != %v", i, got[i], is[i])
		}
	}
}

func TestWirePanicsOnCorruptPayloads(t *testing.T) {
	for name, f := range map[string]func(){
		"floats": func() { UnpackFloat64s(make([]byte, 7)) },
		"ints":   func() { UnpackInts(make([]byte, 9)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: corrupt payload should panic", name)
				}
			}()
			f()
		}()
	}
}
