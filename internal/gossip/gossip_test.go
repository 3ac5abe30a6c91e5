package gossip

import (
	"fmt"
	"testing"
	"testing/quick"

	"ulba/internal/mpisim"
	"ulba/internal/stats"
)

func testCost() mpisim.CostModel {
	return mpisim.CostModel{Latency: 1e-6, ByteTime: 1e-9, FLOPS: 1e9}
}

func TestDBUpdateFreshnessWins(t *testing.T) {
	db := NewDB(0, 4)
	db.Update(2, 1.0, 5)
	db.Update(2, 2.0, 3) // staler: ignored
	if e, ok := db.Get(2); !ok || e.Value != 1.0 || e.Iter != 5 {
		t.Errorf("stale update overwrote fresher entry: %+v", e)
	}
	db.Update(2, 3.0, 5) // same iteration, larger value: wins
	if e, _ := db.Get(2); e.Value != 3.0 {
		t.Errorf("same-iteration larger value should win: %+v", e)
	}
	db.Update(2, 2.5, 5) // same iteration, smaller value: ignored
	if e, _ := db.Get(2); e.Value != 3.0 {
		t.Errorf("same-iteration smaller value should lose: %+v", e)
	}
	db.Update(2, 4.0, 9)
	if e, _ := db.Get(2); e.Value != 4.0 || e.Iter != 9 {
		t.Errorf("fresher update should win: %+v", e)
	}
}

func TestDBBasics(t *testing.T) {
	db := NewDB(1, 3)
	if db.KnownCount() != 0 {
		t.Error("fresh DB should be empty")
	}
	if _, ok := db.Get(0); ok {
		t.Error("unknown rank should not be gettable")
	}
	if _, ok := db.Get(-1); ok {
		t.Error("invalid rank should not be gettable")
	}
	db.Update(0, 5, 0)
	db.Update(1, 7, 0)
	if db.KnownCount() != 2 {
		t.Errorf("KnownCount = %d", db.KnownCount())
	}
	values := db.Values()
	if len(values) != 2 || values[0] != 5 || values[1] != 7 {
		t.Errorf("Values = %v", values)
	}
	snap := db.Snapshot()
	if len(snap) != 2 || snap[0].Rank != 0 || snap[1].Rank != 1 {
		t.Errorf("Snapshot = %v", snap)
	}
}

func TestDBPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("invalid self should panic")
		}
	}()
	NewDB(5, 3)
}

func TestDBUpdatePanicsOnBadRank(t *testing.T) {
	db := NewDB(0, 2)
	defer func() {
		if recover() == nil {
			t.Error("invalid rank update should panic")
		}
	}()
	db.Update(7, 1, 1)
}

// staleness returns the age, in iterations relative to now, of the oldest
// entry db knows.
func staleness(db *DB, now int) int {
	worst := 0
	for _, e := range db.Snapshot() {
		worst = max(worst, now-e.Iter)
	}
	return worst
}

func TestZScoreOf(t *testing.T) {
	db := NewDB(0, 32)
	for r := 0; r < 32; r++ {
		wir := 1.0
		if r == 5 {
			wir = 10.0
		}
		db.Update(r, wir, 0)
	}
	z, ok := db.ZScoreOf(5)
	if !ok {
		t.Fatal("rank 5 should be known")
	}
	// Single outlier among 32: z = sqrt(31) > 3 (the paper's threshold).
	if z < 3 {
		t.Errorf("outlier z = %v, want > 3", z)
	}
	z0, _ := db.ZScoreOf(0)
	if z0 >= 3 {
		t.Errorf("inlier z = %v, want < 3", z0)
	}
	if _, ok := db.ZScoreOf(99); ok {
		t.Error("unknown rank should report !ok")
	}
}

// TestZScoreOfAllocatesNothing pins the detector's per-iteration read: the
// z-score reuses the database's scratch population instead of allocating
// one per call.
func TestZScoreOfAllocatesNothing(t *testing.T) {
	db := NewDB(0, 32)
	for r := 0; r < 32; r++ {
		db.Update(r, float64(r%5), 0)
	}
	if allocs := testing.AllocsPerRun(100, func() { db.ZScoreOf(7) }); allocs != 0 {
		t.Fatalf("ZScoreOf allocates %v times per call, want 0", allocs)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	in := []Entry{{Rank: 3, Value: -1.5, Iter: 42}, {Rank: 0, Value: 0, Iter: 0}}
	out := DecodeEntriesInto(nil, AppendEntries(nil, in))
	if len(out) != len(in) {
		t.Fatal("length mismatch")
	}
	for i := range in {
		if out[i] != in[i] {
			t.Errorf("entry %d: %+v != %+v", i, out[i], in[i])
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("corrupt payload should panic")
		}
	}()
	DecodeEntriesInto(nil, make([]byte, 5))
}

func TestRounds(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 256: 8}
	for size, want := range cases {
		if got := Rounds(size); got != want {
			t.Errorf("Rounds(%d) = %d, want %d", size, got, want)
		}
	}
}

// After ceil(log2 P) consecutive steps every PE must know every WIR.
func TestFullDisseminationWithinLogRounds(t *testing.T) {
	for _, size := range []int{2, 3, 4, 7, 8, 16, 33} {
		size := size
		t.Run(fmt.Sprintf("P=%d", size), func(t *testing.T) {
			rounds := Rounds(size)
			err := mpisim.Run(size, testCost(), func(p *mpisim.Proc) error {
				db := NewDB(p.Rank(), size)
				db.Update(p.Rank(), float64(p.Rank())*1.5, 0)
				for s := 0; s < rounds; s++ {
					StepScratch(p, db, s, 100, nil)
				}
				if db.KnownCount() != size {
					return fmt.Errorf("rank %d knows %d/%d after %d rounds",
						p.Rank(), db.KnownCount(), size, rounds)
				}
				for r := 0; r < size; r++ {
					e, ok := db.Get(r)
					if !ok || e.Value != float64(r)*1.5 {
						return fmt.Errorf("rank %d has wrong entry for %d: %+v", p.Rank(), r, e)
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

// Dissemination starting at an arbitrary phase still covers everyone within
// one full cycle (subset sums of the offsets are order independent).
func TestDisseminationAnyPhase(t *testing.T) {
	const size = 16
	rounds := Rounds(size)
	for phase := 0; phase < rounds; phase++ {
		phase := phase
		err := mpisim.Run(size, testCost(), func(p *mpisim.Proc) error {
			db := NewDB(p.Rank(), size)
			db.Update(p.Rank(), 1, 0)
			for s := phase; s < phase+rounds; s++ {
				StepScratch(p, db, s, 7, nil)
			}
			if db.KnownCount() != size {
				return fmt.Errorf("phase %d: rank %d knows only %d", phase, p.Rank(), db.KnownCount())
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// Continuous gossip keeps entries fresh: after k extra iterations in which
// every PE re-measures, no entry is older than the dissemination diameter.
func TestContinuousGossipBoundsStaleness(t *testing.T) {
	const size = 8
	rounds := Rounds(size)
	err := mpisim.Run(size, testCost(), func(p *mpisim.Proc) error {
		db := NewDB(p.Rank(), size)
		const iters = 30
		for i := 0; i < iters; i++ {
			db.Update(p.Rank(), float64(i), i)
			StepScratch(p, db, i, 55, nil)
		}
		if stale := staleness(db, iters-1); stale > rounds {
			return fmt.Errorf("rank %d staleness %v exceeds diameter %d", p.Rank(), stale, rounds)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestStepSingleton(t *testing.T) {
	err := mpisim.Run(1, testCost(), func(p *mpisim.Proc) error {
		db := NewDB(0, 1)
		db.Update(0, 1, 0)
		StepScratch(p, db, 0, 3, nil) // must be a no-op, not a deadlock
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Property: a database's final state is a pure function of the SET of
// entries it absorbed — independent of arrival order, grouping into
// batches, or duplication. This includes equal-Iter ties (deterministic
// tie-break on the larger value), which the doubling ring produces whenever
// two paths deliver different same-iteration observations; a receive-order-
// dependent merge would let replicas disagree forever.
func TestMergeOrderIndependenceProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		size := 2 + rng.Intn(10)
		n := 1 + rng.Intn(25)
		entries := make([]Entry, n)
		for i := range entries {
			entries[i] = Entry{
				Rank: rng.Intn(size),
				// A coarse value grid forces equal-Iter ties with both
				// equal and differing values.
				Value: float64(rng.Intn(4)),
				Iter:  rng.Intn(5),
			}
		}

		apply := func(perm []int, batches int) *DB {
			db := NewDB(0, size)
			start := 0
			for b := 0; b < batches; b++ {
				end := start + (n-start)/(batches-b)
				batch := make([]Entry, 0, end-start)
				for _, idx := range perm[start:end] {
					batch = append(batch, entries[idx])
				}
				db.Merge(batch)
				start = end
			}
			return db
		}

		identity := make([]int, n)
		for i := range identity {
			identity[i] = i
		}
		want := apply(identity, 1)

		for trial := 0; trial < 4; trial++ {
			perm := append([]int(nil), identity...)
			for i := n - 1; i > 0; i-- {
				j := rng.Intn(i + 1)
				perm[i], perm[j] = perm[j], perm[i]
			}
			// Duplicate a random prefix to check idempotence too.
			dup := append(append([]int(nil), perm...), perm[:rng.Intn(n)]...)
			db := NewDB(0, size)
			for _, chunk := range [][]int{dup[:len(dup)/2], dup[len(dup)/2:]} {
				batch := make([]Entry, 0, len(chunk))
				for _, idx := range chunk {
					batch = append(batch, entries[idx])
				}
				db.Merge(batch)
			}
			_ = apply(perm, 1+rng.Intn(3))
			for r := 0; r < size; r++ {
				e1, ok1 := want.Get(r)
				e2, ok2 := db.Get(r)
				if ok1 != ok2 || (ok1 && e1 != e2) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Merge must ignore out-of-range ranks instead of panicking: a cluster peer
// with a larger peer list must not crash everyone it gossips with.
func TestMergeIgnoresForeignRanks(t *testing.T) {
	db := NewDB(0, 3)
	db.Merge([]Entry{{Rank: 7, Value: 1, Iter: 1}, {Rank: -1, Value: 1, Iter: 1}, {Rank: 2, Value: 4, Iter: 1}})
	if db.KnownCount() != 1 {
		t.Fatalf("KnownCount = %d, want 1", db.KnownCount())
	}
	if e, ok := db.Get(2); !ok || e.Value != 4 {
		t.Errorf("in-range entry lost: %+v ok=%v", e, ok)
	}
}

// Partner must be a paired exchange (dst's src is me) and the union of the
// offsets over one full cycle must cover every nonzero distance — the
// property the log-round dissemination bound rests on.
func TestPartnerSchedule(t *testing.T) {
	for _, size := range []int{1, 2, 3, 5, 8, 13} {
		rounds := Rounds(size)
		covered := map[int]bool{}
		for s := 0; s < rounds; s++ {
			for rank := 0; rank < size; rank++ {
				dst, src := Partner(rank, s, size)
				if back, _ := Partner(src, s, size); back != rank {
					t.Fatalf("size %d step %d: rank %d receives from %d whose dst is %d", size, s, rank, src, back)
				}
				if rank == 0 {
					covered[dst] = true
				}
			}
		}
		if size == 1 {
			if dst, src := Partner(0, 0, 1); dst != 0 || src != 0 {
				t.Fatal("singleton partner should be self")
			}
			continue
		}
		for d := 1; d < size; d++ {
			// Offsets are 2^s; subset sums cover every distance, but each
			// single step covers only power-of-two distances. Check the
			// one-step reachability set is exactly the offsets.
			want := false
			for s := 0; s < rounds; s++ {
				if (1<<s)%size == d {
					want = true
				}
			}
			if covered[d] != want {
				t.Errorf("size %d: distance %d covered=%v, want %v", size, d, covered[d], want)
			}
		}
	}
}

// AppendSnapshot with sufficient capacity must not reallocate, and must
// produce the same entries as Snapshot.
func TestAppendSnapshotReuses(t *testing.T) {
	db := NewDB(0, 8)
	for r := 0; r < 8; r += 2 {
		db.Update(r, float64(r), 1)
	}
	scratch := make([]Entry, 0, 8)
	got := db.AppendSnapshot(scratch)
	if &got[:1][0] != &scratch[:1][0] {
		t.Fatal("AppendSnapshot reallocated despite sufficient capacity")
	}
	want := db.Snapshot()
	if len(got) != len(want) {
		t.Fatalf("AppendSnapshot len %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("entry %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// The codec must reuse caller buffers that have the capacity: appending to
// a reused frame writes the same wire bytes into the same memory.
func TestAppendDecodeEntriesInto(t *testing.T) {
	entries := []Entry{{Rank: 0, Value: 1.5, Iter: 3}, {Rank: 5, Value: -2, Iter: 7}}
	wire := AppendEntries(nil, entries)
	frame := make([]byte, 0, len(wire))
	got := AppendEntries(frame, entries)
	if string(got) != string(wire) {
		t.Fatal("AppendEntries into a reused frame wrote different bytes")
	}
	if &got[0] != &frame[:1][0] {
		t.Fatal("AppendEntries reallocated despite sufficient capacity")
	}
	scratch := make([]Entry, 0, 2)
	back := DecodeEntriesInto(scratch, wire)
	if len(back) != 2 || back[0] != entries[0] || back[1] != entries[1] {
		t.Fatalf("DecodeEntriesInto = %+v", back)
	}
	if &back[:1][0] != &scratch[:1][0] {
		t.Fatal("DecodeEntriesInto reallocated despite sufficient capacity")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("DecodeEntriesInto should panic on corrupt payload")
		}
	}()
	DecodeEntriesInto(nil, wire[:5])
}

// A long gossip loop over the simulated runtime with a reused Scratch must
// disseminate exactly like steps with a nil (freshly allocated) scratch.
func TestStepScratchMatchesStep(t *testing.T) {
	const size = 8
	const iters = 24
	collect := func(useScratch bool) ([]int, error) {
		final := make([]int, size)
		err := mpisim.Run(size, testCost(), func(p *mpisim.Proc) error {
			db := NewDB(p.Rank(), size)
			var s Scratch
			for i := 0; i < iters; i++ {
				db.Update(p.Rank(), float64(p.Rank()*100+i), i)
				if useScratch {
					StepScratch(p, db, i, 42, &s)
				} else {
					StepScratch(p, db, i, 42, nil)
				}
			}
			final[p.Rank()] = db.KnownCount()
			if stale := staleness(db, iters-1); stale > Rounds(size) {
				return fmt.Errorf("rank %d staleness %v", p.Rank(), stale)
			}
			return nil
		})
		return final, err
	}
	plain, err := collect(false)
	if err != nil {
		t.Fatal(err)
	}
	scratched, err := collect(true)
	if err != nil {
		t.Fatal(err)
	}
	for r := range plain {
		if plain[r] != scratched[r] {
			t.Fatalf("rank %d: scratch path knows %d, plain path %d", r, scratched[r], plain[r])
		}
	}
}
