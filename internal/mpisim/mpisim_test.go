package mpisim

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"ulba/internal/stats"
)

func testCost() CostModel {
	return CostModel{Latency: 1e-6, ByteTime: 1e-9, FLOPS: 1e9}
}

func TestSendRecvPayload(t *testing.T) {
	err := Run(2, testCost(), func(p *Proc) error {
		if p.Rank() == 0 {
			p.Send(1, 7, []byte("hello"))
			return nil
		}
		got := p.Recv(0, 7)
		if string(got) != "hello" {
			return fmt.Errorf("payload = %q", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFIFOPerSourceAndTag(t *testing.T) {
	const n = 50
	err := Run(2, testCost(), func(p *Proc) error {
		if p.Rank() == 0 {
			for i := 0; i < n; i++ {
				p.Send(1, 3, []byte{byte(i)})
			}
			return nil
		}
		for i := 0; i < n; i++ {
			got := p.Recv(0, 3)
			if got[0] != byte(i) {
				return fmt.Errorf("message %d out of order: %v", i, got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTagsDoNotCross(t *testing.T) {
	err := Run(2, testCost(), func(p *Proc) error {
		if p.Rank() == 0 {
			p.Send(1, 1, []byte("one"))
			p.Send(1, 2, []byte("two"))
			return nil
		}
		// Receive in reverse tag order: matching must be by tag.
		if got := p.Recv(0, 2); string(got) != "two" {
			return fmt.Errorf("tag 2 = %q", got)
		}
		if got := p.Recv(0, 1); string(got) != "one" {
			return fmt.Errorf("tag 1 = %q", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestVirtualClockSemantics(t *testing.T) {
	cost := testCost()
	clocks, statsAll, err := RunCollect(2, cost, func(p *Proc) error {
		if p.Rank() == 0 {
			p.Compute(1e6) // 1e6 FLOP at 1e9 FLOPS = 1 ms
			p.Send(1, 0, make([]byte, 1000))
			return nil
		}
		p.Recv(0, 0)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Sender: 1ms compute + latency.
	wantSender := 1e-3 + cost.Latency
	if !close2(clocks[0], wantSender) {
		t.Errorf("sender clock = %v, want %v", clocks[0], wantSender)
	}
	// Receiver: data available at 1ms + latency + 1000*ByteTime, plus its
	// own receive overhead.
	wantRecv := 1e-3 + cost.Latency + 1000*cost.ByteTime + cost.Latency
	if !close2(clocks[1], wantRecv) {
		t.Errorf("receiver clock = %v, want %v", clocks[1], wantRecv)
	}
	if statsAll[0].ComputeTime != 1e-3 {
		t.Errorf("sender compute time = %v", statsAll[0].ComputeTime)
	}
	if statsAll[1].WaitTime <= 0 {
		t.Error("receiver should have waited for the data")
	}
	if statsAll[0].MsgsSent != 1 || statsAll[0].BytesSent != 1000 {
		t.Errorf("sender counters wrong: %+v", statsAll[0])
	}
}

func TestNoTimeTravel(t *testing.T) {
	// A receiver that is "ahead" in virtual time does not move backwards.
	clocks, _, err := RunCollect(2, testCost(), func(p *Proc) error {
		if p.Rank() == 0 {
			p.Send(1, 0, []byte{1})
			return nil
		}
		p.Compute(5e6) // receiver is at 5 ms before the data arrives
		p.Recv(0, 0)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if clocks[1] < 5e-3 {
		t.Errorf("receiver clock went backwards: %v", clocks[1])
	}
}

func TestComputePanicsOnNegative(t *testing.T) {
	err := Run(1, testCost(), func(p *Proc) error {
		p.Compute(-1)
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("negative Compute should be reported as a panic, got %v", err)
	}
}

func TestInvalidRankPanics(t *testing.T) {
	err := Run(1, testCost(), func(p *Proc) error {
		p.Send(5, 0, nil)
		return nil
	})
	if err == nil {
		t.Fatal("sending to invalid rank should fail")
	}
}

func TestErrorPropagation(t *testing.T) {
	sentinel := errors.New("rank failure")
	err := Run(3, testCost(), func(p *Proc) error {
		if p.Rank() == 1 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("error not propagated: %v", err)
	}
}

func TestMultipleErrorsJoined(t *testing.T) {
	err := Run(4, testCost(), func(p *Proc) error {
		if p.Rank()%2 == 0 {
			return fmt.Errorf("rank %d failed", p.Rank())
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "2 ranks failed") {
		t.Fatalf("joined error malformed: %v", err)
	}
	// Every failing rank's diagnostic must surface, not just the first.
	for _, want := range []string{"rank 0 failed", "rank 2 failed"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("joined error lost %q: %v", want, err)
		}
	}
}

func TestMultipleErrorsJoinedIs(t *testing.T) {
	// errors.Is must see through the join to every rank's error.
	sentinels := []error{errors.New("a"), errors.New("b")}
	err := Run(3, testCost(), func(p *Proc) error {
		if p.Rank() < 2 {
			return sentinels[p.Rank()]
		}
		return nil
	})
	for i, s := range sentinels {
		if !errors.Is(err, s) {
			t.Errorf("sentinel %d not reachable through the joined error: %v", i, err)
		}
	}
}

func TestSendRecvRingNoDeadlock(t *testing.T) {
	const size = 16
	err := Run(size, testCost(), func(p *Proc) error {
		right := (p.Rank() + 1) % size
		left := (p.Rank() - 1 + size) % size
		p.Send(right, 9, []byte{byte(p.Rank())})
		got := p.Recv(left, 9)
		if got[0] != byte(left) {
			return fmt.Errorf("ring exchange wrong: got %d want %d", got[0], left)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicClocks(t *testing.T) {
	run := func() []float64 {
		clocks, _, err := RunCollect(8, testCost(), func(p *Proc) error {
			rng := stats.NewRNG(uint64(p.Rank()))
			for i := 0; i < 20; i++ {
				p.Compute(rng.Uniform(1e3, 1e6))
				p.AllreduceMax(p.Clock())
			}
			x := p.AllreduceSum(float64(p.Rank()))
			p.Compute(x * 100)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return clocks
	}
	a := run()
	b := run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("clocks differ between identical runs: rank %d %v vs %v", i, a[i], b[i])
		}
	}
}

func TestElapse(t *testing.T) {
	clocks, statsAll, err := RunCollect(1, testCost(), func(p *Proc) error {
		p.Elapse(0.25)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if clocks[0] != 0.25 {
		t.Errorf("clock = %v, want 0.25", clocks[0])
	}
	if statsAll[0].ComputeTime != 0 {
		t.Error("Elapse must not count as compute")
	}
}

func TestWorldSizeValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("a world of 0 ranks should panic")
		}
	}()
	Run(0, testCost(), func(*Proc) error { return nil })
}

func TestCostModelValidate(t *testing.T) {
	if err := DefaultCostModel().Validate(); err != nil {
		t.Errorf("default cost model invalid: %v", err)
	}
	if err := (CostModel{Latency: -1, FLOPS: 1}).Validate(); err == nil {
		t.Error("negative latency accepted")
	}
	if err := (CostModel{FLOPS: 0}).Validate(); err == nil {
		t.Error("zero FLOPS accepted")
	}
}

func close2(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= 1e-12*(1+abs(a)+abs(b))
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Property: messages of random sizes arrive intact between random ranks.
func TestPayloadIntegrityProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		size := 2 + rng.Intn(6)
		n := rng.Intn(2000)
		payload := make([]byte, n)
		for i := range payload {
			payload[i] = byte(rng.Intn(256))
		}
		src := rng.Intn(size)
		dst := (src + 1 + rng.Intn(size-1)) % size
		ok := true
		var mu sync.Mutex
		err := Run(size, testCost(), func(p *Proc) error {
			switch p.Rank() {
			case src:
				p.Send(dst, 5, payload)
			case dst:
				got := p.Recv(src, 5)
				mu.Lock()
				defer mu.Unlock()
				if len(got) != len(payload) {
					ok = false
					return nil
				}
				for i := range got {
					if got[i] != payload[i] {
						ok = false
						return nil
					}
				}
			}
			return nil
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSendHandsBufferOver(t *testing.T) {
	// A self-exchange keeps sender and receiver on one goroutine, so the
	// identity of the backing array can be checked without a data race.
	err := Run(1, testCost(), func(p *Proc) error {
		buf := []byte{1, 2, 3}
		p.Send(0, 4, buf)
		got := p.Recv(0, 4)
		if &got[0] != &buf[0] {
			return fmt.Errorf("Send copied the payload")
		}
		p.SendV(0, 5, buf, 1<<20)
		if got := p.Stats().BytesSent; got != 3+1<<20 {
			return fmt.Errorf("SendV charged %d bytes", got)
		}
		p.Recv(0, 5)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSetSpeedScalesCompute(t *testing.T) {
	clocks, statsAll, err := RunCollect(2, testCost(), func(p *Proc) error {
		if p.Rank() == 1 {
			p.SetSpeed(4)
		}
		p.Compute(1e6) // 1 ms at the reference 1e9 FLOPS
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if clocks[0] != 1e-3 || clocks[1] != 0.25e-3 {
		t.Errorf("clocks = %v, want [0.001 0.00025]", clocks)
	}
	if statsAll[1].ComputeTime != 0.25e-3 {
		t.Errorf("fast rank compute time = %v, want 0.00025", statsAll[1].ComputeTime)
	}
	for _, speed := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		err := Run(1, testCost(), func(p *Proc) error {
			p.SetSpeed(speed)
			return nil
		})
		if err == nil || !strings.Contains(err.Error(), "invalid speed") {
			t.Errorf("SetSpeed(%v) should panic, got %v", speed, err)
		}
	}
}

func TestNoSpuriousWakeups(t *testing.T) {
	// Cross-stream traffic with forced interleaving (see the wakeup
	// benchmark) must never wake a receiver that cannot consume.
	w := newWorld(3, testCost())
	err := w.run(func(p *Proc) error {
		switch p.Rank() {
		case 0:
			for n := 0; n < 64; n++ {
				p.Send(2, 2, nil)
				p.Send(1, 3, nil)
				p.Recv(1, 4)
			}
			p.Send(2, 1, nil)
		case 1:
			for n := 0; n < 64; n++ {
				p.Recv(0, 3)
				p.Send(0, 4, nil)
			}
		case 2:
			p.Recv(0, 1)
			for n := 0; n < 64; n++ {
				p.Recv(0, 2)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, box := range w.boxes {
		if box.spurious != 0 {
			t.Errorf("rank %d saw %d spurious wakeups", r, box.spurious)
		}
	}
}

func TestSendVNilPayloadChargesVirtualBytes(t *testing.T) {
	// The synthetic runtime runner migrates recomputable state: it sends
	// nil payloads whose cost model still charges the modeled wire size.
	// The receiver must block until the virtual transfer completes and
	// get back an empty (not nil-panicking) payload.
	cost := CostModel{Latency: 1e-6, ByteTime: 1e-9, FLOPS: 1e9}
	const virtual = 1 << 20
	var recvClock float64
	err := Run(2, cost, func(p *Proc) error {
		switch p.Rank() {
		case 0:
			p.SendV(1, 7, nil, virtual)
			if got := p.Stats().BytesSent; got != virtual {
				return fmt.Errorf("sender charged %d bytes, want %d", got, virtual)
			}
		case 1:
			payload := p.Recv(0, 7)
			if len(payload) != 0 {
				return fmt.Errorf("nil payload arrived as %d bytes", len(payload))
			}
			recvClock = p.Clock()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// The receive completes no earlier than the full modeled transfer:
	// send latency + serialization, plus the receiver's own latency.
	wantMin := cost.Latency + virtual*cost.ByteTime + cost.Latency
	if recvClock < wantMin {
		t.Fatalf("receiver clock %g beat the modeled transfer time %g", recvClock, wantMin)
	}
}
