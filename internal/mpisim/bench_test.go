package mpisim

import (
	"fmt"
	"testing"
)

func BenchmarkSendRecvPingPong(b *testing.B) {
	payload := make([]byte, 1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		err := Run(2, testCost(), func(p *Proc) error {
			if p.Rank() == 0 {
				p.Send(1, 0, payload)
				p.Recv(1, 1)
			} else {
				p.Recv(0, 0)
				p.Send(0, 1, payload)
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAllreduce(b *testing.B) {
	for _, size := range []int{8, 32} {
		b.Run(fmt.Sprintf("P=%d", size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				err := Run(size, testCost(), func(p *Proc) error {
					for r := 0; r < 10; r++ {
						p.AllreduceSum(float64(p.Rank()))
					}
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMailboxWakeups measures how often a blocked receiver is woken by
// a delivery it cannot consume: one rank waits for a specific (src, tag)
// stream while its mailbox is flooded with unrelated traffic. With a single
// broadcast condition variable per mailbox every unrelated delivery woke
// the waiter (measured 512.0 spurious-wakeups/op on this scenario); the
// per-stream condition variables wake a waiter only when its own stream has
// data (measured 0).
func BenchmarkMailboxWakeups(b *testing.B) {
	// Rank 2 blocks on stream (0, 1) while rank 0 floods it with unrelated
	// tag-2 traffic; the ping-pong with rank 1 forces rank 0 to yield after
	// every noise message so the waiter genuinely re-parks between
	// deliveries (otherwise a single-core scheduler batches the flood).
	const noise = 512
	var spurious uint64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w := newWorld(3, testCost())
		err := w.run(func(p *Proc) error {
			switch p.Rank() {
			case 0:
				for n := 0; n < noise; n++ {
					p.Send(2, 2, nil)
					p.Send(1, 3, nil)
					p.Recv(1, 4)
				}
				p.Send(2, 1, nil)
			case 1:
				for n := 0; n < noise; n++ {
					p.Recv(0, 3)
					p.Send(0, 4, nil)
				}
			case 2:
				p.Recv(0, 1) // blocks until the matching message, last to arrive
				for n := 0; n < noise; n++ {
					p.Recv(0, 2)
				}
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, box := range w.boxes {
			spurious += box.spurious
		}
	}
	b.ReportMetric(float64(spurious)/float64(b.N), "spurious-wakeups/op")
}

func BenchmarkGatherBcast(b *testing.B) {
	const size = 32
	payload := make([]byte, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		err := Run(size, testCost(), func(p *Proc) error {
			parts := p.Gather(0, payload)
			var out []byte
			if p.Rank() == 0 {
				out = parts[0]
			}
			p.Bcast(0, out)
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
