package gossip

import (
	"testing"

	"ulba/internal/mpisim"
)

func BenchmarkDisseminationRound(b *testing.B) {
	const size = 32
	rounds := Rounds(size)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		err := mpisim.Run(size, testCost(), func(p *mpisim.Proc) error {
			db := NewDB(p.Rank(), size)
			db.Update(p.Rank(), float64(p.Rank()), 0)
			for s := 0; s < rounds; s++ {
				StepScratch(p, db, s, 9, nil)
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeDecode(b *testing.B) {
	entries := make([]Entry, 256)
	for i := range entries {
		entries[i] = Entry{Rank: i, Value: float64(i) * 1.5, Iter: i}
	}
	var frame []byte
	var out []Entry
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		frame = AppendEntries(frame[:0], entries)
		out = DecodeEntriesInto(out[:0], frame)
	}
}

func BenchmarkZScoreDetection(b *testing.B) {
	db := NewDB(0, 256)
	for r := 0; r < 256; r++ {
		wir := 1.0
		if r == 17 {
			wir = 50
		}
		db.Update(r, wir, 0)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _ = db.ZScoreOf(17)
	}
}
