// Package gossip implements the per-PE observation database and the
// dissemination algorithm of Section III-C of the paper: "each PE keeps a
// database that stores the WIR of every PE. Each PE evaluates its WIR and
// propagates it (as well as the most recent WIRs in its database) to the
// other PEs using a dissemination algorithm; one dissemination step is done
// at each iteration to mitigate the overhead due to the WIR communication."
//
// The dissemination pattern is a deterministic doubling ring: at step s each
// rank pushes its whole database to (rank + 2^(s mod ceil(log2 P))) mod P
// and receives from the mirror rank. Because subset sums of the offsets
// {1, 2, 4, ..., 2^(L-1)} cover every distance, any L = ceil(log2 P)
// consecutive steps propagate every entry to every PE, matching the paper's
// observation that entries are still "up to date" a few steps after
// measurement under the principle of persistence.
//
// The database and the partner schedule (Partner, Rounds) are pure;
// StepScratch runs one dissemination exchange over the simulated MPI
// runtime (*mpisim.Proc), the substrate the erosion runner's PEs run on,
// as one plain Send and Recv.
//
// Merging is a deterministic join: entries are totally ordered by
// (Iter, Value), so folding any set of observations into a database yields
// the same final state regardless of arrival order, grouping, or
// duplication (the merge is commutative, associative, and idempotent). That
// order-independence is what lets concurrent disseminators converge on one
// agreed view.
package gossip

import (
	"encoding/binary"
	"fmt"
	"math"

	"ulba/internal/mpisim"
	"ulba/internal/stats"
)

// Entry is one rank's observation — the WIR of a simulated PE — stamped
// with the iteration at which it was measured so merges can keep the
// freshest value.
type Entry struct {
	Rank  int
	Value float64
	Iter  int
}

// supersedes reports whether e wins over old in the deterministic merge
// order: fresher iterations win, and equal iterations are tied by the
// larger value — a total order, so merging is order-independent.
func (e Entry) supersedes(old Entry) bool {
	if e.Iter != old.Iter {
		return e.Iter > old.Iter
	}
	return e.Value > old.Value
}

// DB is the per-rank database of the freshest known observation of every
// rank. It is not safe for concurrent use.
type DB struct {
	entries []Entry
	known   []bool
}

// NewDB creates an empty database for a world of size ranks, owned by rank
// self.
func NewDB(self, size int) *DB {
	if self < 0 || self >= size {
		panic(fmt.Sprintf("gossip: self rank %d out of range for size %d", self, size))
	}
	return &DB{
		entries: make([]Entry, size),
		known:   make([]bool, size),
	}
}

// Update records an observation for rank if it supersedes the stored one
// under the deterministic merge order (fresher iteration wins; equal
// iterations tie-break on the larger value). Updating and merging go through
// the same join, so a database's final state never depends on the order
// observations arrived in.
func (db *DB) Update(rank int, value float64, iter int) {
	if rank < 0 || rank >= len(db.entries) {
		panic(fmt.Sprintf("gossip: update for invalid rank %d", rank))
	}
	e := Entry{Rank: rank, Value: value, Iter: iter}
	if db.known[rank] && !e.supersedes(db.entries[rank]) {
		return
	}
	db.entries[rank] = e
	db.known[rank] = true
}

// Merge folds a batch of entries into the database. Entries for ranks
// outside the world are ignored rather than trusted.
func (db *DB) Merge(entries []Entry) {
	for _, e := range entries {
		if e.Rank < 0 || e.Rank >= len(db.entries) {
			continue
		}
		db.Update(e.Rank, e.Value, e.Iter)
	}
}

// Get returns the stored entry for rank and whether one exists.
func (db *DB) Get(rank int) (Entry, bool) {
	if rank < 0 || rank >= len(db.entries) {
		return Entry{}, false
	}
	return db.entries[rank], db.known[rank]
}

// KnownCount returns how many ranks have a stored entry.
func (db *DB) KnownCount() int {
	n := 0
	for _, k := range db.known {
		if k {
			n++
		}
	}
	return n
}

// Values returns the values of all known entries, the population used by
// the z-score overload detector.
func (db *DB) Values() []float64 {
	out := make([]float64, 0, len(db.entries))
	for r, k := range db.known {
		if k {
			out = append(out, db.entries[r].Value)
		}
	}
	return out
}

// Snapshot returns all known entries in rank order.
func (db *DB) Snapshot() []Entry {
	return db.AppendSnapshot(make([]Entry, 0, len(db.entries)))
}

// AppendSnapshot appends all known entries in rank order to dst and returns
// the extended slice; pass scratch[:0] to reuse a buffer across steps.
func (db *DB) AppendSnapshot(dst []Entry) []Entry {
	for r, k := range db.known {
		if k {
			dst = append(dst, db.entries[r])
		}
	}
	return dst
}

// ZScoreOf returns the z-score of rank's value within the known value
// distribution, and false if the rank is unknown. A PE whose z-score
// exceeds the paper's threshold (3.0) is considered overloading.
func (db *DB) ZScoreOf(rank int) (float64, bool) {
	e, ok := db.Get(rank)
	if !ok {
		return 0, false
	}
	return stats.ZScore(e.Value, db.Values()), true
}

const entryBytes = 24 // rank int64 + value float64 + iter int64

// AppendEntries appends the wire encoding of entries to dst and returns the
// extended buffer.
func AppendEntries(dst []byte, entries []Entry) []byte {
	for _, e := range entries {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(e.Rank)))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(e.Value))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(e.Iter)))
	}
	return dst
}

// DecodeEntriesInto reverses AppendEntries: it appends the decoded entries
// to dst and returns the extended slice. It panics on corrupt payloads.
func DecodeEntriesInto(dst []Entry, b []byte) []Entry {
	if len(b)%entryBytes != 0 {
		panic("gossip: corrupt entry payload")
	}
	for ; len(b) >= entryBytes; b = b[entryBytes:] {
		dst = append(dst, Entry{
			Rank:  int(int64(binary.LittleEndian.Uint64(b))),
			Value: math.Float64frombits(binary.LittleEndian.Uint64(b[8:])),
			Iter:  int(int64(binary.LittleEndian.Uint64(b[16:]))),
		})
	}
	return dst
}

// Rounds returns ceil(log2 size): the number of consecutive dissemination
// steps after which every entry has reached every rank.
func Rounds(size int) int {
	r := 0
	for 1<<r < size {
		r++
	}
	return r
}

// Partner returns the doubling-ring exchange partners of rank at the given
// step: dst is who rank pushes to, src the mirror rank it receives from.
// The offset doubles each step, wrapping after Rounds(size) steps, so any
// Rounds(size) consecutive steps cover every distance. For size 1 both
// partners are rank itself (a self-exchange; StepScratch treats it as a
// no-op).
func Partner(rank, step, size int) (dst, src int) {
	if size == 1 {
		return rank, rank
	}
	offset := 1 << (step % Rounds(size))
	dst = (rank + offset) % size
	src = (rank - offset%size + size) % size
	return dst, src
}

// Scratch holds the reusable entry buffer of one rank's dissemination
// loop. The zero value is ready to use.
type Scratch struct {
	entries []Entry
}

// StepScratch performs one dissemination step at the given step index over
// the rank's simulated runtime: push the whole database to the
// doubling-ring partner and merge what the mirror partner pushed to us.
// All ranks must call it with the same step index and tag. A world of one
// rank is a no-op. A rank stepping every iteration passes the same Scratch
// each time, reusing its entry slice instead of allocating it per step; the
// pushed message is the one buffer the step allocates. A nil scratch
// allocates a fresh entry slice for this step.
func StepScratch(p *mpisim.Proc, db *DB, step int, tag int, s *Scratch) {
	size := p.Size()
	if size == 1 {
		return
	}
	var local Scratch
	if s == nil {
		s = &local
	}
	dst, src := Partner(p.Rank(), step, size)
	s.entries = db.AppendSnapshot(s.entries[:0])
	p.Send(dst, tag, AppendEntries(make([]byte, 0, entryBytes*len(s.entries)), s.entries))
	s.entries = DecodeEntriesInto(s.entries[:0], p.Recv(src, tag))
	db.Merge(s.entries)
}
