package mpisim

import "fmt"

// Collective operations. All ranks of the world must call the same
// collectives in the same order (SPMD discipline); tags are drawn from a
// reserved space so collectives never collide with application messages.
//
// Topologies are chosen to match the paper's setting: broadcast and reduce
// use binomial trees (O(log P) depth, like any MPI implementation), while
// gather is linear into the root because the paper's LB technique is
// explicitly *centralized* — its O(P) cost at the root is part of the LB
// cost C the model reasons about.

// Reserved tag space for collectives: applications must use tags below
// collTagBase.
const collTagBase = 1 << 30

// ReduceOp combines src into dst element-wise. Implementations must be
// associative and commutative.
type ReduceOp func(dst, src []float64)

// OpSum adds src into dst.
func OpSum(dst, src []float64) {
	for i := range dst {
		dst[i] += src[i]
	}
}

// OpMax keeps the element-wise maximum in dst.
func OpMax(dst, src []float64) {
	for i := range dst {
		if src[i] > dst[i] {
			dst[i] = src[i]
		}
	}
}

// Bcast broadcasts data from root along a binomial tree. Every rank must
// call it; the root passes the payload, other ranks pass nil and receive the
// broadcast value as the return. Like Send, it hands the root's buffer over:
// every rank gets the same backing array and only reads it.
func (p *Proc) Bcast(root int, data []byte) []byte {
	size := p.world.size
	if root < 0 || root >= size {
		panic(fmt.Sprintf("mpisim: Bcast with invalid root %d", root))
	}
	const tag = collTagBase + 2
	vrank := (p.rank - root + size) % size
	// Receive once (non-roots), from the highest bit below vrank.
	if vrank != 0 {
		mask := 1
		for mask<<1 <= vrank {
			mask <<= 1
		}
		srcV := vrank - mask
		src := (srcV + root) % size
		data = p.Recv(src, tag)
	}
	// Forward to children: vrank + mask for masks above own high bit.
	startMask := 1
	for startMask <= vrank {
		startMask <<= 1
	}
	for mask := startMask; vrank+mask < size; mask <<= 1 {
		dstV := vrank + mask
		dst := (dstV + root) % size
		p.Send(dst, tag, data)
	}
	return data
}

// Gather collects every rank's payload at root, indexed by rank. Non-roots
// return nil. The implementation is linear into the root, modeling the
// centralized LB technique of the paper. Payloads may have different sizes;
// like Send, it hands them over, the root's own included.
func (p *Proc) Gather(root int, data []byte) [][]byte {
	size := p.world.size
	if root < 0 || root >= size {
		panic(fmt.Sprintf("mpisim: Gather with invalid root %d", root))
	}
	const tag = collTagBase + 3
	if p.rank != root {
		p.Send(root, tag, data)
		return nil
	}
	out := make([][]byte, size)
	out[root] = data
	for r := 0; r < size; r++ {
		if r == root {
			continue
		}
		out[r] = p.Recv(r, tag)
	}
	return out
}

// reduceInPlace is the engine behind AllreduceInPlace: it combines the
// ranks' vals into vals itself along the binomial tree, decoding partial
// results into the rank's float scratch. It reports whether this rank is
// the root (and thus holds the result).
func (p *Proc) reduceInPlace(root int, vals []float64, op ReduceOp) bool {
	size := p.world.size
	const tag = collTagBase + 4
	vrank := (p.rank - root + size) % size
	// Combine children (vrank + mask) for increasing masks, then send to
	// parent — the mirror image of the broadcast tree.
	for mask := 1; mask < size; mask <<= 1 {
		if vrank&mask != 0 {
			// Send partial to parent and stop.
			parent := ((vrank - mask) + root) % size
			p.Send(parent, tag, PackFloat64s(vals))
			return false
		}
		childV := vrank + mask
		if childV < size {
			child := (childV + root) % size
			part := UnpackFloat64sInto(p.f64[:0], p.Recv(child, tag))
			p.f64 = part[:0]
			if len(part) != len(vals) {
				panic(fmt.Sprintf("mpisim: Reduce length mismatch: %d vs %d", len(part), len(vals)))
			}
			op(vals, part)
		}
	}
	return true
}

// AllreduceInPlace combines vals across all ranks with op, leaving the
// result in vals on every rank: a reduce to rank 0, then a Bcast of the
// packed result. All ranks must pass equal-length slices. The
// per-iteration max-clock synchronization and total-workload sums of the
// application run on this.
func (p *Proc) AllreduceInPlace(vals []float64, op ReduceOp) {
	var wire []byte
	if p.reduceInPlace(0, vals, op) {
		wire = PackFloat64s(vals)
	}
	wire = p.Bcast(0, wire)
	if p.rank == 0 {
		return
	}
	if len(wire) != 8*len(vals) {
		panic(fmt.Sprintf("mpisim: broadcast length mismatch: %d bytes for %d values", len(wire), len(vals)))
	}
	UnpackFloat64sInto(vals[:0], wire)
}

// AllreduceMax is shorthand for a scalar max-Allreduce; with the rank's
// clock as x it is the BSP iteration barrier: no rank proceeds before the
// slowest has arrived.
func (p *Proc) AllreduceMax(x float64) float64 {
	p.s1[0] = x
	p.AllreduceInPlace(p.s1[:], OpMax)
	return p.s1[0]
}

// AllreduceSum is shorthand for a scalar sum-Allreduce.
func (p *Proc) AllreduceSum(x float64) float64 {
	p.s1[0] = x
	p.AllreduceInPlace(p.s1[:], OpSum)
	return p.s1[0]
}
