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

// Barrier synchronizes all ranks with a dissemination barrier
// (ceil(log2 P) rounds). After it returns, every rank's clock is at least
// the pre-barrier clock of every other rank: nobody proceeds until the
// slowest PE has arrived, which is exactly how a BSP iteration boundary
// behaves and why iteration time equals the time of the most loaded PE.
func (p *Proc) Barrier() {
	size := p.world.size
	if size == 1 {
		return
	}
	tag := collTagBase + 1
	for k := 1; k < size; k <<= 1 {
		dst := (p.rank + k) % size
		src := (p.rank - k + size) % size
		p.SendRecv(dst, nil, src, tag)
		tag++
	}
}

// Bcast broadcasts data from root along a binomial tree. Every rank must
// call it; the root passes the payload, other ranks pass nil and receive the
// broadcast value as the return.
func (p *Proc) Bcast(root int, data []byte) []byte {
	size := p.world.size
	if root < 0 || root >= size {
		panic(fmt.Sprintf("mpisim: Bcast with invalid root %d", root))
	}
	if size == 1 {
		return append([]byte(nil), data...)
	}
	const tag = collTagBase + 2
	vrank := (p.rank - root + size) % size
	buf := data
	// Receive once (non-roots), from the highest bit below vrank.
	if vrank != 0 {
		mask := 1
		for mask<<1 <= vrank {
			mask <<= 1
		}
		srcV := vrank - mask
		src := (srcV + root) % size
		buf = p.Recv(src, tag)
	}
	// Forward to children: vrank + mask for masks above own high bit.
	startMask := 1
	for startMask <= vrank {
		startMask <<= 1
	}
	for mask := startMask; vrank+mask < size; mask <<= 1 {
		dstV := vrank + mask
		dst := (dstV + root) % size
		p.Send(dst, tag, buf)
	}
	if p.rank == root {
		return append([]byte(nil), data...)
	}
	return buf
}

// Gather collects every rank's payload at root, indexed by rank. Non-roots
// return nil. The implementation is linear into the root, modeling the
// centralized LB technique of the paper. Payloads may have different sizes.
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
	out[root] = append([]byte(nil), data...)
	for r := 0; r < size; r++ {
		if r == root {
			continue
		}
		out[r] = p.Recv(r, tag)
	}
	return out
}

// Allgather collects every rank's payload everywhere (gather to rank 0,
// then broadcast of the concatenation).
func (p *Proc) Allgather(data []byte) [][]byte {
	parts := p.Gather(0, data)
	var packed []byte
	if p.rank == 0 {
		packed = packByteSlices(parts)
	}
	packed = p.Bcast(0, packed)
	return unpackByteSlices(packed)
}

// reduceInPlace is the engine behind AllreduceInPlace: it combines the
// ranks' vals into vals itself along the binomial tree, using
// pooled wire buffers and the rank's float scratch so the steady state
// allocates nothing. It reports whether this rank is the root (and thus
// holds the result).
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
			p.SendOwned(parent, tag, PackFloat64sInto(p.AcquireBuf(), vals))
			return false
		}
		childV := vrank + mask
		if childV < size {
			child := (childV + root) % size
			payload := p.Recv(child, tag)
			part := UnpackFloat64sInto(p.f64[:0], payload)
			p.f64 = part[:0]
			p.ReleaseBuf(payload)
			if len(part) != len(vals) {
				panic(fmt.Sprintf("mpisim: Reduce length mismatch: %d vs %d", len(part), len(vals)))
			}
			op(vals, part)
		}
	}
	return true
}

// bcastFloat64sInPlace broadcasts root's vals into every rank's vals along
// the binomial tree of Bcast, forwarding pooled byte buffers instead of
// allocating per hop. All ranks must pass equal-length slices.
func (p *Proc) bcastFloat64sInPlace(root int, vals []float64) {
	size := p.world.size
	if size == 1 {
		return
	}
	const tag = collTagBase + 2
	vrank := (p.rank - root + size) % size
	var wire []byte
	if vrank == 0 {
		wire = PackFloat64sInto(p.AcquireBuf(), vals)
	} else {
		mask := 1
		for mask<<1 <= vrank {
			mask <<= 1
		}
		src := ((vrank - mask) + root) % size
		wire = p.Recv(src, tag)
		xs := UnpackFloat64sInto(p.f64[:0], wire)
		p.f64 = xs[:0]
		if len(xs) != len(vals) {
			panic(fmt.Sprintf("mpisim: broadcast length mismatch: %d vs %d", len(xs), len(vals)))
		}
		copy(vals, xs)
	}
	startMask := 1
	for startMask <= vrank {
		startMask <<= 1
	}
	for mask := startMask; vrank+mask < size; mask <<= 1 {
		dst := ((vrank + mask) + root) % size
		p.SendOwned(dst, tag, append(p.AcquireBuf(), wire...))
	}
	p.ReleaseBuf(wire)
}

// AllreduceInPlace combines vals across all ranks with op, leaving the
// result in vals on every rank (reduce to 0, then broadcast). It is the
// allocation-free form of Allreduce: hot loops call it with a per-rank
// scratch slice. The cost and the result bits are identical to Allreduce.
func (p *Proc) AllreduceInPlace(vals []float64, op ReduceOp) {
	p.reduceInPlace(0, vals, op)
	p.bcastFloat64sInPlace(0, vals)
}

// Allreduce combines vals across all ranks with op and returns the result
// on every rank (reduce to 0, then broadcast). The per-iteration max-clock
// synchronization and total-workload sums of the application run on this.
func (p *Proc) Allreduce(vals []float64, op ReduceOp) []float64 {
	out := append([]float64(nil), vals...)
	p.AllreduceInPlace(out, op)
	return out
}

// AllreduceMax is shorthand for a scalar max-Allreduce.
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
