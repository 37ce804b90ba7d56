package rng

import (
	"math"
	"math/bits"
)

// This file holds the discrete-distribution kernels behind the
// count-based bootstrap: exact binomial and hypergeometric samplers and
// the conditional-decomposition multinomial / multivariate
// hypergeometric draws built on them. The design constraint throughout
// is O(1) or O(sd) expected work per variate with zero heap allocation,
// so that a coverage-study replicate costs O(pilot) regardless of the
// simulated machine size.

// logFactSize bounds the log-factorial table: it covers every count of a
// simulated machine up to 32k nodes, which is where BTRS's pmf test and
// the hypergeometric mode evaluation spend their time.
const logFactSize = 1 << 15

// logFact[i] is log(i!), filled from math.Lgamma itself so that a
// lookup returns exactly the bits the call would.
var logFact [logFactSize]float64

func init() {
	for i := range logFact {
		logFact[i], _ = math.Lgamma(float64(i) + 1)
	}
	for l := 1; l < len(oddSplitLogOdds); l++ {
		p := float64(l) / float64(2*l+1)
		oddSplitLogOdds[l] = math.Log(p / (1 - p))
	}
}

// lfact returns log(x!) for a non-negative integral x: a table read
// below logFactSize and Lgamma(x+1) above it (served populations reach
// 1e9).
func lfact(x float64) float64 {
	if x < logFactSize {
		return logFact[int(x)]
	}
	v, _ := math.Lgamma(x + 1)
	return v
}

// oddSplitSize bounds the odd cell counts whose halving log-odds are
// tabled; the paper-scale pilots have a few hundred values, and larger
// odd counts compute the value in BTRS.
const oddSplitSize = 1024

// oddSplitLogOdds[k>>1] is log(p/(1-p)) for the uneven split p =
// (k>>1)/k of an odd cell count k < oddSplitSize, evaluated exactly as
// binomialBTRS would. It is never 0: only p = 1/2 gives 0.
var oddSplitLogOdds [oddSplitSize / 2]float64

// btrsCutoff splits Binomial between plain inversion and the BTRS
// transformed-rejection sampler: below it the inversion walk is short
// (expected n·p steps), above it BTRS accepts in O(1) expected trials
// and is valid (it requires n·min(p,1-p) ≳ 10).
const btrsCutoff = 10

// Binomial returns a variate with the Binomial(n, p) distribution: the
// number of successes in n independent trials of probability p. It
// panics if n is negative or p is NaN; p is clamped to [0, 1].
//
// For n·min(p,1-p) below a small cutoff it uses inversion (BINV: walk
// the CDF from zero, O(n·p) expected steps); above it, Hörmann's BTRS
// transformed-rejection sampler with an O(1) expected number of
// uniforms. The split keeps every call allocation-free and cheap at
// both extremes.
func (r *Rand) Binomial(n int, p float64) int {
	if n < 0 {
		panic("rng: Binomial called with negative n")
	}
	if math.IsNaN(p) {
		panic("rng: Binomial called with NaN p")
	}
	if n == 0 || p <= 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	// Work on q = min(p, 1-p) and flip the result back: both samplers
	// want the success probability in (0, 1/2].
	flipped := p > 0.5
	q := p
	if flipped {
		q = 1 - p
	}
	var k int
	if q == 0.5 {
		k = r.binomialHalf(n)
	} else {
		k = r.binomialLow(n, q, 0)
	}
	if flipped {
		k = n - k
	}
	return k
}

// popcountCutoff is where Binomial(n, 1/2) switches from popcount
// (n/64 generator words) to BTRS (two uniforms expected): past ~2k
// trials the rejection sampler is cheaper than streaming the bits.
const popcountCutoff = 2048

// binomialHalf returns a Binomial(n, 1/2) variate as the popcount of n
// fair random bits: exact, transcendental-free, and ~64 trials per
// generator word, deferring to BTRS for very large n. It is the
// workhorse of the halving decomposition in MultinomialEqual, where
// every even split is a fair coin.
func (r *Rand) binomialHalf(n int) int {
	if n > popcountCutoff {
		return r.binomialBTRS(n, 0.5, 0)
	}
	k := 0
	for ; n >= 64; n -= 64 {
		k += bits.OnesCount64(r.Uint64())
	}
	if n > 0 {
		k += bits.OnesCount64(r.Uint64() & (1<<uint(n) - 1))
	}
	return k
}

// binomialLow draws Binomial(n, p) for 0 < p < 1/2 by inversion below
// btrsCutoff and BTRS above it; lpq is passed on to binomialBTRS.
func (r *Rand) binomialLow(n int, p, lpq float64) int {
	if float64(n)*p < btrsCutoff {
		return r.binomialInv(n, p)
	}
	return r.binomialBTRS(n, p, lpq)
}

// binomialInv is CDF inversion from zero (BINV): one uniform, then a
// multiplicative pmf recurrence. Requires 0 < p <= 1/2 and n·p small
// enough that (1-p)^n does not underflow (guaranteed by btrsCutoff).
func (r *Rand) binomialInv(n int, p float64) int {
	s := p / (1 - p)
	// pmf(0) = (1-p)^n, computed in log space for accuracy.
	f := math.Exp(float64(n) * math.Log1p(-p))
	u := r.Float64()
	k := 0
	for u > f && k < n {
		u -= f
		k++
		f *= s * float64(n-k+1) / float64(k)
	}
	return k
}

// binomialBTRS is Hörmann's BTRS sampler (transformed rejection with
// squeeze, 1993). Requires 0 < p <= 1/2 and n·p >= 10. lpq is log(p/q)
// when the caller has it tabled, or 0 to compute it here on first use
// (it is 0 only at p = 1/2, where the computed value is 0 as well).
func (r *Rand) binomialBTRS(n int, p, lpq float64) int {
	fn := float64(n)
	q := 1 - p
	spq := math.Sqrt(fn * p * q)
	b := 1.15 + 2.53*spq
	a := -0.0873 + 0.0248*b + 0.01*p
	c := fn*p + 0.5
	vr := 0.92 - 4.2/b
	// The pmf-test constants are deferred until a candidate actually
	// fails the squeeze: most calls accept inside it. The log-factorials
	// come from the logFact table and the halving multinomial passes its
	// odd splits' log-odds in, so a failed squeeze costs one Log.
	var alpha, m, h float64
	ready := false
	for {
		u := r.Float64() - 0.5
		v := r.Float64()
		us := 0.5 - math.Abs(u)
		k := math.Floor((2*a/us+b)*u + c)
		// Squeeze: deep inside the dominating region the candidate is
		// accepted without evaluating the pmf.
		if us >= 0.07 && v <= vr {
			return int(k)
		}
		if k < 0 || k > fn {
			continue
		}
		if !ready {
			alpha = (2.83 + 5.1/b) * spq
			if lpq == 0 {
				lpq = math.Log(p / q)
			}
			m = math.Floor((fn + 1) * p)
			h = lfact(m) + lfact(fn-m)
			ready = true
		}
		v = math.Log(v * alpha / (a/(us*us) + b))
		if v <= h-lfact(k)-lfact(fn-k)+(k-m)*lpq {
			return int(k)
		}
	}
}

// Hypergeometric returns a variate with the Hypergeometric(nGood, nBad,
// draws) distribution: the number of "good" items in a uniform
// without-replacement sample of size draws from a population of
// nGood+nBad. It panics on negative arguments or draws > nGood+nBad.
//
// The sampler first applies the two exact symmetries (complementing the
// sample, swapping good/bad) to shrink the working parameters, then
// inverts the CDF starting from the mode, walking outward with the pmf
// recurrence. Expected cost is O(1 + sd) with sd <= sqrt(draws)/2 and no
// allocation; starting at the mode (whose pmf is evaluated once in log
// space) keeps the walk short and immune to the tail underflow that
// breaks inversion from zero.
func (r *Rand) Hypergeometric(nGood, nBad, draws int) int {
	if nGood < 0 || nBad < 0 || draws < 0 {
		panic("rng: negative argument to Hypergeometric")
	}
	total := nGood + nBad
	if draws > total {
		panic("rng: draws exceed population in Hypergeometric")
	}
	// Degenerate cases resolve without consuming randomness; callers
	// (the multivariate decomposition) rely on that to skip exhausted
	// cells cheaply and deterministically.
	if draws == 0 || nGood == 0 {
		return 0
	}
	if nBad == 0 {
		return draws
	}
	if draws == total {
		return nGood
	}
	// Symmetry 1: sampling draws items fixes the complement too, and
	// good items split between them, so x ~ nGood - Hyper(draws'=total-draws).
	k, complemented := draws, false
	if 2*k > total {
		k, complemented = total-k, true
	}
	// Symmetry 2: counting bad items instead of good, x ~ k - Hyper(swap).
	good, bad, swapped := nGood, nBad, false
	if good > bad {
		good, bad, swapped = bad, good, true
	}
	x := r.hyperInvMode(good, bad, k)
	if swapped {
		x = k - x
	}
	if complemented {
		x = nGood - x
	}
	return x
}

// hyperInvMode inverts the Hypergeometric(good, bad, k) CDF from the
// mode outward. Requires the non-degenerate reduced case: 0 < k,
// 0 < good <= bad, k <= (good+bad)/2.
func (r *Rand) hyperInvMode(good, bad, k int) int {
	total := good + bad
	lo := k - bad
	if lo < 0 {
		lo = 0
	}
	hi := k
	if good < hi {
		hi = good
	}
	mode := (k + 1) * (good + 1) / (total + 2)
	if mode < lo {
		mode = lo
	}
	if mode > hi {
		mode = hi
	}
	// log pmf(mode) = log C(good, mode) + log C(bad, k-mode) - log C(total, k).
	lpm := lchoose(good, mode) + lchoose(bad, k-mode) - lchoose(total, k)
	pm := math.Exp(lpm)
	u := r.Float64()
	if u < pm {
		return mode
	}
	u -= pm
	// Walk outward from the mode, alternating sides; probabilities decay
	// geometrically past one sd, so the expected number of steps is O(sd).
	pu, pd := pm, pm
	xu, xd := mode, mode
	for {
		moved := false
		if xu < hi {
			pu *= float64(good-xu) * float64(k-xu) /
				(float64(xu+1) * float64(bad-k+xu+1))
			xu++
			if u < pu {
				return xu
			}
			u -= pu
			moved = true
		}
		if xd > lo {
			pd *= float64(xd) * float64(bad-k+xd) /
				(float64(good-xd+1) * float64(k-xd+1))
			xd--
			if u < pd {
				return xd
			}
			u -= pd
			moved = true
		}
		if !moved {
			// The support is exhausted and u is a rounding residue of the
			// accumulated pmf; the mode is the maximum-probability answer.
			return mode
		}
	}
}

// lchoose returns log C(n, k) for 0 <= k <= n.
func lchoose(n, k int) float64 {
	return lfact(float64(n)) - lfact(float64(k)) - lfact(float64(n-k))
}

// MultinomialEqual draws counts from the equal-probability
// Multinomial(n; 1/k, ..., 1/k) distribution into counts, which must
// have length k >= 1: counts[i] is how many of n category draws landed
// in category i, with every category equally likely. This is exactly the
// category histogram of n iid uniform draws over k values — a bootstrap
// resample in count form — without materializing the n draws.
//
// The decomposition is recursive halving: the count falling in the left
// half of the cells is Binomial over the remaining draws, conditioning
// splits the problem in two, and even splits are fair coins served by
// the popcount sampler at ~64 trials per generator word. Total cost is
// O(k + n·log(k)/64) word-level work and zero allocations — the
// conditional-binomial chain in cell order would instead pay the
// general sampler's setup for every cell.
func (r *Rand) MultinomialEqual(n int, counts []int) {
	if n < 0 {
		panic("rng: MultinomialEqual called with negative n")
	}
	if len(counts) == 0 {
		panic("rng: MultinomialEqual needs at least one category")
	}
	r.multinomialHalve(n, counts)
}

// multinomialHalve walks the halving tree iteratively — depth-first,
// always descending into the left half and stacking the right — with
// the generator state held in locals and the fair-coin popcount step
// inlined. The tree has ~2k nodes, so per-node function-call and
// state round-trip overhead would otherwise dominate the
// O(n·log(k)/64) word-level work.
func (r *Rand) multinomialHalve(n int, counts []int) {
	type seg struct{ n, lo, hi int }
	// Depth of the stack is the tree depth, ceil(log2(k))+1 <= 64 for
	// any in-memory slice length.
	var stack [64]seg
	sp := 0
	cur := seg{n, 0, len(counts)}
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	for {
		k := cur.hi - cur.lo
		if k == 1 || cur.n == 0 {
			if k == 1 {
				counts[cur.lo] = cur.n
			} else {
				for i := cur.lo; i < cur.hi; i++ {
					counts[i] = 0
				}
			}
			if sp == 0 {
				break
			}
			sp--
			cur = stack[sp]
			continue
		}
		l := k >> 1
		var x int
		if k&1 != 0 || cur.n > popcountCutoff {
			// Uneven split or a fair split too large for popcount: the
			// general samplers read state through the receiver, so sync
			// the locals around the call.
			r.s[0], r.s[1], r.s[2], r.s[3] = s0, s1, s2, s3
			if k&1 == 0 {
				x = r.binomialBTRS(cur.n, 0.5, 0)
			} else {
				var lpq float64
				if k < oddSplitSize {
					lpq = oddSplitLogOdds[l]
				}
				x = r.binomialLow(cur.n, float64(l)/float64(k), lpq)
			}
			s0, s1, s2, s3 = r.s[0], r.s[1], r.s[2], r.s[3]
		} else {
			// Fair split: popcount of cur.n fresh bits, generator inlined.
			m := cur.n
			for ; m >= 64; m -= 64 {
				w := rotl(s1*5, 7) * 9
				t := s1 << 17
				s2 ^= s0
				s3 ^= s1
				s1 ^= s2
				s0 ^= s3
				s2 ^= t
				s3 = rotl(s3, 45)
				x += bits.OnesCount64(w)
			}
			if m > 0 {
				w := rotl(s1*5, 7) * 9
				t := s1 << 17
				s2 ^= s0
				s3 ^= s1
				s1 ^= s2
				s0 ^= s3
				s2 ^= t
				s3 = rotl(s3, 45)
				x += bits.OnesCount64(w & (1<<uint(m) - 1))
			}
		}
		// Leaves are absorbed here rather than visited as iterations:
		// k == 2 writes both cells and pops, k == 3 writes the single
		// left cell and slides into the right pair, so only subtrees of
		// four or more cells ever touch the stack.
		switch {
		case k == 2:
			counts[cur.lo] = x
			counts[cur.lo+1] = cur.n - x
			if sp == 0 {
				r.s[0], r.s[1], r.s[2], r.s[3] = s0, s1, s2, s3
				return
			}
			sp--
			cur = stack[sp]
		case l == 1:
			counts[cur.lo] = x
			cur = seg{cur.n - x, cur.lo + 1, cur.hi}
		default:
			stack[sp] = seg{cur.n - x, cur.lo + l, cur.hi}
			sp++
			cur = seg{x, cur.lo, cur.lo + l}
		}
	}
	r.s[0], r.s[1], r.s[2], r.s[3] = s0, s1, s2, s3
}

// MultivariateHypergeometric draws a without-replacement sample of size
// draws from a population described by counts (counts[i] items of kind
// i) and stores the per-kind sampled counts in dst. It panics if dst
// and counts differ in length or draws exceeds the population. The
// conditional decomposition costs O(len(counts) + sd work per cell) and
// allocates nothing: cell i is Hypergeometric over the items of kind i
// versus everything after it, conditioned on the draws already spent.
func (r *Rand) MultivariateHypergeometric(counts []int, draws int, dst []int) {
	if len(dst) != len(counts) {
		panic("rng: MultivariateHypergeometric dst/counts length mismatch")
	}
	total := 0
	for _, c := range counts {
		if c < 0 {
			panic("rng: negative count in MultivariateHypergeometric")
		}
		total += c
	}
	if draws < 0 || draws > total {
		panic("rng: draws outside [0, population] in MultivariateHypergeometric")
	}
	rem := draws
	remTotal := total
	for i, c := range counts {
		if rem == 0 {
			dst[i] = 0
			continue
		}
		if i == len(counts)-1 {
			dst[i] = rem
			return
		}
		x := r.Hypergeometric(c, remTotal-c, rem)
		dst[i] = x
		rem -= x
		remTotal -= c
	}
}

// Uint64Block fills dst with consecutive outputs of the generator,
// producing exactly the stream len(dst) sequential Uint64 calls would,
// with the state kept in registers across the whole block. It is the
// bulk primitive under the batched resampling helpers.
func (r *Rand) Uint64Block(dst []uint64) {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	for i := range dst {
		dst[i] = rotl(s1*5, 7) * 9
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = rotl(s3, 45)
	}
	r.s[0], r.s[1], r.s[2], r.s[3] = s0, s1, s2, s3
}

// resampleBlock is the batch width for the block-fill resamplers: big
// enough to amortize the per-block bookkeeping, small enough to live on
// the stack.
const resampleBlock = 128

// ResampleFloat64s fills dst with a uniform with-replacement resample of
// src (each dst element an independent uniform pick from src). Index
// generation runs over Uint64Block batches with Lemire reduction, so the
// call makes no heap allocations and touches the generator in blocks.
func (r *Rand) ResampleFloat64s(dst, src []float64) {
	n := uint64(len(src))
	if n == 0 {
		panic("rng: ResampleFloat64s from an empty source")
	}
	var buf [resampleBlock]uint64
	threshold := (-n) % n
	i := 0
	for i < len(dst) {
		k := len(dst) - i
		if k > resampleBlock {
			k = resampleBlock
		}
		r.Uint64Block(buf[:k])
		for _, w := range buf[:k] {
			hi, lo := bits.Mul64(w, n)
			for lo < threshold {
				// Lemire rejection: rare (probability < n/2^64), so the
				// retry draws straight from the generator.
				hi, lo = bits.Mul64(r.Uint64(), n)
			}
			dst[i] = src[hi]
			i++
		}
	}
}
