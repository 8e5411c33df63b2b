package stats

import (
	"fmt"
	"math"
	"sort"
)

// Zipf draws ranks in [0, N) with probability proportional to
// 1/(rank+1)^S. The paper uses Zipf distributions for search keyword
// popularity (§2.1, after Xie & O'Hallaron) and for YouTube video
// popularity (after Gill et al.).
//
// For moderate N the generator precomputes the CDF and samples by
// inversion: a guide table (Chen & Asau) narrows each uniform to the
// ranks of one equal-probability bucket, and a binary search inside that
// bucket finds the exact rank, the same rank a search of the whole CDF
// would. For very large N it falls back to an approximate inverse-CDF
// method that avoids the O(N) setup cost.
type Zipf struct {
	n   int
	s   float64
	cdf []float64 // nil when using the approximate path
	// guide[j] is the first rank whose cdf is >= j/m, where
	// m = len(guide)-1 is a power of two; nil on the approximate path.
	guide []int32
	hInt  float64 // integral constant for the approximate path
	hX1   float64
	exact bool
}

// cdfLimit is the largest N for which we precompute an exact CDF.
const cdfLimit = 1 << 22

// guideLimit caps the guide table at 2^15 buckets (128 KiB of int32),
// so the million-rank disk Zipfs pay under 2% on top of their 8 MiB CDF.
const guideLimit = 1 << 15

// NewZipf builds a Zipf distribution over n ranks with exponent s > 0.
func NewZipf(n int, s float64) (*Zipf, error) {
	if n <= 0 {
		return nil, fmt.Errorf("stats: zipf needs n > 0, got %d", n)
	}
	if s <= 0 || math.IsNaN(s) {
		return nil, fmt.Errorf("stats: zipf needs s > 0, got %g", s)
	}
	z := &Zipf{n: n, s: s}
	if n <= cdfLimit {
		z.exact = true
		z.cdf = make([]float64, n)
		sum := 0.0
		for i := 0; i < n; i++ {
			sum += math.Pow(float64(i+1), -s)
			z.cdf[i] = sum
		}
		// Normalize so binary search can use uniforms in [0,1).
		inv := 1 / sum
		for i := range z.cdf {
			z.cdf[i] *= inv
		}
		z.cdf[n-1] = 1 // guard against rounding
		z.guide = guideTable(z.cdf)
		return z, nil
	}
	// Approximate continuous inversion: treat the PMF as the density
	// c/x^s on [1, n+1) and invert its integral H.
	z.hX1 = z.h(1)
	z.hInt = z.h(float64(n)+1) - z.hX1
	return z, nil
}

// guideTable builds the guide for cdf: m+1 entries, m the smallest power
// of two no less than min(len(cdf), guideLimit), so below the cap a
// bucket averages under one rank. With m a power of two every bucket
// edge j/m and every product u*m is exact in float64, so floor(u*m)
// names the bucket u really lies in, with no rounding slack.
func guideTable(cdf []float64) []int32 {
	m := 1
	for m < len(cdf) && m < guideLimit {
		m *= 2
	}
	guide := make([]int32, m+1)
	i := 0
	for j := range guide {
		edge := float64(j) / float64(m)
		for cdf[i] < edge { // cdf[len-1] == 1 stops the scan
			i++
		}
		guide[j] = int32(i)
	}
	return guide
}

// h is the antiderivative of x^-s (handling s == 1).
func (z *Zipf) h(x float64) float64 {
	if z.s == 1 {
		return math.Log(x)
	}
	return math.Pow(x, 1-z.s) / (1 - z.s)
}

func (z *Zipf) hInv(y float64) float64 {
	if z.s == 1 {
		return math.Exp(y)
	}
	return math.Pow(y*(1-z.s), 1/(1-z.s))
}

// N returns the number of ranks.
func (z *Zipf) N() int { return z.n }

// S returns the exponent.
func (z *Zipf) S() float64 { return z.s }

// Rank draws a rank in [0, N), with rank 0 the most popular.
//
//perf:hotpath
func (z *Zipf) Rank(r *RNG) int {
	u := r.Float64()
	if z.exact {
		return z.invert(u)
	}
	x := z.hInv(z.hX1 + u*z.hInt)
	k := int(x) - 1
	if k < 0 {
		k = 0
	}
	if k >= z.n {
		k = z.n - 1
	}
	return k
}

// invert returns the first rank whose cdf is >= u, for u in [0, 1):
// exactly sort.SearchFloat64s(z.cdf, u). The rank lies in
// [guide[j], guide[j+1]] for j = floor(u*m), because cdf[guide[j]-1] <
// j/m <= u < (j+1)/m <= cdf[guide[j+1]]. The search bisects only that
// bucket, and scans the last few ranks linearly, which beats
// mispredicted branches; cdf[hi] >= u stops the scan.
func (z *Zipf) invert(u float64) int {
	j := int(u * float64(len(z.guide)-1))
	lo, hi := int(z.guide[j]), int(z.guide[j+1])
	for hi-lo > 8 {
		mid := int(uint(lo+hi) >> 1)
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	for z.cdf[lo] < u {
		lo++
	}
	return lo
}

// Sample implements Sampler, returning the rank as a float64.
func (z *Zipf) Sample(r *RNG) float64 { return float64(z.Rank(r)) }

// Prob returns the probability of rank k (exact mode only; the
// approximate mode returns the continuous-density estimate).
func (z *Zipf) Prob(k int) float64 {
	if k < 0 || k >= z.n {
		return 0
	}
	if z.exact {
		if k == 0 {
			return z.cdf[0]
		}
		return z.cdf[k] - z.cdf[k-1]
	}
	return (z.h(float64(k)+2) - z.h(float64(k)+1)) / z.hInt
}

// CoverageRanks returns the smallest number of top ranks whose cumulative
// probability reaches frac (exact mode). The memory-blade experiments use
// this to size "hot" working sets, mirroring the paper's observation that
// 25% of index terms cover most query traffic.
func (z *Zipf) CoverageRanks(frac float64) int {
	if !z.exact {
		// Invert the continuous CDF.
		y := z.hX1 + frac*z.hInt
		k := int(z.hInv(y))
		if k < 1 {
			k = 1
		}
		if k > z.n {
			k = z.n
		}
		return k
	}
	i := sort.SearchFloat64s(z.cdf, frac)
	return i + 1
}
