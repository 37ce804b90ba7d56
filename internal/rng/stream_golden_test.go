package rng_test

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"testing"

	"nodevar/internal/rng"
)

// streamHash folds a sequence of variates, then the generator's next
// output, into one FNV-1a digest. The trailing word catches a sampler
// that returns the same values but consumes a different number of
// uniforms, which would shift every later draw of a study.
type streamHash struct {
	buf [8]byte
	sum hash.Hash64
}

func newStreamHash() *streamHash { return &streamHash{sum: fnv.New64a()} }

func (h *streamHash) add(v int) {
	binary.LittleEndian.PutUint64(h.buf[:], uint64(v))
	h.sum.Write(h.buf[:])
}

func (h *streamHash) digest(r *rng.Rand) string {
	h.add(int(r.Uint64()))
	return fmt.Sprintf("%016x", h.sum.Sum64())
}

// TestSamplerStreamsGolden pins the exact variate streams of the
// discrete samplers: every Binomial path (inversion, popcount, BTRS,
// flipped, and arguments past any internal lookup table), the halving
// multinomial on power-of-two, LRZ-sized and odd-heavy cell counts, and
// both hypergeometric samplers. Coverage studies, checkpoints and every
// rendered table depend on these bits, so a speed-up of the samplers
// must leave each digest unchanged.
func TestSamplerStreamsGolden(t *testing.T) {
	binomial := func(n int, p float64) func(*rng.Rand, *streamHash) {
		return func(r *rng.Rand, h *streamHash) {
			for i := 0; i < 2000; i++ {
				h.add(r.Binomial(n, p))
			}
		}
	}
	multinomial := func(k int) func(*rng.Rand, *streamHash) {
		return func(r *rng.Rand, h *streamHash) {
			counts := make([]int, k)
			for i := 0; i < 200; i++ {
				r.MultinomialEqual(9166, counts)
				for _, c := range counts {
					h.add(c)
				}
			}
		}
	}
	cases := []struct {
		name string
		draw func(*rng.Rand, *streamHash)
		want string
	}{
		{"binomial/inversion", binomial(25, 0.3), "92f13a3074176f45"},
		{"binomial/inversion_flipped", binomial(40, 0.9), "053348dd78fbb9b9"},
		{"binomial/popcount", binomial(1000, 0.5), "6c957f170ce7df77"},
		{"binomial/btrs_near_cutoff", binomial(50, 0.25), "e39d2be231c4c82a"},
		{"binomial/btrs", binomial(400, 0.25), "d5694fe4e423c263"},
		{"binomial/btrs_flipped", binomial(300, 0.8), "fa0d5a6cec47bdef"},
		{"binomial/btrs_half", binomial(6000, 0.5), "97e12f6a86ac9767"},
		{"binomial/btrs_odd_split", binomial(75, 37.0/75), "41c13ef46d6bfd50"},
		{"binomial/btrs_n9216", binomial(9216, 0.25), "83fe8cf565da8f83"},
		{"binomial/btrs_n100000", binomial(100000, 0.3), "ff0d52da919f10a2"},
		{"binomial/btrs_n1e9", binomial(1_000_000_000, 0.25), "5e518b786c13c230"},
		{"multinomial/k516", multinomial(516), "9ef1e5a08046d33f"},
		{"multinomial/k600", multinomial(600), "8aba8886467a7b56"},
		{"multinomial/k640", multinomial(640), "3d154686c4a591a3"},
		{"multinomial/k1500", multinomial(1500), "dd35b63b93eea7ab"},
		{"hypergeometric", func(r *rng.Rand, h *streamHash) {
			for i := 0; i < 2000; i++ {
				h.add(r.Hypergeometric(18, 9198, 50))
			}
		}, "84a7184902daa381"},
		{"hypergeometric_large", func(r *rng.Rand, h *streamHash) {
			for i := 0; i < 2000; i++ {
				h.add(r.Hypergeometric(40000, 60000, 500))
			}
		}, "6f666e524a0ec27c"},
		{"multivariate_hypergeometric", func(r *rng.Rand, h *streamHash) {
			pop := make([]int, 516)
			r.MultinomialEqual(9216, pop)
			dst := make([]int, len(pop))
			for i := 0; i < 200; i++ {
				r.MultivariateHypergeometric(pop, 50, dst)
				for _, c := range dst {
					h.add(c)
				}
			}
		}, "9143e7a3ce9d694e"},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := rng.New(uint64(1000 + i))
			h := newStreamHash()
			tc.draw(r, h)
			if got := h.digest(r); got != tc.want {
				t.Errorf("stream digest %s, want %s", got, tc.want)
			}
		})
	}
}
