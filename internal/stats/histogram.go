package stats

import (
	"math"
	"sort"
)

// Histogram is a fixed-width binned view of a dataset, as used for the
// per-node power distributions of Figure 2.
type Histogram struct {
	// Lo is the left edge of the first bin.
	Lo float64
	// Width is the (uniform) bin width.
	Width float64
	// Counts holds one count per bin; bin i covers
	// [Lo + i*Width, Lo + (i+1)*Width), with the final bin closed on the
	// right so the maximum lands in it.
	Counts []int
	// Total is the number of binned observations.
	Total int
}

// NewHistogram bins xs into the given number of equal-width bins spanning
// [min(xs), max(xs)]. It panics if xs is empty or bins <= 0.
func NewHistogram(xs []float64, bins int) *Histogram {
	if len(xs) == 0 {
		panic(ErrEmpty)
	}
	if bins <= 0 {
		panic("stats: NewHistogram requires bins > 0")
	}
	lo, hi := Min(xs), Max(xs)
	width := (hi - lo) / float64(bins)
	if width == 0 {
		// Degenerate data: a single bin holding everything.
		width = 1
	}
	h := &Histogram{Lo: lo, Width: width, Counts: make([]int, bins)}
	for _, x := range xs {
		h.add(x)
	}
	return h
}

func (h *Histogram) add(x float64) {
	i := int((x - h.Lo) / h.Width)
	if i < 0 {
		i = 0
	}
	if i >= len(h.Counts) {
		i = len(h.Counts) - 1
	}
	h.Counts[i]++
	h.Total++
}

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	return h.Lo + (float64(i)+0.5)*h.Width
}

// BinEdges returns the left edge of bin i and the right edge.
func (h *Histogram) BinEdges(i int) (lo, hi float64) {
	return h.Lo + float64(i)*h.Width, h.Lo + float64(i+1)*h.Width
}

// MaxCount returns the largest bin count (0 for an all-empty histogram).
func (h *Histogram) MaxCount() int {
	m := 0
	for _, c := range h.Counts {
		if c > m {
			m = c
		}
	}
	return m
}

// Density returns the estimated probability density at bin i:
// count / (total * width).
func (h *Histogram) Density(i int) float64 {
	if h.Total == 0 {
		return 0
	}
	return float64(h.Counts[i]) / (float64(h.Total) * h.Width)
}

// SturgesBins returns the Sturges rule bin count, ceil(log2(n)) + 1.
func SturgesBins(n int) int {
	if n <= 1 {
		return 1
	}
	return int(math.Ceil(math.Log2(float64(n)))) + 1
}

// FreedmanDiaconisBins returns the Freedman-Diaconis bin count
// based on the interquartile range, falling back to Sturges when the IQR
// is zero. It panics if xs is empty.
func FreedmanDiaconisBins(xs []float64) int {
	if len(xs) == 0 {
		panic(ErrEmpty)
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	iqr := quantileSorted(sorted, 0.75) - quantileSorted(sorted, 0.25)
	if iqr <= 0 {
		return SturgesBins(len(xs))
	}
	width := 2 * iqr / math.Cbrt(float64(len(xs)))
	span := sorted[len(sorted)-1] - sorted[0]
	if span <= 0 || width <= 0 {
		return 1
	}
	bins := int(math.Ceil(span / width))
	if bins < 1 {
		bins = 1
	}
	return bins
}
