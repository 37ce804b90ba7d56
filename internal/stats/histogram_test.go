package stats

import (
	"testing"
	"testing/quick"

	"nodevar/internal/rng"
)

func TestHistogramBasic(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	h := NewHistogram(xs, 5)
	if h.Total != 10 {
		t.Fatalf("Total = %d", h.Total)
	}
	for i, c := range h.Counts {
		if c != 2 {
			t.Errorf("bin %d count %d, want 2", i, c)
		}
	}
	if h.MaxCount() != 2 {
		t.Errorf("MaxCount = %d", h.MaxCount())
	}
}

func TestHistogramMaxLandsInLastBin(t *testing.T) {
	xs := []float64{0, 10}
	h := NewHistogram(xs, 10)
	if h.Counts[9] != 1 {
		t.Errorf("max did not land in last bin: %v", h.Counts)
	}
	if h.Counts[0] != 1 {
		t.Errorf("min did not land in first bin: %v", h.Counts)
	}
}

func TestHistogramDegenerateData(t *testing.T) {
	xs := []float64{5, 5, 5}
	h := NewHistogram(xs, 4)
	total := 0
	for _, c := range h.Counts {
		total += c
	}
	if total != 3 {
		t.Errorf("constant data lost observations: %v", h.Counts)
	}
}

func TestHistogramBinGeometry(t *testing.T) {
	h := NewHistogram([]float64{0, 10}, 5)
	lo, hi := h.BinEdges(2)
	if lo != 4 || hi != 6 {
		t.Errorf("BinEdges(2) = (%v, %v)", lo, hi)
	}
	if c := h.BinCenter(2); c != 5 {
		t.Errorf("BinCenter(2) = %v", c)
	}
}

func TestHistogramDensityIntegratesToOne(t *testing.T) {
	r := rng.New(8)
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = r.Normal(100, 15)
	}
	h := NewHistogram(xs, 40)
	var integral float64
	for i := range h.Counts {
		integral += h.Density(i) * h.Width
	}
	if !almostEq(integral, 1, 1e-9) {
		t.Errorf("density integral = %v", integral)
	}
}

func TestSturgesBins(t *testing.T) {
	cases := []struct{ n, want int }{{1, 1}, {2, 2}, {100, 8}, {1024, 11}}
	for _, c := range cases {
		if got := SturgesBins(c.n); got != c.want {
			t.Errorf("SturgesBins(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestFreedmanDiaconis(t *testing.T) {
	r := rng.New(10)
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = r.NormFloat64()
	}
	bins := FreedmanDiaconisBins(xs)
	if bins < 10 || bins > 60 {
		t.Errorf("FD bins for n=1000 normal = %d, expected a few dozen", bins)
	}
	// Constant data falls back to Sturges.
	if got := FreedmanDiaconisBins([]float64{1, 1, 1, 1}); got != SturgesBins(4) {
		t.Errorf("FD fallback = %d", got)
	}
}

// Property: histogram counts always sum to the number of observations.
func TestQuickHistogramMassConservation(t *testing.T) {
	f := func(seed uint64, binsRaw, nRaw uint8) bool {
		bins := 1 + int(binsRaw%30)
		n := 1 + int(nRaw)
		r := rng.New(seed)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.Normal(0, 100)
		}
		h := NewHistogram(xs, bins)
		sum := 0
		for _, c := range h.Counts {
			sum += c
		}
		return sum == n && h.Total == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
