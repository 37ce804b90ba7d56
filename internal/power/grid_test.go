package power

import "testing"

// TestNewGrid pins the one sampling-grid rule every sampler uses: points
// a + i*period in [a, b), a point within period*1e-9 of b left to the
// caller's endpoint sample, and at least the point a.
func TestNewGrid(t *testing.T) {
	cases := []struct {
		name         string
		a, b, period float64
		wantN        int
	}{
		{"exact points", 0, 10, 2, 5},                       // 0 2 4 6 8
		{"point on b deferred", 0, 10, 2.5, 4},              // 0 2.5 5 7.5; 10 is the endpoint's
		{"point within eps below b", 0, 10 + 1e-10, 2.5, 4}, // 10 is within 2.5e-9 of b
		{"point just outside eps", 0, 10 + 1e-8, 2.5, 5},    // 10 is a genuine grid point
		{"non-integer period, 4 h", 0, 14400, 0.3, 48000},   // 48000*0.3 lands on b
		{"non-integer period, 7 h", 0, 25200, 0.3, 84000},   // likewise
		{"off-integer span", 0, 4000.5, 0.7, 5715},          // 5715*0.7 lands on b
		{"offset start", 1.5, 7.5, 1.5, 4},                  // 1.5 3 4.5 6
		{"single point", 5, 6, 2, 1},                        // only a
		{"window shorter than eps keeps a", 3, 3 + 1e-12, 1, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g := NewGrid(c.a, c.b, c.period)
			if g.N != c.wantN {
				t.Fatalf("N = %d, want %d", g.N, c.wantN)
			}
			for i := 0; i < g.N; i++ {
				if got, want := g.At(i), c.a+float64(i)*c.period; got != want {
					t.Fatalf("At(%d) = %v, want exactly %v", i, got, want)
				}
			}
			eps := c.period * 1e-9
			if g.N > 1 && !(g.At(g.N-1) < c.b-eps) {
				t.Errorf("last point %v not below b - eps = %v", g.At(g.N-1), c.b-eps)
			}
			if next := g.At(g.N); next < c.b-eps {
				t.Errorf("grid stops early: point %v is below b - eps = %v", next, c.b-eps)
			}
		})
	}
}
