package obs

import (
	"sync"
	"testing"
)

func TestCounterVecChildrenAreIndependentAndStable(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("test.requests", "endpoint", "status")
	a := v.With("coverage", "2xx")
	b := v.With("coverage", "5xx")
	if a == b {
		t.Fatal("distinct label values share a child")
	}
	a.Add(3)
	b.Inc()
	if v.With("coverage", "2xx") != a {
		t.Fatal("With is not stable for the same label values")
	}
	if a.Value() != 3 || b.Value() != 1 {
		t.Fatalf("values %d/%d, want 3/1", a.Value(), b.Value())
	}
}

func TestVecPanicsOnLabelArityMismatch(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("test.arity", "endpoint")
	defer func() {
		if recover() == nil {
			t.Fatal("wrong label count did not panic")
		}
	}()
	v.With("a", "b")
}

func TestHistogramVecSharesBounds(t *testing.T) {
	r := NewRegistry()
	bounds := []float64{0.1, 1, 10}
	v := r.HistogramVec("test.lat", bounds, "endpoint")
	h := v.With("rules")
	h.Observe(0.5)
	s := h.Snapshot()
	if len(s.Bounds) != 3 || s.Counts[1] != 1 {
		t.Fatalf("unexpected snapshot %+v", s)
	}
}

func TestVecConcurrentWithIsRaceFree(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("test.concurrent", "k")
	keys := []string{"a", "b", "c", "d"}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				v.With(keys[(g+i)%len(keys)]).Inc()
			}
		}(g)
	}
	wg.Wait()
	var total int64
	for _, k := range keys {
		total += v.With(k).Value()
	}
	if total != 8*500 {
		t.Fatalf("lost updates: total %d, want %d", total, 8*500)
	}
}

func TestSnapshotFlattensVecChildren(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("test.flat", "endpoint").With("cov\"er\nage").Add(7)
	snap := r.Snapshot()
	// Label values escape in the flattened key exactly as in Prometheus
	// exposition, so snapshot keys stay unambiguous.
	want := `test.flat{endpoint="cov\"er\nage"}`
	if got, ok := snap.Counters[want]; !ok || got != 7 {
		t.Fatalf("flattened key missing or wrong: %v (keys %v)", got, snap.Counters)
	}
}
