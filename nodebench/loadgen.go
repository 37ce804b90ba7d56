package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"time"

	"nodevar/internal/obs"
)

// request is one generated HTTP call. check judges the response; a
// non-nil error counts the request as failed.
type request struct {
	class  string
	method string
	path   string
	body   []byte
	// build, when set, makes body just before the request is sent, in
	// send order, so a long window's batches need not all sit in memory.
	build func() []byte
	// after, when non-nil, must be closed before this request is sent;
	// done is closed once it has finished. The pair keeps one fleet's
	// ingest batches in generation order, so their duplicate counts are
	// exactly the planned ones.
	after <-chan struct{}
	done  chan struct{}
	check func(status int, hdr http.Header, body []byte) error
}

// record is what happened to one request.
type record struct {
	class    string
	due      time.Time
	end      time.Time
	lag      time.Duration
	connWait time.Duration
	err      error
}

func (r record) latency() time.Duration { return r.end.Sub(r.due) }

func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// prepare builds the body of a lazily built request.
func (r *request) prepare() {
	if r.body == nil && r.build != nil {
		r.body = r.build()
	}
}

// send performs req against base and runs its check.
func send(ctx context.Context, c *http.Client, base string, req *request, rec *recorder, parent *spanRef) error {
	if req.after != nil {
		<-req.after
	}
	if req.done != nil {
		defer close(req.done)
	}
	req.prepare()
	sp := rec.start("http."+req.class, "server", parent)
	defer sp.end()
	var body io.Reader
	if req.body != nil {
		body = bytes.NewReader(req.body)
	}
	hr, err := http.NewRequestWithContext(ctx, req.method, base+req.path, body)
	if err != nil {
		return err
	}
	if req.body != nil {
		hr.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(hr)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: status %d: %s", req.method, req.path, resp.StatusCode, bytes.TrimSpace(b))
	}
	if req.check != nil {
		return req.check(resp.StatusCode, resp.Header, b)
	}
	return nil
}

// openLoop sends reqs on a fixed schedule, request i due at
// start+i*interval, over at most conns connections. A request that
// comes due while every connection is busy waits in the generator;
// its latency still counts from when it was due.
func openLoop(c *http.Client, base string, reqs []*request, interval time.Duration, conns int, rec *recorder) []record {
	recs := make([]record, len(reqs))
	work := make(chan int) // unbuffered: a send completes only when a connection is free
	var wg sync.WaitGroup
	for k := 0; k < conns; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				root := rec.start("request", "bench", nil)
				recs[i].err = send(context.Background(), c, base, reqs[i], rec, root)
				recs[i].end = time.Now()
				root.end()
			}
		}()
	}
	start := time.Now().Add(time.Millisecond)
	free := start
	for i, r := range reqs {
		due := start.Add(time.Duration(i) * interval)
		r.prepare()
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		ready := time.Now()
		recs[i].class, recs[i].due = r.class, due
		// Lag is the generator's own lateness: how long after the later
		// of the due time and its previous hand-off it got to this one.
		recs[i].lag = ready.Sub(later(due, free))
		work <- i
		free = time.Now()
		recs[i].connWait = free.Sub(ready)
	}
	close(work)
	wg.Wait()
	return recs
}

func later(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

// capacitySlices is how many equal slices the capacity phase is cut
// into; capacity is the median slice's completion rate, so a burst of
// interference in one slice does not move it.
const capacitySlices = 6

// closedLoop runs conns clients back to back for d, each taking the
// next request from gen (nil when there are no more), and returns the
// requests completed OK per second and the failures.
func closedLoop(c *http.Client, base string, gen func() *request, d time.Duration, conns int) (rps float64, attempted int, errs []error) {
	var mu sync.Mutex
	var done []time.Duration // completion times of OK requests
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for k := 0; k < conns; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				mu.Lock()
				req := gen() // under the lock, so chained requests leave in order
				if req != nil {
					req.prepare()
				}
				mu.Unlock()
				if req == nil {
					return
				}
				err := send(context.Background(), c, base, req, nil, nil)
				t := time.Since(start)
				mu.Lock()
				attempted++
				if err != nil {
					errs = append(errs, err)
				} else {
					done = append(done, t)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return sliceRate(done, d), attempted, errs
}

// sliceRate is the median over capacitySlices slices of d of each
// slice's completion rate, measured between its first and last
// completion.
func sliceRate(done []time.Duration, d time.Duration) float64 {
	sort.Slice(done, func(i, j int) bool { return done[i] < done[j] })
	rates := make([]float64, 0, capacitySlices)
	for s := 0; s < capacitySlices; s++ {
		lo := sort.Search(len(done), func(i int) bool { return done[i] >= d*time.Duration(s)/capacitySlices })
		hi := sort.Search(len(done), func(i int) bool { return done[i] >= d*time.Duration(s+1)/capacitySlices })
		if hi-lo >= 2 {
			rates = append(rates, float64(hi-lo-1)/(done[hi-1]-done[lo]).Seconds())
		}
	}
	return median(rates)
}

// runWindow sends the timed window's requests open loop at rate. A
// traced run sends the first half untraced and the second half traced
// and returns the relative difference of their median latencies.
func runWindow(o options, c *http.Client, base string, reqs []*request, rate float64) (recs []record, overhead, inflightPeak float64) {
	interval := time.Duration(float64(time.Second) / rate)
	if !o.trace {
		return openLoop(c, base, reqs, interval, o.conns, nil), 0, 0
	}
	h := len(reqs) / 2
	recs = openLoop(c, base, reqs[:h], interval, o.conns, nil)
	stop := make(chan struct{})
	peak := sampleGauge("server.inflight", stop)
	traced := openLoop(c, base, reqs[h:], interval, o.conns, o.rec)
	close(stop)
	overhead = medianLatency(traced)/medianLatency(recs) - 1
	return append(recs, traced...), overhead, <-peak
}

func medianLatency(recs []record) float64 {
	xs := make([]float64, len(recs))
	for i, r := range recs {
		xs[i] = ms(r.latency())
	}
	return median(xs)
}

// sampleGauge polls an obs gauge every millisecond until stop closes
// and then sends the highest value seen.
func sampleGauge(name string, stop <-chan struct{}) <-chan float64 {
	g := obs.Default().Gauge(name)
	out := make(chan float64, 1)
	go func() {
		peak := g.Value()
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				out <- peak
				return
			case <-t.C:
				peak = max(peak, g.Value())
			}
		}
	}()
	return out
}

// observeAll records the window's requests in o.
func observeAll(out *outcome, recs []record) {
	for _, r := range recs {
		out.observe(ms(r.latency()), r.err)
		out.lag = append(out.lag, ms(r.lag))
		out.connWait = append(out.connWait, ms(r.connWait))
	}
}

// quantile is the nearest-rank q-quantile of xs (sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	return xs[min(max(rank(q, len(xs))-1, 0), len(xs)-1)]
}

// rank is the 1-based nearest rank of the q-quantile of n samples. The
// epsilon keeps q*n from landing one rank high through rounding, as
// 0.9*100 does.
func rank(q float64, n int) int { return int(math.Ceil(q*float64(n) - 1e-9)) }

func median(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }

// sliceTail cuts xs (in send order) into up to ten consecutive slices
// of at least 200 samples, so each slice reaches at least the 0.95
// quantile, and returns the median over the slices of each slice's
// tail: its highest ladder quantile with at least ten samples beyond
// it. One stall then moves one slice, not the metric; and the tail
// stays where the slowest request class is dense, rather than in the
// few of its requests that shared the CPU, whose count follows the
// machine's speed from run to run.
func sliceTail(xs []float64) float64 {
	n := tailSlices(len(xs))
	tails := make([]float64, n)
	for s := range tails {
		part := append([]float64(nil), xs[s*len(xs)/n:(s+1)*len(xs)/n]...)
		tails[s] = quantile(part, tailQuantile(len(part)))
	}
	return median(tails)
}

func tailSlices(n int) int { return min(max(n/200, 1), 10) }

// tailQuantile is the highest of a fixed ladder of quantiles that
// leaves at least ten of n samples beyond it, or 1 (the maximum) when
// none does.
func tailQuantile(n int) float64 {
	for _, q := range []float64{0.999, 0.995, 0.99, 0.98, 0.95, 0.9} {
		if n-rank(q, n) >= 10 {
			return q
		}
	}
	return 1
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
