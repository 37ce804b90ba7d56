package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nodevar/internal/dist"
	"nodevar/internal/server"
)

// stack is one in-process deployment on loopback listeners: a server
// and, for the fleet workload, its dist workers behind a frontend.
type stack struct {
	base       string
	cancel     context.CancelFunc
	servers    []*http.Server
	serving    sync.WaitGroup
	workerJobs []*atomic.Int64 // coverage jobs seen at each worker's listener
}

// serve starts h on a fresh loopback port and returns its base URL.
func (st *stack) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("listen: %w", err)
	}
	hs := &http.Server{Handler: h}
	st.servers = append(st.servers, hs)
	st.serving.Add(1)
	go func() {
		defer st.serving.Done()
		_ = hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return "http://" + ln.Addr().String(), nil
}

// startStack brings up a server with workers dist workers (0 for none)
// and waits until every worker answers its health probe. wrap, when
// non-nil, wraps the server's handler.
func startStack(workers int, cfg server.Config, wrap func(http.Handler) http.Handler) (*stack, error) {
	ctx, cancel := context.WithCancel(context.Background())
	st := &stack{cancel: cancel}
	var urls []string
	for i := 0; i < workers; i++ {
		n := &atomic.Int64{}
		st.workerJobs = append(st.workerJobs, n)
		wh := dist.NewWorker(dist.WorkerConfig{}).Handler()
		u, err := st.serve(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost && strings.HasPrefix(r.URL.Path, "/worker/v1/coverage") {
				n.Add(1)
			}
			wh.ServeHTTP(w, r)
		}))
		if err != nil {
			st.close()
			return nil, err
		}
		urls = append(urls, u)
	}
	if workers > 0 {
		fe, err := dist.NewFrontend(dist.Config{Workers: urls})
		if err != nil {
			st.close()
			return nil, err
		}
		fe.Start(ctx)
		for _, u := range urls {
			if err := probe(u + "/worker/v1/healthz"); err != nil {
				st.close()
				return nil, err
			}
		}
		if fe.LiveWorkers() != workers {
			st.close()
			return nil, fmt.Errorf("frontend sees %d of %d workers live", fe.LiveWorkers(), workers)
		}
		cfg.Dist = fe
	}
	cfg.BaseContext = ctx
	h := server.New(cfg).Handler()
	if wrap != nil {
		h = wrap(h)
	}
	u, err := st.serve(h)
	if err != nil {
		st.close()
		return nil, err
	}
	st.base = u
	return st, nil
}

func probe(url string) error {
	c := &http.Client{Timeout: 2 * time.Second}
	var last error
	for i := 0; i < 50; i++ {
		resp, err := c.Get(url)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("status %d", resp.StatusCode)
		}
		last = err
		time.Sleep(20 * time.Millisecond)
	}
	return fmt.Errorf("probe %s: %w", url, last)
}

// close stops every listener and waits for their serve loops to end.
func (st *stack) close() {
	for _, hs := range st.servers {
		_ = hs.Close() // the listener is ours; nothing else can close it first
	}
	st.serving.Wait()
	st.cancel()
}

// workerSkew is the busiest worker's share of all jobs its listeners
// saw, or 0 when there were none.
func (st *stack) workerSkew(before []int64) float64 {
	var total, top int64
	for i, n := range st.workerJobs {
		d := n.Load() - before[i]
		total += d
		top = max(top, d)
	}
	if total == 0 {
		return 0
	}
	return float64(top) / float64(total)
}

func (st *stack) workerCounts() []int64 {
	out := make([]int64, len(st.workerJobs))
	for i, n := range st.workerJobs {
		out[i] = n.Load()
	}
	return out
}
