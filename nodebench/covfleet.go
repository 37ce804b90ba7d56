package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"time"

	"nodevar/internal/server"
)

const (
	// coverageFleetLimitMs is coverage-fleet's latency limit.
	coverageFleetLimitMs = 250
	// warmStudies is how many studies each set-up sends through the
	// fleet before the first timed request.
	warmStudies = 8
)

// runCoverageFleet sends fresh coverage studies, each with a seed of
// its own, to a server whose studies run on two dist workers. Nothing
// repeats, so neither the server's cache nor a worker's completed-job
// cache can answer: rng, sampling and dist do the work.
func runCoverageFleet(o options) (*outcome, error) {
	sc := o.scale
	out := &outcome{limitMs: coverageFleetLimitMs, layer: map[string]float64{}}
	client := newClient(o.conns)
	defer client.CloseIdleConnections()

	warm := stream(o.seed, useWarm)
	var warmReqs []server.CoverageRequest
	for i := 0; i < warmStudies; i++ {
		warmReqs = append(warmReqs, coverageRequest(studySeed(warm), sc.coverageReplicates))
	}
	var st *stack
	for i := 0; i < sc.setups; i++ {
		if st != nil {
			st.close()
		}
		t0 := time.Now()
		s, err := startStack(2, server.Config{}, o.tamper)
		if err != nil {
			return nil, err
		}
		st = s
		for _, cr := range warmReqs {
			req := &request{class: "coverage", method: http.MethodPost, path: "/v1/coverage", body: mustJSON(cr), check: notDegraded}
			if err := send(context.Background(), client, st.base, req, nil, nil); err != nil {
				st.close()
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
		out.setup = append(out.setup, time.Since(t0).Seconds())
	}
	defer st.close()

	capStream := stream(o.seed, useCapacity)
	rps, n, errs := closedLoop(client, st.base, func() *request {
		cr := coverageRequest(studySeed(capStream), sc.coverageReplicates)
		return &request{class: "coverage", method: http.MethodPost, path: "/v1/coverage", body: mustJSON(cr), check: notDegraded}
	}, sc.capacity, o.conns)
	out.capacity = rps
	out.attempted += n
	for _, err := range errs {
		out.fail(fmt.Errorf("capacity phase: %w", err))
	}

	// The window: fresh studies at a fixed rate. A seeded subset of
	// answers is kept and later compared with in-process studies.
	win := stream(o.seed, useWindow)
	count := max(int(sc.fleetRate*o.dur.Seconds()), 4)
	check := map[int]bool{}
	for cs := stream(o.seed, useChecks); len(check) < min(sc.refChecks, count); {
		check[cs.Intn(count)] = true
	}
	crs := make([]server.CoverageRequest, count)
	bodies := make([][]byte, count)
	reqs := make([]*request, count)
	for i := range reqs {
		i := i
		crs[i] = coverageRequest(studySeed(win), sc.coverageReplicates)
		reqs[i] = &request{class: "coverage", method: http.MethodPost, path: "/v1/coverage", body: mustJSON(crs[i]),
			check: func(s int, h http.Header, b []byte) error {
				if check[i] {
					bodies[i] = bytes.Clone(b)
				}
				return notDegraded(s, h, b)
			}}
	}
	c0, m0, w0 := readCounters(), readMem(), st.workerCounts()
	recs, overhead, peak := runWindow(o, client, st.base, reqs, sc.fleetRate)
	out.win = window{ops: len(recs), mem0: m0, mem1: readMem(), counters: readCounters().sub(c0)}
	out.traceOverhead = overhead

	ctx := context.Background()
	for i := range check {
		want, err := expectedCoverage(ctx, crs[i])
		if err != nil {
			return nil, fmt.Errorf("reference study: %w", err)
		}
		if recs[i].err == nil && !bytes.Equal(bodies[i], want) {
			recs[i].err = fmt.Errorf("coverage request %d: body differs from the in-process study", i)
		}
	}
	observeAll(out, recs)

	d := out.win.counters
	if d["server.cache.hits"] != 0 || d["dist.jobs.degraded_local"] != 0 {
		out.fail(fmt.Errorf("%w: %d cache hits and %d degraded studies in a window of fresh studies",
			errWorkload, d["server.cache.hits"], d["dist.jobs.degraded_local"]))
	}
	out.layer["dist.worker_skew"] = st.workerSkew(w0)
	out.layer["server.inflight_peak"] = peak
	out.note("coverage-fleet: %d fresh studies at %g/s over 2 dist workers, %d checked against in-process studies",
		count, sc.fleetRate, len(check))
	for i := 0; i < min(sc.replay, count); i++ {
		out.replay.coverage = append(out.replay.coverage, crs[i])
	}
	return out, nil
}
