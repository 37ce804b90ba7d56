package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"time"

	"nodevar/internal/rng"
	"nodevar/internal/server"
)

const (
	mixedLimitMs = 250
	// mixedFleets is how many fleets each phase ingests into.
	mixedFleets = 4
	// dupShare is the planned share of re-sent (duplicate) samples.
	dupShare = 0.1
	// mixedCacheEntries holds the working set plus every fresh
	// distortion study of a run: the result cache evicts in insertion
	// order, so at the default 128 entries the distortions would push
	// the working set out and turn hits into bootstrap studies.
	mixedCacheEntries = 8192
)

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// mixed is serve-mixed's generator state: the repeated coverage working
// set with each config's first answer, and the fleets' ingest plans.
type mixed struct {
	working [][]byte // request bodies
	first   [][]byte // first answer to each
	fleets  []*ingestPlan
	queue   []string // the rest of the current block
	// distortions counts the distortion studies drawn so far.
	distortions int
}

// mixBlock is the mix's exact composition: every block of 20
// consecutive requests, shuffled by the seed, holds 7 repeated coverage
// requests, 1 fleet read, 10 ingest batches and 2 fresh distortion
// studies. Exact counts keep the work the same from seed to seed. The
// shares put the overall median inside the ingest class's dense lower
// half: with the fast classes (hits and reads, about 1 ms) at 60%, the
// median fell in their upper tail, where requests that waited behind a
// distortion study on the CPU sit, and it swung by 40% between runs.
var mixBlock = []string{
	"hit", "hit", "hit", "hit", "hit", "hit", "hit",
	"fleet_read",
	"ingest", "ingest", "ingest", "ingest", "ingest", "ingest", "ingest", "ingest", "ingest", "ingest",
	"distortion", "distortion",
}

// next draws the next request of the mix.
func (m *mixed) next(r *rng.Rand, keep func(server.DistortionRequest) func([]byte)) *request {
	if len(m.queue) == 0 {
		m.queue = append(m.queue, mixBlock...)
		r.Shuffle(len(m.queue), func(i, j int) { m.queue[i], m.queue[j] = m.queue[j], m.queue[i] })
	}
	class := m.queue[0]
	m.queue = m.queue[1:]
	switch class {
	case "hit":
		k := r.Intn(len(m.working))
		return &request{class: "hit", method: http.MethodPost, path: "/v1/coverage", body: m.working[k],
			check: func(_ int, _ http.Header, b []byte) error {
				if !bytes.Equal(b, m.first[k]) {
					return fmt.Errorf("repeated coverage request %d: body differs from its first answer", k)
				}
				return nil
			}}
	case "distortion":
		dr := distortionRequest(r, m.distortions)
		m.distortions++
		store := keep(dr)
		return &request{class: "distortion", method: http.MethodPost, path: "/v1/distortion", body: mustJSON(dr),
			check: func(_ int, _ http.Header, b []byte) error {
				if store != nil {
					store(bytes.Clone(b))
				}
				return nil
			}}
	case "ingest":
		return m.fleets[r.Intn(len(m.fleets))].request()
	default:
		f := m.fleets[r.Intn(len(m.fleets))]
		kind := []string{"stats", "samplesize", "outliers"}[r.Intn(3)]
		return &request{class: "fleet_read", method: http.MethodGet, path: "/v1/fleet/" + f.id + "/" + kind,
			check: func(_ int, _ http.Header, b []byte) error {
				if !bytes.Contains(b, []byte(`"source":"live-ingest"`)) {
					return fmt.Errorf("fleet %s %s: not a live-ingest answer", f.id, kind)
				}
				return nil
			}}
	}
}

func newPlans(prefix string, seed uint64, sc scale) []*ingestPlan {
	r := stream(seed, useFleet)
	out := make([]*ingestPlan, mixedFleets)
	for i := range out {
		out[i] = newIngestPlan(fmt.Sprintf("%s-%d", prefix, i), r.Uint64(), sc.fleetNodes, dupShare)
	}
	return out
}

// setupMixed brings up the server and warms it: the working set's first
// answers, the calibration cache (through two distortion studies), and
// a first batch into every fleet.
func setupMixed(o options, client *http.Client) (*stack, *mixed, []*ingestPlan, error) {
	st, err := startStack(0, server.Config{CacheEntries: mixedCacheEntries}, o.tamper)
	if err != nil {
		return nil, nil, nil, err
	}
	m := &mixed{fleets: newPlans("mix", o.seed, o.scale)}
	capFleets := newPlans("cap", o.seed+1, o.scale)
	ws := stream(o.seed, useWorkingSet)
	var warm []*request
	for i := 0; i < o.scale.workingSet; i++ {
		i := i
		m.working = append(m.working, mustJSON(coverageRequest(studySeed(ws), o.scale.coverageReplicates)))
		m.first = append(m.first, nil)
		warm = append(warm, &request{class: "hit", method: http.MethodPost, path: "/v1/coverage", body: m.working[i],
			check: func(_ int, _ http.Header, b []byte) error { m.first[i] = bytes.Clone(b); return nil }})
	}
	wr := stream(o.seed, useWarm)
	for k := 0; k < 8; k += 4 { // one colosse and one lrz study
		dr := distortionRequest(wr, k)
		warm = append(warm, &request{class: "distortion", method: http.MethodPost, path: "/v1/distortion", body: mustJSON(dr)})
	}
	for _, p := range append(append([]*ingestPlan(nil), m.fleets...), capFleets...) {
		warm = append(warm, p.request())
	}
	for _, req := range warm {
		if err := send(context.Background(), client, st.base, req, nil, nil); err != nil {
			st.close()
			return nil, nil, nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return st, m, capFleets, nil
}

// runServeMixed drives one server with the mix. Repeated coverage
// requests come from a working set far smaller than the result cache,
// so after warm-up no bootstrap runs: the simulation stack, the cache,
// JSON and the fleet registry do the work.
func runServeMixed(o options) (*outcome, error) {
	sc := o.scale
	out := &outcome{limitMs: mixedLimitMs, layer: map[string]float64{}}
	client := newClient(o.conns)
	defer client.CloseIdleConnections()

	var st *stack
	var m *mixed
	var capFleets []*ingestPlan
	for i := 0; i < sc.setups; i++ {
		if st != nil {
			st.close()
		}
		t0 := time.Now()
		var err error
		if st, m, capFleets, err = setupMixed(o, client); err != nil {
			return nil, err
		}
		out.setup = append(out.setup, time.Since(t0).Seconds())
	}
	defer st.close()

	// The capacity phase ingests into fleets of its own, so the window's
	// fleets see exactly the window's planned batches.
	capMix := &mixed{working: m.working, first: m.first, fleets: capFleets}
	capStream := stream(o.seed, useCapacity)
	noKeep := func(server.DistortionRequest) func([]byte) { return nil }
	rps, n, errs := closedLoop(client, st.base, func() *request { return capMix.next(capStream, noKeep) }, sc.capacity, o.conns)
	out.capacity = rps
	out.attempted += n
	for _, err := range errs {
		out.fail(fmt.Errorf("capacity phase: %w", err))
	}

	count := max(int(sc.mixedRate*o.dur.Seconds()), 8)
	checks := stream(o.seed, useChecks)
	type kept struct {
		req  server.DistortionRequest
		body []byte
	}
	var distortions []*kept
	keep := func(dr server.DistortionRequest) func([]byte) {
		if len(distortions) >= sc.refChecks || checks.Float64() >= 0.25 {
			return nil
		}
		k := &kept{req: dr}
		distortions = append(distortions, k)
		return func(b []byte) { k.body = b }
	}
	for _, p := range m.fleets {
		p.acc, p.dup = 0, 0
	}
	win := stream(o.seed, useWindow)
	reqs := make([]*request, count)
	for i := range reqs {
		reqs[i] = m.next(win, keep)
	}

	c0, m0 := readCounters(), readMem()
	recs, overhead, peak := runWindow(o, client, st.base, reqs, sc.mixedRate)
	out.win = window{ops: len(recs), mem0: m0, mem1: readMem(), counters: readCounters().sub(c0)}
	out.traceOverhead = overhead
	observeAll(out, recs)
	var planAcc, planDup int64 // the window's batches are built as they are sent
	for _, p := range m.fleets {
		planAcc += int64(p.acc)
		planDup += int64(p.dup)
	}

	for _, k := range distortions {
		want, err := expectedDistortion(k.req)
		if err != nil {
			return nil, fmt.Errorf("reference distortion: %w", err)
		}
		if k.body != nil && !bytes.Equal(k.body, want) {
			out.fail(fmt.Errorf("distortion seed %d: body differs from in-process CompareMeters", k.req.Seed))
		}
	}
	for _, p := range append(append([]*ingestPlan(nil), m.fleets...), capFleets...) {
		var body []byte
		req := &request{class: "fleet_read", method: http.MethodGet, path: "/v1/fleet/" + p.id + "/stats",
			check: func(_ int, _ http.Header, b []byte) error { body = b; return nil }}
		err := send(context.Background(), client, st.base, req, nil, nil)
		if err == nil {
			err = p.checkMoments(body)
		}
		if err != nil {
			out.fail(err)
		}
	}
	d := out.win.counters
	if d["fleet.samples_accepted"] != planAcc || d["fleet.samples_duplicate"] != planDup {
		out.fail(fmt.Errorf("fleets accepted %d and skipped %d samples, planned %d and %d",
			d["fleet.samples_accepted"], d["fleet.samples_duplicate"], planAcc, planDup))
	}
	if d["sampling.bootstrap.replicates"] != 0 || d["server.cache.evictions"] != 0 {
		out.fail(fmt.Errorf("%w: %d bootstrap replicates and %d cache evictions after warm-up",
			errWorkload, d["sampling.bootstrap.replicates"], d["server.cache.evictions"]))
	}
	out.layer["server.inflight_peak"] = peak

	byClass := map[string][]float64{}
	for _, r := range recs {
		byClass[r.class] = append(byClass[r.class], ms(r.latency()))
	}
	out.note("serve-mixed: %d requests at %g/s, %d distortion answers checked against in-process CompareMeters",
		count, sc.mixedRate, len(distortions))
	for _, c := range []string{"hit", "distortion", "ingest", "fleet_read"} {
		xs := byClass[c]
		out.note("%s_p50_ms %.4f over %d requests (p25 %.4f, p75 %.4f, p90 %.4f)", c, median(xs), len(xs),
			quantile(xs, 0.25), quantile(xs, 0.75), quantile(xs, 0.9))
	}
	for i := 0; i < min(sc.replay, len(m.working)); i++ {
		out.replay.hitBodies = append(out.replay.hitBodies, m.working[i])
	}
	for _, k := range distortions {
		out.replay.distortion = append(out.replay.distortion, k.req)
	}
	for _, r := range reqs {
		if r.class == "ingest" && r.body != nil && len(out.replay.ingest) < sc.replay {
			out.replay.ingest = append(out.replay.ingest, r.body)
		}
	}
	return out, nil
}
