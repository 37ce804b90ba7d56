package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"nodevar/internal/core"
	"nodevar/internal/fleet"
	"nodevar/internal/methodology"
	"nodevar/internal/rng"
	"nodevar/internal/sampling"
	"nodevar/internal/server"
	"nodevar/internal/stats"
	"nodevar/internal/systems"
)

// Every input below is a pure function of the workload seed. Requests
// are sent fully specified, so the server's normalized echo equals the
// request and the expected bytes can be rebuilt in-process.

// Each coverage request is the LRZ preset pilot at the sizes Figure 3
// looks at, one level, and a seed of its own.
const pilotSize = 516

var (
	sampleSizes = []int{5, 16, 50}
	levels      = []float64{0.95}
	lrz         = mustSpec("lrz")
	// distortionMeters is every catalog meter except the reference,
	// which CompareMeters always measures against.
	distortionMeters = []string{"revenue", "windowed", "occ"}
)

func mustSpec(key string) systems.Spec {
	s, err := systems.ByKey(key)
	if err != nil {
		panic(err)
	}
	return s
}

// stream returns the generator for one named use of the workload seed,
// so adding draws to one use never shifts another's inputs.
func stream(seed uint64, use uint64) *rng.Rand { return rng.New(seed ^ use*0x9e3779b97f4a7c15) }

const (
	useWindow uint64 = iota + 1
	useCapacity
	useWarm
	useWorkingSet
	useFleet
	useChecks
	useReplay
)

// studySeed draws a nonzero request seed (0 selects the server default).
func studySeed(r *rng.Rand) uint64 { return r.Uint64()>>1 | 1 }

func coverageRequest(seed uint64, replicates int) server.CoverageRequest {
	return server.CoverageRequest{
		System:      "lrz",
		PilotSize:   pilotSize,
		Population:  lrz.TotalNodes,
		SampleSizes: sampleSizes,
		Levels:      levels,
		Replicates:  replicates,
		Seed:        seed,
	}
}

// coverageConfig is the study the server runs for req.
func coverageConfig(req server.CoverageRequest) (sampling.CoverageConfig, error) {
	pilot, err := systems.PilotSample(lrz, req.Seed, req.PilotSize)
	if err != nil {
		return sampling.CoverageConfig{}, err
	}
	return sampling.CoverageConfig{
		Pilot:       pilot,
		Population:  req.Population,
		SampleSizes: req.SampleSizes,
		Levels:      req.Levels,
		Replicates:  req.Replicates,
		Seed:        req.Seed,
		Chunks:      64,
	}, nil
}

// expectedCoverage computes req in-process and renders the bytes the
// server must answer with.
func expectedCoverage(ctx context.Context, req server.CoverageRequest) ([]byte, error) {
	cfg, err := coverageConfig(req)
	if err != nil {
		return nil, err
	}
	points, err := sampling.CoverageStudyCtx(ctx, cfg)
	if err != nil {
		return nil, err
	}
	resp := server.CoverageResponse{
		Request:     req,
		Seed:        cfg.Seed,
		Fingerprint: fmt.Sprintf("%016x", cfg.Fingerprint()),
		Points:      make([]server.CoveragePointJSON, 0, len(points)),
	}
	for _, p := range points {
		resp.Points = append(resp.Points, server.CoveragePointJSON{
			SampleSize: p.SampleSize, Level: p.Level, Coverage: p.Coverage,
			MeanRelWidth: p.MeanRelWidth, Replicates: p.Replicates,
		})
	}
	return marshalLine(resp)
}

func marshalLine(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	return append(b, '\n'), err
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// notDegraded fails a coverage answer the fleet computed locally.
func notDegraded(_ int, _ http.Header, body []byte) error {
	if bytes.Contains(body, []byte(`"degraded"`)) {
		return fmt.Errorf("degraded coverage answer")
	}
	return nil
}

// distortionRequest is the k-th fresh study of a stream: node counts
// cycle through 64, 128, 192 and 256 on colosse and then on lrz, so
// every eight studies do the same work whatever the seed; the seed
// picks each study's own seed.
func distortionRequest(r *rng.Rand, k int) server.DistortionRequest {
	one := 1.0
	sys := "colosse"
	if k/4%2 == 1 {
		sys = "lrz"
	}
	return server.DistortionRequest{
		System:    sys,
		Meters:    distortionMeters,
		Nodes:     64 * (1 + k%4),
		PilotSize: 48,
		Entropy:   &one,
		Seed:      studySeed(r),
	}
}

func distortionModels() ([]methodology.NamedModel, error) {
	var out []methodology.NamedModel
	for _, key := range distortionMeters {
		p, err := systems.MeterByKey(key)
		if err != nil {
			return nil, err
		}
		out = append(out, methodology.NamedModel{Name: p.Key, Model: p.Model})
	}
	return out, nil
}

// expectedDistortion runs req in-process through core.DistortionTarget
// and methodology.CompareMeters and renders the server's bytes.
func expectedDistortion(req server.DistortionRequest) ([]byte, error) {
	target, err := core.DistortionTarget(req.System, req.Nodes, *req.Entropy, req.Seed)
	if err != nil {
		return nil, err
	}
	models, err := distortionModels()
	if err != nil {
		return nil, err
	}
	rep, err := methodology.CompareMeters(target, models, methodology.DistortionConfig{PilotNodes: req.PilotSize, Seed: req.Seed})
	if err != nil {
		return nil, err
	}
	resp := server.DistortionResponse{
		Request: req, TrueAvgWatts: float64(rep.TrueAvg), Confidence: rep.Confidence,
		Accuracy: rep.Accuracy, PilotNodes: rep.PilotNodes, Reference: modelJSON(rep.Reference),
	}
	for _, md := range rep.Models {
		resp.Models = append(resp.Models, modelJSON(md))
	}
	return marshalLine(resp)
}

func modelJSON(md methodology.ModelDistortion) server.DistortionModelJSON {
	out := server.DistortionModelJSON{
		Name: md.Name, Architecture: md.Architecture, MeasuredCV: md.MeasuredCV,
		SampleSize: md.SampleSize, SampleSizeDelta: md.SampleSizeDelta,
	}
	for _, ld := range md.Levels {
		out.Levels = append(out.Levels, server.DistortionLevelJSON{
			Level: int(ld.Level), SystemPowerWatts: float64(ld.SystemPower),
			ErrVsTruth: ld.ErrVsTruth, ShiftVsReference: ld.ShiftVsReference,
		})
	}
	return out
}

// ingestPlan generates one fleet's batches: one sample per node per
// batch, with a seeded share of nodes re-sending their previous sample
// (a duplicate the fleet must skip). It records the samples the fleet
// must accept, in order, and chains the batches so they are applied in
// generation order.
type ingestPlan struct {
	id       string
	r        *rng.Rand
	base     []float64
	lastSeq  []uint64
	lastW    []float64
	round    uint64
	dupShare float64
	tail     chan struct{}

	accepted []float64 // planned accepted samples, in order
	acc, dup int       // planned counts since the last reset
}

func newIngestPlan(id string, seed uint64, nodes int, dupShare float64) *ingestPlan {
	p := &ingestPlan{id: id, r: rng.New(seed), base: make([]float64, nodes),
		lastSeq: make([]uint64, nodes), lastW: make([]float64, nodes), dupShare: dupShare}
	for i := range p.base {
		p.base[i] = p.r.Normal(lrz.MeanWatts, 0.03*lrz.MeanWatts)
	}
	return p
}

// next returns the next batch and its expected accepted/duplicate counts.
func (p *ingestPlan) next() ([]fleet.Sample, int, int) {
	p.round++
	out := make([]fleet.Sample, len(p.base))
	acc, dup := 0, 0
	for i := range p.base {
		if p.round > 1 && p.r.Float64() < p.dupShare {
			out[i] = fleet.Sample{Node: nodeName(i), Seq: p.lastSeq[i], Watts: p.lastW[i]}
			dup++
			continue
		}
		w := p.base[i] * (1 + 0.02*p.r.NormFloat64())
		p.lastSeq[i], p.lastW[i] = p.round, w
		p.accepted = append(p.accepted, w)
		out[i] = fleet.Sample{Node: nodeName(i), Seq: p.round, Watts: w}
		acc++
	}
	p.acc += acc
	p.dup += dup
	return out, acc, dup
}

func nodeName(i int) string { return fmt.Sprintf("n%04d", i) }

// request wraps the next batch as a chained POST /v1/ingest whose check
// holds the answer to the planned counts. The batch is drawn when the
// body is built, which happens in send order.
func (p *ingestPlan) request() *request {
	var acc, dup int
	done := make(chan struct{})
	req := &request{class: "ingest", method: http.MethodPost, path: "/v1/ingest", after: p.tail, done: done,
		build: func() []byte {
			var samples []fleet.Sample
			samples, acc, dup = p.next()
			body := server.IngestRequest{Fleet: p.id, Samples: make([]server.IngestSample, len(samples))}
			for i, s := range samples {
				body.Samples[i] = server.IngestSample{Node: s.Node, Seq: s.Seq, Watts: s.Watts}
			}
			return mustJSON(body)
		},
		check: func(_ int, _ http.Header, b []byte) error {
			var got server.IngestResponse
			if err := json.Unmarshal(b, &got); err != nil {
				return err
			}
			if got.Accepted != acc || got.Duplicates != dup {
				return fmt.Errorf("fleet %s: accepted %d duplicates %d, planned %d and %d",
					p.id, got.Accepted, got.Duplicates, acc, dup)
			}
			return nil
		}}
	p.tail = done
	return req
}

// checkMoments holds the fleet's served moments bit-identical to
// stats.MeanStdDev over the planned accepted samples.
func (p *ingestPlan) checkMoments(body []byte) error {
	var got server.FleetStatsResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	mean, sd := stats.MeanStdDev(p.accepted)
	if got.Samples != uint64(len(p.accepted)) || !sameBits(got.Mean, mean) || !sameBits(got.StdDev, sd) {
		return fmt.Errorf("fleet %s: served n=%d mean=%v sd=%v, batch n=%d mean=%v sd=%v",
			p.id, got.Samples, got.Mean, got.StdDev, len(p.accepted), mean, sd)
	}
	return nil
}
