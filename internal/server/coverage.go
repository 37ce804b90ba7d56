package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"nodevar/internal/sampling"
	"nodevar/internal/systems"
)

// Request-size guards: a coverage study's cost is
// replicates × (pilot + largest sample size) in CPU — the count-based
// replicate loop never materializes the population — so the axes that
// still buy work (pilot size, sample sizes, levels) are bounded before
// any work starts. Replicates are additionally bounded by the
// operator-configurable Config.MaxReplicates; Config.MaxPopulation
// survives only as a sanity bound on nonsensical requests.
const (
	maxPilotData   = 65536
	maxSampleSizes = 32
	maxLevels      = 16
)

// coverageConfig resolves a request into a runnable study config and
// the normalized request (defaults applied) that seeds the cache key
// and response echo. Chunks is pinned so the deterministic
// decomposition — and therefore byte-identity of cached results — never
// depends on a library default changing.
func (s *Server) coverageConfig(req CoverageRequest) (sampling.CoverageConfig, CoverageRequest, error) {
	if req.Seed == 0 {
		req.Seed = 2015
	}
	if req.Replicates == 0 {
		req.Replicates = 2000
	}
	if len(req.SampleSizes) == 0 {
		req.SampleSizes = []int{3, 5, 10, 20}
	}
	if len(req.Levels) == 0 {
		req.Levels = []float64{0.80, 0.95, 0.99}
	}
	switch {
	case req.Replicates < 0 || req.Replicates > s.cfg.MaxReplicates:
		return sampling.CoverageConfig{}, req, fmt.Errorf("replicates outside [1, %d]", s.cfg.MaxReplicates)
	case req.Population < 0 || req.Population > s.cfg.MaxPopulation:
		return sampling.CoverageConfig{}, req, fmt.Errorf("population outside [2, %d]", s.cfg.MaxPopulation)
	case req.PilotSize < 0:
		return sampling.CoverageConfig{}, req, fmt.Errorf("pilot_size must be positive, got %d", req.PilotSize)
	case len(req.SampleSizes) > maxSampleSizes:
		return sampling.CoverageConfig{}, req, fmt.Errorf("at most %d sample sizes per request", maxSampleSizes)
	case len(req.Levels) > maxLevels:
		return sampling.CoverageConfig{}, req, fmt.Errorf("at most %d confidence levels per request", maxLevels)
	case len(req.PilotData) > maxPilotData:
		return sampling.CoverageConfig{}, req, fmt.Errorf("pilot_data capped at %d nodes", maxPilotData)
	}

	var pilot []float64
	if len(req.PilotData) > 0 {
		if req.System != "" || req.PilotSize != 0 {
			return sampling.CoverageConfig{}, req, errors.New("pilot_data replaces system/pilot_size; give one or the other")
		}
		if req.Population == 0 {
			return sampling.CoverageConfig{}, req, errors.New("pilot_data needs an explicit population")
		}
		pilot = req.PilotData
	} else {
		if req.System == "" {
			req.System = "lrz"
		}
		if req.PilotSize == 0 {
			req.PilotSize = 516
		}
		spec, err := systems.ByKey(req.System)
		if err != nil {
			return sampling.CoverageConfig{}, req, err
		}
		pilot, err = systems.PilotSample(spec, req.Seed, req.PilotSize)
		if err != nil {
			return sampling.CoverageConfig{}, req, err
		}
		// PilotSample silently returns the whole dataset when n exceeds
		// it; served requests get a 400 instead, so the normalized
		// request echoed in the response never records a pilot size the
		// study didn't actually use.
		if req.PilotSize > len(pilot) {
			return sampling.CoverageConfig{}, req,
				fmt.Errorf("pilot_size %d exceeds the %s dataset (%d measured nodes)", req.PilotSize, req.System, len(pilot))
		}
		if req.Population == 0 {
			req.Population = spec.TotalNodes
		}
		// Preset populations resolve after the guard switch, so re-check
		// the operator cap against the resolved value.
		if req.Population > s.cfg.MaxPopulation {
			return sampling.CoverageConfig{}, req,
				fmt.Errorf("population outside [2, %d]", s.cfg.MaxPopulation)
		}
	}

	cfg := sampling.CoverageConfig{
		Pilot:       pilot,
		Population:  req.Population,
		SampleSizes: req.SampleSizes,
		Levels:      req.Levels,
		Replicates:  req.Replicates,
		Seed:        req.Seed,
		Chunks:      64,
		UseZ:        req.UseZ,
	}
	if err := cfg.Validate(); err != nil {
		return sampling.CoverageConfig{}, req, err
	}
	return cfg, req, nil
}

// coverageKey is the cache identity of a study: the provenance pair
// (fingerprint, seed) — the fingerprint digests every result-shaping
// field including the pilot data — plus the human-readable envelope for
// debuggability.
func coverageKey(req CoverageRequest, cfg sampling.CoverageConfig, fp uint64) string {
	return fmt.Sprintf("coverage|%s|pop=%d|reps=%d|seed=%d|z=%t|fp=%016x",
		coverageSystem(req), cfg.Population, cfg.Replicates, cfg.Seed, cfg.UseZ, fp)
}

// coverageSystem names the pilot source: a preset key, or "custom" for
// caller-measured pilot data.
func coverageSystem(req CoverageRequest) string {
	if len(req.PilotData) > 0 {
		return "custom"
	}
	return req.System
}

// handleCoverage runs (or serves from cache) a Figure 3 coverage study.
func (s *Server) handleCoverage(w http.ResponseWriter, r *http.Request) {
	var req CoverageRequest
	if err := decodeJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, codeBadJSON, err.Error())
		return
	}
	cfg, norm, err := s.coverageConfig(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, codeInvalidPlan, err.Error())
		return
	}
	fp := cfg.Fingerprint()
	s.serveStudy(w, r, study{
		kind: "coverage",
		key:  coverageKey(norm, cfg, fp),
		seed: cfg.Seed,
		run: func(ctx context.Context) (any, bool, error) {
			return s.computeCoverage(ctx, norm, cfg, fp)
		},
		manifest: func() (uint64, map[string]any) {
			return fp, map[string]any{
				"system":       coverageSystem(norm),
				"pilot_nodes":  len(cfg.Pilot),
				"population":   cfg.Population,
				"sample_sizes": cfg.SampleSizes,
				"levels":       cfg.Levels,
				"replicates":   cfg.Replicates,
				"seed":         cfg.Seed,
				"use_z":        cfg.UseZ,
			}
		},
	})
}

// computeCoverage runs one study on the worker fleet when one is
// configured, in-process otherwise. The returned bool is the cacheable
// flag: a degraded-mode answer (fleet unreachable, computed locally)
// serves its waiters but is not stored, so the Degraded marker
// disappears as soon as the fleet can answer again.
func (s *Server) computeCoverage(ctx context.Context, norm CoverageRequest, cfg sampling.CoverageConfig, fp uint64) (any, bool, error) {
	if s.coverageGate != nil {
		if err := s.coverageGate(ctx); err != nil {
			return nil, false, err
		}
	}
	var (
		points   []sampling.CoveragePoint
		degraded bool
		err      error
	)
	if s.dist != nil {
		points, degraded, err = s.dist.Coverage(ctx, cfg)
	} else {
		points, err = sampling.CoverageStudyCtx(ctx, cfg)
	}
	if err != nil {
		return nil, false, err
	}
	return CoverageResponse{
		Request:     norm,
		Seed:        cfg.Seed,
		Fingerprint: fmt.Sprintf("%016x", fp),
		Points:      points,
		Degraded:    degraded,
	}, !degraded, nil
}
