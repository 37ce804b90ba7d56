package server

import (
	"encoding/json"
	"errors"
	"net/http"

	"nodevar/internal/sampling"
)

// maxBodyBytes caps request bodies: every API request is a small JSON
// document; anything larger is hostile or confused.
const maxBodyBytes = 1 << 20

// Error codes carried in structured error bodies.
const (
	codeBadJSON     = "bad_json"
	codeInvalidPlan = "invalid_plan"
	codeBadRequest  = "bad_request"
	codeNotFound    = "not_found"
	codeShed        = "shed"
	codeTimeout     = "timeout"
	codeUnavailable = "unavailable"
	codeInternal    = "internal"
	// codeInsufficientData marks a live-fleet request that is valid but
	// cannot be answered yet (fewer than 2 samples, zero variance); retry
	// after more data arrives.
	codeInsufficientData = "insufficient_data"
	// codeFleetFull marks an ingest batch rejected because it would push
	// a fleet past its node capacity.
	codeFleetFull = "fleet_full"
)

// apiError is the structured error body every non-2xx API response
// carries: {"error": {"code": "...", "message": "..."}}.
type apiError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

type errorBody struct {
	Error apiError `json:"error"`
}

// writeJSON marshals v as the response body with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		writeError(w, http.StatusInternalServerError, codeInternal, "encoding response: "+err.Error())
		return
	}
	writeBody(w, status, b)
}

// writeBody writes preserialized JSON bytes; cached study responses
// go through here so every caller receives identical bytes.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
	if len(body) == 0 || body[len(body)-1] != '\n' {
		w.Write([]byte{'\n'})
	}
}

// writeError emits the structured error body.
func writeError(w http.ResponseWriter, status int, code, msg string) {
	b, _ := json.Marshal(errorBody{Error: apiError{Code: code, Message: msg}})
	writeBody(w, status, b)
}

// decodeJSON strictly parses the request body into dst: unknown fields,
// trailing garbage and oversized bodies are errors, so a typo'd field
// name cannot silently fall back to a default.
func decodeJSON(r *http.Request, dst any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return err
	}
	if dec.More() {
		return errors.New("trailing data after JSON document")
	}
	return nil
}

// SampleSizeRequest asks for a Plan's recommended node count
// (Equation 5). Confidence defaults to 0.95.
type SampleSizeRequest struct {
	Confidence float64 `json:"confidence,omitempty"`
	Accuracy   float64 `json:"accuracy"`
	CV         float64 `json:"cv"`
	Population int     `json:"population,omitempty"`
}

// SampleSizeResponse is the recommendation plus the accuracy the
// recommended sample actually achieves under the exact t quantile.
type SampleSizeResponse struct {
	Nodes            int               `json:"nodes"`
	AchievedAccuracy float64           `json:"achieved_accuracy"`
	Plan             SampleSizeRequest `json:"plan"`
}

// AccuracyRequest inverts the formula: the λ achieved by n nodes. Two
// modes share the endpoint. Plan mode supplies an anticipated CV
// (Equation 1 with the plan's finite population correction). Measured
// mode supplies the mean and standard deviation summary statistics of an
// actual run — possibly a degraded, fault-tolerant aggregation — and
// receives the realized interval's relative half-width, with a zero
// mean reported as a flagged degraded result instead of a panic.
type AccuracyRequest struct {
	Confidence float64  `json:"confidence,omitempty"`
	N          int      `json:"n"`
	Population int      `json:"population,omitempty"`
	CV         float64  `json:"cv,omitempty"`
	Mean       *float64 `json:"mean,omitempty"`
	SD         *float64 `json:"sd,omitempty"`
}

// AccuracyResponse carries λ; Degraded marks a relative accuracy that is
// undefined (zero-power point estimate), mirroring the methodology
// package's degraded assessments.
type AccuracyResponse struct {
	Accuracy float64 `json:"accuracy"`
	Degraded bool    `json:"degraded,omitempty"`
	Note     string  `json:"note,omitempty"`
}

// RulesResponse compares the old Level-1 1/64 rule with the paper's
// revised max(16, 10%) rule for one system size.
type RulesResponse struct {
	Nodes   int `json:"nodes"`
	Level1  int `json:"level1"`
	Revised int `json:"revised"`
}

// Table5Response is the paper's Table 5 grid: N[i][j] is the
// recommendation for Accuracies[i] and CVs[j].
type Table5Response struct {
	Accuracies []float64 `json:"accuracies"`
	CVs        []float64 `json:"cvs"`
	Population int       `json:"population"`
	Confidence float64   `json:"confidence"`
	N          [][]int   `json:"n"`
}

// CoverageRequest configures a Figure-3 bootstrap coverage study. All
// fields are optional: the zero value runs the LRZ default (516-node
// pilot, the system's population, n ∈ {3, 5, 10, 20}, levels 80/95/99%,
// 2000 replicates, seed 2015). PilotData, when given, replaces the
// preset dataset with caller-measured per-node powers and then requires
// an explicit Population.
type CoverageRequest struct {
	System      string    `json:"system,omitempty"`
	PilotSize   int       `json:"pilot_size,omitempty"`
	PilotData   []float64 `json:"pilot_data,omitempty"`
	Population  int       `json:"population,omitempty"`
	SampleSizes []int     `json:"sample_sizes,omitempty"`
	Levels      []float64 `json:"levels,omitempty"`
	Replicates  int       `json:"replicates,omitempty"`
	Seed        uint64    `json:"seed,omitempty"`
	UseZ        bool      `json:"use_z,omitempty"`
}

// CoveragePointJSON stays as an alias because nodebench still builds responses with it.
type CoveragePointJSON = sampling.CoveragePoint

// CoverageResponse is the study result plus its provenance: the seed and
// configuration fingerprint are the same pair a CLI run of the same
// study stamps into its checkpoints and manifests, so served and
// offline results can be cross-referenced.
type CoverageResponse struct {
	Request     CoverageRequest     `json:"request"`
	Seed        uint64              `json:"seed"`
	Fingerprint string              `json:"fingerprint"`
	Points      []CoveragePointJSON `json:"points"`
	// Degraded marks a study computed in-process because no distributed
	// worker could serve it. The points are still exact — same seed, same
	// deterministic decomposition — so this is a latency/topology signal,
	// not a quality one. omitempty keeps healthy-path responses
	// byte-identical whether or not a worker fleet is configured.
	Degraded bool `json:"degraded,omitempty"`
}
