package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"nodevar/internal/obs"
)

// study is one served study computation: its cache identity and seed,
// plus the closures the pipeline calls only on a miss, inside the
// flight — a cache hit never builds a manifest config or a fingerprint.
type study struct {
	// kind names the span ("<kind>_compute"), the manifest command and
	// file, and the error messages: "coverage" or "distortion".
	kind string
	key  string
	seed uint64
	// run computes the response value. cacheable=false serves the
	// flight's waiters without storing the result (a degraded answer).
	run func(ctx context.Context) (resp any, cacheable bool, err error)
	// manifest returns the digest of every result-shaping input, which
	// with seed names the manifest file, and the manifest's config map.
	manifest func() (fingerprint uint64, config map[string]any)
}

// serveStudy runs st (or serves it from cache) and writes the response.
// Identical keys coalesce onto one in-flight computation and every
// response body is byte-identical, hit or miss.
func (s *Server) serveStudy(w http.ResponseWriter, r *http.Request, st study) {
	body, status, err := s.cache.Do(r.Context(), s.base, st.key, func(ctx context.Context) ([]byte, bool, error) {
		return s.computeStudy(ctx, st)
	})
	w.Header().Set("X-Cache", string(status))
	if err != nil {
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			writeError(w, http.StatusGatewayTimeout, codeTimeout, st.kind+" study did not finish within the request budget")
		case errors.Is(err, context.Canceled):
			writeError(w, http.StatusServiceUnavailable, codeUnavailable, st.kind+" study canceled")
		default:
			writeError(w, http.StatusInternalServerError, codeInternal, err.Error())
		}
		return
	}
	writeBody(w, http.StatusOK, body)
}

// computeStudy executes one coalesced study: run it, marshal once into
// the exact bytes every caller receives (trailing newline included, so
// a hit writes them in one call), and record a manifest-v3 run record
// carrying the same seed/fingerprint provenance a CLI run would.
func (s *Server) computeStudy(ctx context.Context, st study) ([]byte, bool, error) {
	sp, ctx := obs.StartSpanCtx(ctx, "server", st.kind+"_compute")
	defer sp.End()
	start := time.Now()
	resp, cacheable, err := st.run(ctx)
	if err != nil {
		return nil, false, err
	}
	hStudy.Observe(time.Since(start).Seconds())
	body, err := json.Marshal(resp)
	if err != nil {
		return nil, false, err
	}
	s.writeManifest(ctx, st, start)
	return append(body, '\n'), cacheable, nil
}

// writeManifest records one computed study as
// <ManifestDir>/<kind>-<seed>-<fingerprint>.json. Failures are logged,
// not returned: the study result is valid either way, and an unwritable
// manifest dir must not take the endpoint down.
func (s *Server) writeManifest(ctx context.Context, st study, start time.Time) {
	if s.cfg.ManifestDir == "" {
		return
	}
	digest, config := st.manifest()
	fp := fmt.Sprintf("%016x", digest)
	config["fingerprint"] = fp
	// The manifest records which request trace computed this study — the
	// trace ID goes in provenance, never in the cached response body,
	// which must stay byte-identical across hits.
	if tid, ok := obs.TraceIDFromContext(ctx); ok {
		config["trace_id"] = tid.String()
	}
	m := obs.NewManifest("nodevard/"+st.kind, nil, config, start, nil)
	path := filepath.Join(s.cfg.ManifestDir, fmt.Sprintf("%s-%d-%s.json", st.kind, st.seed, fp))
	var buf bytes.Buffer
	err := m.WriteJSON(&buf)
	if err == nil {
		err = os.MkdirAll(s.cfg.ManifestDir, 0o755)
	}
	if err == nil {
		err = os.WriteFile(path, buf.Bytes(), 0o666)
	}
	if err != nil {
		s.log.Error("study manifest unwritable", "path", path, "err", err)
		return
	}
	s.log.Debug("study manifest written", "path", path)
}
