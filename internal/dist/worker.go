package dist

import (
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"nodevar/internal/obs"
	"nodevar/internal/sampling"
)

// Worker-side metrics: the compute tier's own view of the fleet's
// behaviour, scraped from the worker's /metrics.
var (
	mWorkerJobs      = obs.NewCounter("dist.worker.jobs")
	mWorkerResumed   = obs.NewCounter("dist.worker.jobs_resumed")
	mWorkerFailed    = obs.NewCounter("dist.worker.jobs_failed")
	mWorkerRejected  = obs.NewCounter("dist.worker.jobs_rejected")
	mWorkerCacheHits = obs.NewCounter("dist.worker.cache_hits")
	mWorkerFrames    = obs.NewCounter("dist.worker.frames_streamed")
	gWorkerActive    = obs.NewGauge("dist.worker.active_jobs")
)

// WorkerConfig parameterizes a Worker. The zero value is usable.
type WorkerConfig struct {
	// MaxConcurrent caps coverage studies computing at once; excess jobs
	// queue (the connection waits) rather than shed, because the
	// frontend has already committed this study to this worker. Default
	// 4.
	MaxConcurrent int
	// CacheEntries caps the idempotent completed-job cache (FIFO
	// eviction). A re-dispatched JobID found here replays the cached
	// points without recompute. Default 64.
	CacheEntries int
	// ChunkDelay, when positive, sleeps this long after every completed
	// chunk. It exists for chaos and scaling harnesses that need
	// studies with predictable wall-clock length regardless of CPU;
	// production workers leave it zero.
	ChunkDelay time.Duration
	// Log receives job-level diagnostics. Default: discard.
	Log *slog.Logger
}

// Worker is the compute tier: it accepts coverage jobs over the small
// HTTP/JSON protocol, streams checkpoint envelopes back as the study
// progresses, and remembers completed results so duplicate dispatches
// are replays, not recomputes.
type Worker struct {
	cfg WorkerConfig
	log *slog.Logger
	sem chan struct{}

	mu    sync.Mutex
	done  map[string][]sampling.CoveragePoint // JobID -> completed points
	order []string                            // FIFO eviction order
}

// NewWorker builds a Worker, applying defaults.
func NewWorker(cfg WorkerConfig) *Worker {
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 4
	}
	if cfg.CacheEntries <= 0 {
		cfg.CacheEntries = 64
	}
	if cfg.Log == nil {
		cfg.Log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return &Worker{
		cfg:  cfg,
		log:  cfg.Log,
		sem:  make(chan struct{}, cfg.MaxConcurrent),
		done: map[string][]sampling.CoveragePoint{},
	}
}

// Handler returns the worker's route table: the job endpoint, the
// health probe, and the shared metrics exposition.
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+PathCoverage, w.handleCoverage)
	mux.HandleFunc("GET "+PathHealthz, func(rw http.ResponseWriter, r *http.Request) {
		rw.Header().Set("Content-Type", "application/json")
		rw.Write([]byte(`{"status":"ok"}` + "\n"))
	})
	mux.Handle("GET /metrics", obs.PromHandler())
	return mux
}

// cached looks up a completed job.
func (w *Worker) cached(jobID string) ([]sampling.CoveragePoint, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	pts, ok := w.done[jobID]
	return pts, ok
}

// remember stores a completed job, evicting the oldest past the cap.
func (w *Worker) remember(jobID string, pts []sampling.CoveragePoint) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, ok := w.done[jobID]; ok {
		return
	}
	w.done[jobID] = pts
	w.order = append(w.order, jobID)
	for len(w.order) > w.cfg.CacheEntries {
		old := w.order[0]
		w.order = w.order[1:]
		delete(w.done, old)
	}
}

// handleCoverage runs one coverage job, streaming NDJSON frames:
// checkpoint frames at the configured cadence, then exactly one result
// or error frame. Validation failures are plain 400s before any
// streaming starts; a failure mid-study becomes an error frame because
// the 200 header is already on the wire.
func (w *Worker) handleCoverage(rw http.ResponseWriter, r *http.Request) {
	job, cfg, err := DecodeJobRequest(r.Body)
	if err != nil {
		mWorkerRejected.Inc()
		rw.Header().Set("Content-Type", "application/json")
		rw.WriteHeader(http.StatusBadRequest)
		json.NewEncoder(rw).Encode(map[string]string{"error": err.Error()})
		return
	}

	rw.Header().Set("Content-Type", "application/x-ndjson")
	rw.Header().Set("X-Job-Id", job.JobID)
	flusher, _ := rw.(http.Flusher)
	var wmu sync.Mutex // frames may not interleave
	writeFrame := func(fr Frame) {
		wmu.Lock()
		defer wmu.Unlock()
		if err := json.NewEncoder(rw).Encode(fr); err != nil {
			return
		}
		mWorkerFrames.Inc()
		if flusher != nil {
			flusher.Flush()
		}
	}

	// Idempotent replay: a JobID computed before answers from the
	// completed-job cache — the re-dispatch a frontend issues after a
	// torn response or a lost connection costs nothing.
	if pts, ok := w.cached(job.JobID); ok {
		mWorkerCacheHits.Inc()
		writeFrame(Frame{Type: FrameResult, Points: pts, Cached: true})
		return
	}

	// Admission: queue behind the concurrency cap. The client's
	// disconnect releases the wait.
	select {
	case w.sem <- struct{}{}:
		defer func() { <-w.sem }()
	case <-r.Context().Done():
		return
	}

	mWorkerJobs.Inc()
	if cfg.Resume != nil {
		mWorkerResumed.Inc()
	}
	gWorkerActive.Add(1)
	defer gWorkerActive.Sub(1)

	// Both hooks run under the study's lock, OnChunk before the save it
	// triggers, so each frame reports the progress its envelope holds.
	var done, total int
	cfg.OnChunk = func(d, t int) {
		done, total = d, t
		if w.cfg.ChunkDelay > 0 {
			time.Sleep(w.cfg.ChunkDelay)
		}
	}
	cfg.OnCheckpoint = func(env []byte) error {
		writeFrame(Frame{Type: FrameCheckpoint, Done: done, Total: total, Checkpoint: env})
		return nil
	}

	w.log.Info("dist worker: job start", "job", job.JobID, "replicates", cfg.Replicates, "resume", cfg.Resume != nil)
	points, err := sampling.CoverageStudyCtx(r.Context(), cfg)
	if err != nil {
		mWorkerFailed.Inc()
		w.log.Warn("dist worker: job failed", "job", job.JobID, "err", err)
		writeFrame(Frame{Type: FrameError, Error: err.Error()})
		return
	}
	// Only a study computed from scratch is the JobID's answer: resume
	// state is the sender's word, and caching its outcome would let one
	// forged envelope answer every later honest dispatch.
	if cfg.Resume == nil {
		w.remember(job.JobID, points)
	}
	writeFrame(Frame{Type: FrameResult, Points: points})
	w.log.Info("dist worker: job done", "job", job.JobID)
}
