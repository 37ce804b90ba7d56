package dist

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"nodevar/internal/checkpoint"
	"nodevar/internal/parallel"
	"nodevar/internal/sampling"
)

// postJob sends one job to a worker server and collects every frame of
// the response stream.
func postJob(t *testing.T, url string, job JobRequest) (int, []Frame) {
	t.Helper()
	resp, err := http.Post(url+PathCoverage, "application/json", bytes.NewReader(mustMarshal(t, job)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, nil
	}
	var frames []Frame
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), maxJobBytes)
	for sc.Scan() {
		var fr Frame
		if err := json.Unmarshal(sc.Bytes(), &fr); err != nil {
			t.Fatalf("bad frame %q: %v", sc.Text(), err)
		}
		frames = append(frames, fr)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, frames
}

func TestWorkerStreamsCheckpointsAndResult(t *testing.T) {
	srv := httptest.NewServer(NewWorker(WorkerConfig{}).Handler())
	defer srv.Close()

	cfg := testStudyConfig(11)
	cfg.CheckpointEvery = 2
	want, err := sampling.CoverageStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}

	status, frames := postJob(t, srv.URL, NewJobRequest(cfg))
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	var checkpoints, results int
	var final Frame
	for _, fr := range frames {
		switch fr.Type {
		case FrameCheckpoint:
			checkpoints++
			if len(fr.Checkpoint) == 0 {
				t.Fatal("checkpoint frame without envelope")
			}
			if fr.Total != cfg.Chunks {
				t.Fatalf("checkpoint total = %d, want %d", fr.Total, cfg.Chunks)
			}
		case FrameResult:
			results++
			final = fr
		default:
			t.Fatalf("unexpected frame %+v", fr)
		}
	}
	// Chunks=8, cadence 2 => progress saves plus the final flush.
	if checkpoints < 3 {
		t.Fatalf("only %d checkpoint frames streamed", checkpoints)
	}
	if results != 1 {
		t.Fatalf("%d result frames", results)
	}
	if final.Cached {
		t.Fatal("first run claims to be cached")
	}
	got := final.Points
	if len(got) != len(want) {
		t.Fatalf("%d points, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i].Coverage) != math.Float64bits(want[i].Coverage) ||
			math.Float64bits(got[i].MeanRelWidth) != math.Float64bits(want[i].MeanRelWidth) {
			t.Fatalf("point %d: remote %+v != local %+v", i, got[i], want[i])
		}
	}

	// Same JobID again: replayed from the completed-job cache.
	status, frames = postJob(t, srv.URL, NewJobRequest(cfg))
	if status != http.StatusOK {
		t.Fatalf("replay status %d", status)
	}
	if len(frames) != 1 || frames[0].Type != FrameResult || !frames[0].Cached {
		t.Fatalf("replay frames = %+v, want a single cached result", frames)
	}
}

func TestWorkerResumesFromEnvelope(t *testing.T) {
	cfg := testStudyConfig(23)
	want, err := sampling.CoverageStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// First life locally: stream envelopes, stop after a few chunks.
	var envs [][]byte
	ctx, cancel := context.WithCancel(context.Background())
	first := cfg
	first.OnCheckpoint = func(env []byte) error {
		envs = append(envs, env)
		return nil
	}
	first.OnChunk = func(done, total int) {
		if done == 3 {
			cancel()
		}
	}
	if _, err := sampling.CoverageStudyCtx(ctx, first); err == nil {
		t.Fatal("first life finished, want cancellation")
	}
	if len(envs) == 0 {
		t.Fatal("no envelopes streamed")
	}

	// Second life on a worker, resuming from the last envelope.
	srv := httptest.NewServer(NewWorker(WorkerConfig{}).Handler())
	defer srv.Close()
	cfg.CheckpointEvery = 2
	cfg.Resume = envs[len(envs)-1]
	status, frames := postJob(t, srv.URL, NewJobRequest(cfg))
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	final := frames[len(frames)-1]
	if final.Type != FrameResult {
		t.Fatalf("last frame %+v, want result", final)
	}
	got := final.Points
	for i := range want {
		if math.Float64bits(got[i].Coverage) != math.Float64bits(want[i].Coverage) ||
			math.Float64bits(got[i].MeanRelWidth) != math.Float64bits(want[i].MeanRelWidth) {
			t.Fatalf("point %d: resumed-on-worker %+v != uninterrupted %+v", i, got[i], want[i])
		}
	}
}

func TestWorkerRejectsBadJobs(t *testing.T) {
	srv := httptest.NewServer(NewWorker(WorkerConfig{}).Handler())
	defer srv.Close()

	for name, body := range map[string]string{
		"not json":    `pure garbage`,
		"wrong shape": `{"job_id":"x"}`,
		"nan":         `{"job_id":"x","seed":1,"fingerprint":"0","pilot":[NaN],"population":4}`,
	} {
		resp, err := http.Post(srv.URL+PathCoverage, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var e struct {
			Error string `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", name, resp.StatusCode)
		}
		if err != nil || e.Error == "" {
			t.Fatalf("%s: 400 body is not a JSON error: %v", name, err)
		}
	}
}

func TestWorkerHealthz(t *testing.T) {
	srv := httptest.NewServer(NewWorker(WorkerConfig{}).Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + PathHealthz)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	var st struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil || st.Status != "ok" {
		t.Fatalf("healthz body: %+v, %v", st, err)
	}
}

// TestWorkerResumedResultNotCached: a resume envelope is outside state
// the worker cannot vouch for (its checksum is a CRC anyone can
// compute), so a job that carried one must not seed the completed-job
// cache. A forged envelope claiming every chunk done with zero hits
// would otherwise make the honest dispatch that follows replay
// coverage 0.
func TestWorkerResumedResultNotCached(t *testing.T) {
	srv := httptest.NewServer(NewWorker(WorkerConfig{}).Handler())
	defer srv.Close()

	cfg := testStudyConfig(31)
	type chunk struct {
		Ci     int       `json:"ci"`
		Lo     int       `json:"lo"`
		Hi     int       `json:"hi"`
		Hits   []int64   `json:"hits"`
		Widths []float64 `json:"widths"`
	}
	cells := len(cfg.SampleSizes) * len(cfg.Levels)
	ranges := parallel.SplitRange(cfg.Replicates, cfg.Chunks)
	var done []chunk
	for ci, r := range ranges {
		done = append(done, chunk{Ci: ci, Lo: r.Lo, Hi: r.Hi, Hits: make([]int64, cells), Widths: make([]float64, cells)})
	}
	forged, err := checkpoint.Encode(sampling.CoverageCheckpointKind, cfg.Seed, cfg.Fingerprint(),
		map[string]any{"chunks": len(ranges), "done": done})
	if err != nil {
		t.Fatal(err)
	}
	forgedJob := cfg
	forgedJob.Resume = forged
	if status, _ := postJob(t, srv.URL, NewJobRequest(forgedJob)); status != http.StatusOK {
		t.Fatalf("forged job status %d", status)
	}

	want, err := sampling.CoverageStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	status, frames := postJob(t, srv.URL, NewJobRequest(cfg))
	if status != http.StatusOK || len(frames) == 0 {
		t.Fatalf("honest job status %d, %d frames", status, len(frames))
	}
	final := frames[len(frames)-1]
	if final.Type != FrameResult || final.Cached {
		t.Fatalf("honest job answered %+v, want a computed result", final)
	}
	for i := range want {
		if final.Points[i] != want[i] {
			t.Fatalf("point %d: %+v, want %+v", i, final.Points[i], want[i])
		}
	}
}

// TestWorkerFrameProgress: each checkpoint frame's Done is the number
// of chunks in the envelope it carries and Total the study's real chunk
// count, which is below Chunks when there are fewer replicates.
func TestWorkerFrameProgress(t *testing.T) {
	srv := httptest.NewServer(NewWorker(WorkerConfig{}).Handler())
	defer srv.Close()

	for _, tc := range []struct{ replicates, total int }{{400, 8}, {5, 5}} {
		cfg := testStudyConfig(37)
		cfg.Replicates = tc.replicates
		status, frames := postJob(t, srv.URL, NewJobRequest(cfg))
		if status != http.StatusOK {
			t.Fatalf("replicates %d: status %d", tc.replicates, status)
		}
		checkpoints := 0
		for _, fr := range frames {
			if fr.Type != FrameCheckpoint {
				continue
			}
			checkpoints++
			var prog struct {
				Done []json.RawMessage `json:"done"`
			}
			if err := checkpoint.Decode(fr.Checkpoint, sampling.CoverageCheckpointKind, cfg.Seed, cfg.Fingerprint(), &prog); err != nil {
				t.Fatal(err)
			}
			if fr.Done != len(prog.Done) || fr.Total != tc.total {
				t.Fatalf("replicates %d: frame reports %d/%d, envelope holds %d of %d chunks",
					tc.replicates, fr.Done, fr.Total, len(prog.Done), tc.total)
			}
		}
		if checkpoints == 0 {
			t.Fatalf("replicates %d: no checkpoint frames", tc.replicates)
		}
	}
}
