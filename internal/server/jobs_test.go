package server

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"
)

// blockingJob returns a runFunc that signals `started` (if non-nil) and then
// blocks until its context is canceled, returning the context's error.
func blockingJob(started chan<- struct{}) runFunc {
	return func(ctx context.Context, progress func(int, int)) ([]byte, error) {
		if started != nil {
			close(started)
		}
		<-ctx.Done()
		return nil, ctx.Err()
	}
}

func TestJobTimeoutFiresMidRun(t *testing.T) {
	m := newManager(1, 4, 30*time.Millisecond)
	defer m.close()
	started := make(chan struct{})
	job, err := m.submit("compare", "h1", blockingJob(started))
	if err != nil {
		t.Fatal(err)
	}
	<-started // the job is running when the timeout fires
	select {
	case <-job.Done:
	case <-time.After(5 * time.Second):
		t.Fatal("job never reached a terminal state after its timeout")
	}
	v := job.view(true)
	if v.Status != StatusFailed {
		t.Errorf("status %q, want %q", v.Status, StatusFailed)
	}
	if !strings.Contains(v.Error, "timed out") {
		t.Errorf("error %q does not mention the timeout", v.Error)
	}
	if jerr := job.terminalErr(); !errors.Is(jerr, context.DeadlineExceeded) {
		t.Errorf("terminal error %v does not wrap DeadlineExceeded", jerr)
	}
}

func TestJobCancelAfterComplete(t *testing.T) {
	m := newManager(1, 4, -1)
	defer m.close()
	job, err := m.submit("compare", "h1", func(ctx context.Context, progress func(int, int)) ([]byte, error) {
		return []byte("done"), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-job.Done
	if got := job.view(true).Status; got != StatusDone {
		t.Fatalf("status %q, want done", got)
	}
	// Cancel after completion: rejected, and the job stays done with its
	// result intact (the API layer turns this into 409).
	if m.cancelJob(job) {
		t.Error("cancelJob succeeded on a completed job")
	}
	v := job.view(true)
	if v.Status != StatusDone || string(v.Result) != "done" {
		t.Errorf("cancel-after-complete mutated the job: status %q result %q", v.Status, v.Result)
	}
	// Idempotent: a second attempt is rejected the same way.
	if m.cancelJob(job) {
		t.Error("second cancelJob succeeded on a completed job")
	}
}

func TestJobCancelWhileQueuedAndRunning(t *testing.T) {
	m := newManager(1, 4, -1)
	defer m.close()
	started := make(chan struct{})
	running, err := m.submit("compare", "h-running", blockingJob(started))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	queued, err := m.submit("compare", "h-queued", blockingJob(nil))
	if err != nil {
		t.Fatal(err)
	}
	// The queued job cancels instantly, never having run.
	if !m.cancelJob(queued) {
		t.Error("cancelJob rejected a queued job")
	}
	<-queued.Done
	if got := queued.view(false).Status; got != StatusCanceled {
		t.Errorf("queued job status %q, want canceled", got)
	}
	// The running job cancels via its context.
	if !m.cancelJob(running) {
		t.Error("cancelJob rejected a running job")
	}
	select {
	case <-running.Done:
	case <-time.After(5 * time.Second):
		t.Fatal("running job never finished after cancel")
	}
	if got := running.view(false).Status; got != StatusCanceled {
		t.Errorf("running job status %q, want canceled", got)
	}
}

func TestQueueFullRejectsSubmit(t *testing.T) {
	m := newManager(1, 1, -1)
	defer m.close()
	started := make(chan struct{})
	if _, err := m.submit("compare", "h-run", blockingJob(started)); err != nil {
		t.Fatal(err)
	}
	<-started // worker occupied
	if _, err := m.submit("compare", "h-q1", blockingJob(nil)); err != nil {
		t.Fatalf("queue slot rejected: %v", err)
	}
	job3, err := m.submit("compare", "h-q2", blockingJob(nil))
	if !errors.Is(err, errQueueFull) {
		t.Fatalf("overflow submit: err=%v, want errQueueFull", err)
	}
	if job3 != nil {
		t.Error("overflow submit returned a job")
	}
}

func TestQueueFull503OnCompare(t *testing.T) {
	// The HTTP layer must translate a full queue into 503 for synchronous
	// compares (and sweeps), not hang or 500.
	s, h := testServer(t, Options{Workers: 1, QueueDepth: 1})
	started := make(chan struct{})
	if _, err := s.jobs.submit("block", "h-run", blockingJob(started)); err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := s.jobs.submit("block", "h-q1", blockingJob(nil)); err != nil {
		t.Fatal(err)
	}
	if w := do(h, "POST", "/v1/compare", smallCompare); w.Code != 503 {
		t.Errorf("compare with full queue -> %d, want 503 (body: %s)", w.Code, w.Body)
	}
	if w := do(h, "POST", "/v1/sweep", smallSweep); w.Code != 503 {
		t.Errorf("sweep with full queue -> %d, want 503 (body: %s)", w.Code, w.Body)
	}
	if w := do(h, "POST", "/v1/experiment", `{"id":"fig11","quick":true}`); w.Code != 503 {
		t.Errorf("experiment with full queue -> %d, want 503 (body: %s)", w.Code, w.Body)
	}
}

func TestManagerCloseDrainsQueuedJobs(t *testing.T) {
	m := newManager(1, 4, -1)
	started := make(chan struct{})
	running, err := m.submit("compare", "h-run", blockingJob(started))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	queued, err := m.submit("compare", "h-q", blockingJob(nil))
	if err != nil {
		t.Fatal(err)
	}
	m.close()
	<-running.Done
	<-queued.Done
	if got := queued.view(false).Status; got != StatusCanceled {
		t.Errorf("queued job after close: status %q, want canceled", got)
	}
	// Submissions after close are rejected with errClosed.
	if _, err := m.submit("compare", "h-late", blockingJob(nil)); !errors.Is(err, errClosed) {
		t.Errorf("submit after close: err=%v, want errClosed", err)
	}
}

func TestDefaultWorkersRunOneJobPerCPU(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	s, h := testServer(t, Options{})
	a, b := make(chan struct{}), make(chan struct{})
	for _, started := range []chan struct{}{a, b} {
		if _, err := s.jobs.submit("block", "h", blockingJob(started)); err != nil {
			t.Fatal(err)
		}
	}
	for i, started := range []chan struct{}{a, b} {
		select {
		case <-started:
		case <-time.After(5 * time.Second):
			t.Fatalf("job %d never started: a default server with 2 CPUs runs fewer than 2 jobs at once", i)
		}
	}
	if w := do(h, "GET", "/metrics", ""); !strings.Contains(w.Body.String(), "\ncdcs_jobs_workers 2\n") {
		t.Errorf("/metrics does not report cdcs_jobs_workers 2:\n%s", w.Body)
	}
}
