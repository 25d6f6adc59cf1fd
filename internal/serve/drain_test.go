package serve

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestGracefulDrain is the shutdown contract: in-flight jobs finish,
// queued jobs are rejected, workers exit, and admission stays closed.
// The BatchStarted hook holds the first batch in flight at a known
// point so the test controls exactly what Drain sees.
func TestGracefulDrain(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	s := New(Options{
		Workers:     1,
		StartPaused: true,
		MaxBatch:    1, // keep the three jobs as three dispatches
		BatchStarted: func(jobs []*Job) {
			started <- struct{}{}
			<-release
		},
	})

	spec := JobSpec{Matrix: "laplace1d:64", NP: 2}
	j1, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	j3, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}

	s.resume()
	<-started // j1 is in flight, j2/j3 still queued

	drainErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		drainErr <- s.Drain(ctx)
	}()

	// Drain rejects the queued jobs synchronously (before waiting on the
	// in-flight batch); their done channels close with a rejection.
	for _, j := range []*Job{j2, j3} {
		select {
		case <-j.Done():
		case <-time.After(10 * time.Second):
			t.Fatalf("%s not rejected while draining", j.ID)
		}
		v, _ := s.View(j.ID)
		if v.State != StateFailed || !strings.Contains(v.Error, "draining") {
			t.Fatalf("%s: state %s err %q, want failed/draining", j.ID, v.State, v.Error)
		}
	}

	// The in-flight job is untouched and completes once released.
	if v, _ := s.View(j1.ID); v.State != StateRunning {
		t.Fatalf("in-flight job state %s, want running", v.State)
	}
	close(release)

	if err := <-drainErr; err != nil {
		t.Fatalf("drain: %v", err)
	}
	v1, _ := s.View(j1.ID)
	if v1.State != StateDone || !v1.Result.Converged {
		t.Fatalf("in-flight job after drain: state %s result %+v", v1.State, v1.Result)
	}

	// Admission stays closed.
	if _, err := s.Submit(spec); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain submit err = %v, want ErrDraining", err)
	}
}

// TestDrainClosesHTTPListener: the daemon's shutdown order — drain the
// scheduler, then close the listener — leaves a window where submits
// get 503 + Retry-After, after which the listener closes cleanly.
func TestDrainClosesHTTPListener(t *testing.T) {
	s := New(Options{Workers: 1})
	ts := httptest.NewServer(NewHandler(s))

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	resp, _ := postJob(t, ts, JobSpec{Matrix: "laplace1d:32", NP: 2})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining submit: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}

	ts.Close() // listener closes with workers already gone
	if _, err := http.Get(ts.URL + "/healthz"); err == nil {
		t.Fatal("listener still accepting after close")
	}
}

// TestDrainIdempotent: calling Drain twice is safe and both return.
func TestDrainIdempotent(t *testing.T) {
	s := New(Options{Workers: 2})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}
