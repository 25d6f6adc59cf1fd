// Shard-side membership: a worker daemon joins the cluster by
// registering with the router, heartbeats on an interval, re-registers
// when the router says it has been evicted (404), and deregisters on
// graceful shutdown so the ring rebalances immediately instead of
// waiting out the failure detector.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"time"

	"hpfcg/internal/serve"
)

// JoinOptions configure a shard's membership loop.
type JoinOptions struct {
	// RouterURL is the router's base URL (e.g. "http://router:8080").
	RouterURL string
	// Name is this shard's cluster-unique name.
	Name string
	// AdvertiseURL is the base URL other tiers reach this shard at.
	AdvertiseURL string
	// HeartbeatEvery is the heartbeat period (default 1s).
	HeartbeatEvery time.Duration
	// Logf logs membership events (default log.Printf).
	Logf func(format string, args ...any)
}

// Joiner runs a shard's register/heartbeat/deregister lifecycle.
type Joiner struct {
	opts JoinOptions
	cli  *http.Client
	logf func(format string, args ...any)
}

// NewJoiner validates the options and returns a Joiner; Run drives it.
func NewJoiner(opts JoinOptions) (*Joiner, error) {
	if opts.RouterURL == "" || opts.Name == "" || opts.AdvertiseURL == "" {
		return nil, fmt.Errorf("cluster: join needs router URL, name and advertise URL")
	}
	if opts.HeartbeatEvery <= 0 {
		opts.HeartbeatEvery = time.Second
	}
	j := &Joiner{opts: opts, cli: &http.Client{Timeout: 5 * time.Second}, logf: opts.Logf}
	if j.logf == nil {
		j.logf = log.Printf
	}
	return j, nil
}

// Run registers, then heartbeats until ctx is cancelled, then
// deregisters (on a short fresh context — the caller's is already
// dead). Registration failures retry with backoff rather than erroring
// out: the router may simply not be up yet.
func (j *Joiner) Run(ctx context.Context) error {
	if err := j.registerUntil(ctx); err != nil {
		return err
	}
	tick := time.NewTicker(j.opts.HeartbeatEvery)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			dctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
			defer cancel()
			if err := j.post(dctx, "/cluster/deregister", nil); err != nil {
				j.logf("cluster: deregister from %s failed: %v", j.opts.RouterURL, err)
			} else {
				j.logf("cluster: shard %s left the ring", j.opts.Name)
			}
			return ctx.Err()
		case <-tick.C:
			err := j.post(ctx, "/cluster/heartbeat", func(status int) error {
				if status == http.StatusNotFound {
					return errEvicted
				}
				return nil
			})
			if err == errEvicted {
				// The router evicted us (restart, long GC pause...):
				// re-register instead of heartbeating into the void.
				j.logf("cluster: shard %s was evicted, re-registering", j.opts.Name)
				if j.registerUntil(ctx) != nil {
					// ctx died mid-registration; the router may already
					// hold us, so leave through the deregister path.
					continue
				}
			} else if err != nil && ctx.Err() == nil {
				j.logf("cluster: heartbeat to %s failed: %v", j.opts.RouterURL, err)
			}
		}
	}
}

var errEvicted = fmt.Errorf("cluster: shard evicted by router")

// registerUntil retries registration with linear backoff until it
// succeeds or ctx dies.
func (j *Joiner) registerUntil(ctx context.Context) error {
	for attempt := 0; ; attempt++ {
		err := j.post(ctx, "/cluster/register", nil)
		if err == nil {
			j.logf("cluster: shard %s joined %s as %s", j.opts.Name, j.opts.RouterURL, j.opts.AdvertiseURL)
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		wait := time.Duration(min(attempt+1, 5)) * 500 * time.Millisecond
		j.logf("cluster: register with %s failed (%v), retrying in %s", j.opts.RouterURL, err, wait)
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(wait):
		}
	}
}

// post sends this shard's identity to a membership endpoint. check, if
// non-nil, may map a non-2xx status to a sentinel error before the
// generic failure is reported.
func (j *Joiner) post(ctx context.Context, path string, check func(status int) error) error {
	body, _ := json.Marshal(registerRequest{Name: j.opts.Name, URL: j.opts.AdvertiseURL})
	req, err := http.NewRequestWithContext(ctx, "POST", j.opts.RouterURL+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := j.cli.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if check != nil {
		if err := check(resp.StatusCode); err != nil {
			return err
		}
	}
	if resp.StatusCode/100 != 2 {
		var e serve.ErrorResponse
		_ = json.NewDecoder(resp.Body).Decode(&e)
		if e.Error != "" {
			return fmt.Errorf("%s: %s", resp.Status, e.Error)
		}
		return fmt.Errorf("%s", resp.Status)
	}
	return nil
}
