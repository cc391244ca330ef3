// Package httpc is the one HTTP client the compile-service tooling
// shares: cmd/schedctl's one-shot commands, its load generator, and the
// cluster gateway's control-plane broadcasts all go through it instead
// of each growing their own request loop. It owns the three behaviors a
// client of the compile service needs and nothing more:
//
//   - a per-request timeout (the whole attempt, dial to body),
//   - bounded retries of transient failures — transport errors, 429
//     (queue full), 502/503/504 (node draining or dying) — never of
//     client faults (4xx means the request itself is wrong),
//   - exponential backoff with jitter between attempts, so a fleet of
//     retrying clients does not re-converge on the instant a node comes
//     back.
//
// POST bodies are JSON values marshalled once and replayed per attempt;
// every endpoint of the compile service is idempotent (compilation is a
// pure function of its input, cache inserts are content-addressed), so
// retrying a request that may have half-run is safe by construction.
package httpc

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"time"
)

// DefaultTimeout bounds one attempt when the caller passes none; cold
// compiles of the big workloads stay well inside it.
const DefaultTimeout = 120 * time.Second

// DefaultBackoff is the base delay before the first retry; it doubles
// per attempt and carries ±50% jitter.
const DefaultBackoff = 50 * time.Millisecond

// Client is a base-URL-bound HTTP client with retries. The zero value is
// not usable; call New.
type Client struct {
	base    string
	hc      *http.Client
	retries int
	backoff time.Duration
	// headers are set on every request (every retry attempt included) —
	// how schedctl pins a trace ID across a whole exchange.
	headers http.Header
	// sleep pauses between attempts; time.Sleep outside tests, which
	// substitute a recording clock so backoff is asserted, not awaited.
	sleep func(time.Duration)
}

// Response is one exchange's outcome: the final attempt's status, headers
// and fully read body.
type Response struct {
	Status int
	Header http.Header
	Body   []byte
}

// New returns a client for the service at base. timeout <= 0 selects
// DefaultTimeout; retries is the number of re-attempts after the first
// (0 = fail on the first transient error).
func New(base string, timeout time.Duration, retries int) *Client {
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	if retries < 0 {
		retries = 0
	}
	return &Client{
		base:    base,
		hc:      &http.Client{Timeout: timeout},
		retries: retries,
		backoff: DefaultBackoff,
		sleep:   time.Sleep,
	}
}

// SetHeader adds a header sent on every subsequent request (retries
// included). Not safe to call concurrently with requests; configure the
// client before using it.
func (c *Client) SetHeader(key, value string) {
	if c.headers == nil {
		c.headers = make(http.Header, 1)
	}
	c.headers.Set(key, value)
}

// Retryable reports whether a response status is worth re-attempting:
// 429 (backpressure) and the 5xx gateway/drain statuses. 400-class
// faults are the request's own and retrying cannot fix them.
func Retryable(status int) bool {
	switch status {
	case http.StatusTooManyRequests,
		http.StatusInternalServerError,
		http.StatusBadGateway,
		http.StatusServiceUnavailable,
		http.StatusGatewayTimeout:
		return true
	}
	return false
}

// BackoffDelay returns the pause before re-attempt number attempt
// (1-based): base doubled per attempt, with ±50% jitter so concurrent
// retriers decorrelate.
func BackoffDelay(base time.Duration, attempt int) time.Duration {
	if base <= 0 {
		base = DefaultBackoff
	}
	d := base << uint(attempt-1)
	if d > 2*time.Second {
		d = 2 * time.Second
	}
	half := int64(d) / 2
	return time.Duration(half + rand.Int63n(half+1) + rand.Int63n(half+1))
}

// do runs one request-building function through the retry loop.
func (c *Client) do(build func() (*http.Request, error)) (*Response, error) {
	var lastErr error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			c.sleep(BackoffDelay(c.backoff, attempt))
		}
		req, err := build()
		if err != nil {
			return nil, err
		}
		for key, vals := range c.headers {
			req.Header[key] = vals
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			lastErr = err
			if attempt < c.retries {
				continue
			}
			return nil, fmt.Errorf("after %d attempts: %w", attempt+1, lastErr)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			lastErr = err
			if attempt < c.retries {
				continue
			}
			return nil, fmt.Errorf("after %d attempts: %w", attempt+1, lastErr)
		}
		out := &Response{Status: resp.StatusCode, Header: resp.Header, Body: body}
		if Retryable(resp.StatusCode) && attempt < c.retries {
			lastErr = fmt.Errorf("HTTP %d", resp.StatusCode)
			continue
		}
		return out, nil
	}
}

// PostJSON marshals v once and POSTs it to path, retrying transient
// failures. The returned response may still carry a non-2xx status (a
// client fault, or a transient one that outlived the retry budget);
// callers decide what that means.
func (c *Client) PostJSON(path string, v any) (*Response, error) {
	buf, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return c.PostBytes(path, buf)
}

// PostBytes POSTs a pre-encoded JSON body to path through the retry
// loop. The gateway proxies request bodies it never decoded with this.
func (c *Client) PostBytes(path string, body []byte) (*Response, error) {
	return c.do(func() (*http.Request, error) {
		req, err := http.NewRequest(http.MethodPost, c.base+path, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		return req, nil
	})
}

// Get fetches path through the retry loop.
func (c *Client) Get(path string) (*Response, error) {
	return c.do(func() (*http.Request, error) {
		return http.NewRequest(http.MethodGet, c.base+path, nil)
	})
}

// errorBody is the service's uniform non-2xx body shape.
type errorBody struct {
	Error string `json:"error"`
}

// Err converts a non-2xx response into an error carrying the service's
// error text; a 2xx response yields nil.
func (r *Response) Err(path string) error {
	if r.Status == http.StatusOK {
		return nil
	}
	var e errorBody
	if json.Unmarshal(r.Body, &e) == nil && e.Error != "" {
		return fmt.Errorf("%s: %s (HTTP %d)", path, e.Error, r.Status)
	}
	return fmt.Errorf("%s: HTTP %d", path, r.Status)
}

// Decode unmarshals a 2xx response body into out; non-2xx responses
// come back as Err.
func (r *Response) Decode(path string, out any) error {
	if err := r.Err(path); err != nil {
		return err
	}
	return json.Unmarshal(r.Body, out)
}
