package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"schedfilter/internal/obs"
)

// The serving skeleton both daemons share: this compile server and the
// cluster gateway in front of it read bodies under one bound, answer in
// one JSON style, advertise draining on /healthz the same way, and shut
// down through one sequence.

// maxBody bounds request bodies (source text is small; listings are the
// big direction, and those are responses).
const maxBody = 8 << 20

// drainNotice is how long the health endpoint advertises "draining"
// (503) before the listener actually stops accepting. It must exceed a
// routing layer's health-check interval so every prober observes the
// flip and takes the node out of rotation first; the gateway's default
// check interval is a fraction of this.
const drainNotice = 750 * time.Millisecond

// ReadBody reads a request body of at most maxBody bytes.
func ReadBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	return io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
}

// WriteJSON writes v as an indented JSON response with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // connection-level failure; nothing left to do
}

// Reply records a response's outcome and its latency since start
// against ep, then writes v with WriteJSON.
func Reply(w http.ResponseWriter, ep *obs.Endpoint, start time.Time, status int, v any) {
	ep.Record(status, time.Since(start))
	WriteJSON(w, status, v)
}

// Drain is a daemon's drain state. Once BeginDrain runs, /healthz
// answers 503 ("draining") so load balancers stop routing to the daemon
// before its listener closes; requests already in flight (and stragglers
// that raced the flip) still complete normally.
type Drain struct{ draining atomic.Bool }

// BeginDrain flips the health endpoint to 503 ("draining"). Call it
// when shutdown starts, before the listener stops accepting: a load
// balancer or cluster gateway polling /healthz then takes the daemon
// out of rotation instead of eating connection resets when the socket
// closes. Other endpoints keep serving.
func (d *Drain) BeginDrain() { d.draining.Store(true) }

// Draining reports whether BeginDrain has been called.
func (d *Drain) Draining() bool { return d.draining.Load() }

// ServeHealth answers a /healthz probe with the body fill builds from
// the drain state: status "ok" and HTTP 200 while serving, "draining"
// and 503 once BeginDrain has run. Health bodies are compact JSON.
func (d *Drain) ServeHealth(w http.ResponseWriter, fill func(status string, draining bool) any) {
	status, code := "ok", http.StatusOK
	if d.Draining() {
		status, code = "draining", http.StatusServiceUnavailable
	}
	body := fill(status, code != http.StatusOK)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(body)
}

// Daemon is what Serve runs: an HTTP surface with a drain flip and a
// final Close.
type Daemon interface {
	Handler() http.Handler
	BeginDrain()
	Close()
}

// Serve runs d on addr until ctx is cancelled, then shuts down in
// LB-friendly order: /healthz flips to 503 first and keeps answering
// for drainNotice so routers stop sending traffic, then the listener
// stops and in-flight requests drain (bounded by drainTimeout), and d
// closes last. It is a daemon main's whole lifecycle in one call.
func Serve(ctx context.Context, d Daemon, addr string, drainTimeout time.Duration) error {
	httpSrv := &http.Server{
		Addr:              addr,
		Handler:           d.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	select {
	case err := <-errc:
		d.Close()
		return err
	case <-ctx.Done():
	}
	d.BeginDrain()
	select {
	case err := <-errc: // listener died while we advertised the drain
		d.Close()
		return err
	case <-time.After(drainNotice):
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	err := httpSrv.Shutdown(shutdownCtx)
	d.Close()
	if err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	return nil
}
