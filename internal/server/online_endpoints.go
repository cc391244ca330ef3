package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"schedfilter/internal/obs"
)

// The online-learning control plane: listing filter versions, manual
// activation and rollback, and on-demand retraining. These handlers run
// on the connection goroutine, NOT the compile pool — retraining a
// target can take a while (drain + Ripper induction + shadow eval), and
// it must never starve the compile workers it is retraining for. The
// manager's own per-target single-flight lock serializes overlapping
// retrains.

// onlineEndpoint wraps one control-plane handler: reject when the loop
// is disabled, read the body, run work inline, encode, record metrics.
func (s *Server) onlineEndpoint(name string, work func(r *http.Request, body []byte) (any, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		ep := s.obs.eps.Get(name)
		tr := obs.StartTrace(r.Header.Get(obs.TraceHeader))
		if s.online == nil {
			s.reply(w, ep, tr, start, http.StatusBadRequest,
				ErrorResponse{Error: "online learning is disabled (start the server with -online)"})
			return
		}
		body, err := ReadBody(w, r)
		if err != nil {
			s.reply(w, ep, tr, start, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
			return
		}
		resp, err := work(r, body)
		if err != nil {
			s.reply(w, ep, tr, start, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
			return
		}
		s.reply(w, ep, tr, start, http.StatusOK, resp)
	}
}

// actionTarget reads the optional {"target": ...} body shared by the
// activate/rollback/retrain endpoints; empty selects the server default.
func (s *Server) actionTarget(body []byte) (string, error) {
	var req FilterActionRequest
	if len(body) > 0 {
		if err := json.Unmarshal(body, &req); err != nil {
			return "", fmt.Errorf("bad request: %w", err)
		}
	}
	if req.Target == "" {
		return s.def.name, nil
	}
	return req.Target, nil
}

// handleFilters serves GET /v1/filters: every managed target's filter
// versions (with provenance) and reservoir size.
func (s *Server) handleFilters(w http.ResponseWriter, r *http.Request) {
	s.onlineEndpoint("filters", func(*http.Request, []byte) (any, error) {
		return FiltersResponse{Targets: s.online.Status()}, nil
	})(w, r)
}

// handleActivate serves POST /v1/filters/{version}/activate: hot-swap
// the named version in as a target's serving filter (operator override —
// even gate-rejected versions can be activated).
func (s *Server) handleActivate(w http.ResponseWriter, r *http.Request) {
	s.onlineEndpoint("activate", func(r *http.Request, body []byte) (any, error) {
		n, err := strconv.Atoi(r.PathValue("version"))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad filter version %q (want a positive integer)", r.PathValue("version"))
		}
		target, err := s.actionTarget(body)
		if err != nil {
			return nil, err
		}
		v, err := s.online.Activate(target, n)
		if err != nil {
			return nil, err
		}
		return FilterActionResponse{Target: target, Version: v}, nil
	})(w, r)
}

// handleRollback serves POST /v1/filters/rollback: revert a target to
// its previously activated version.
func (s *Server) handleRollback(w http.ResponseWriter, r *http.Request) {
	s.onlineEndpoint("rollback", func(_ *http.Request, body []byte) (any, error) {
		target, err := s.actionTarget(body)
		if err != nil {
			return nil, err
		}
		v, err := s.online.Rollback(target)
		if err != nil {
			return nil, err
		}
		return FilterActionResponse{Target: target, Version: v}, nil
	})(w, r)
}

// handleRetrain serves POST /v1/retrain: run one retraining round now.
// A named target retrains just that target; an empty body (or empty
// target) retrains every managed target in registry order.
func (s *Server) handleRetrain(w http.ResponseWriter, r *http.Request) {
	s.onlineEndpoint("retrain", func(_ *http.Request, body []byte) (any, error) {
		var req RetrainRequest
		if len(body) > 0 {
			if err := json.Unmarshal(body, &req); err != nil {
				return nil, fmt.Errorf("bad request: %w", err)
			}
		}
		var resp RetrainResponse
		if req.Target != "" {
			rep, err := s.online.Retrain(req.Target)
			if err != nil {
				return nil, err
			}
			resp.Reports = append(resp.Reports, rep)
			return resp, nil
		}
		for _, ts := range s.online.Status() {
			rep, err := s.online.Retrain(ts.Target)
			if err != nil {
				return nil, err
			}
			resp.Reports = append(resp.Reports, rep)
		}
		return resp, nil
	})(w, r)
}
