package cluster

import (
	"encoding/json"

	"schedfilter/internal/online"
)

// The gateway's own JSON wire types. The compile-path endpoints
// (/v1/compile, /v1/schedule, /v1/predict, /v1/execute) proxy the
// backend wire types from internal/server unchanged; the types here
// cover what only a cluster has — batches, broadcasts, and the
// membership/convergence report.

// BatchRequest is the input of POST /v1/batch: one operation applied to
// many programs, fanned out across the cluster's shards. Each item is a
// complete request body for the selected operation and routes
// independently by its own content key.
type BatchRequest struct {
	// Op is compile, schedule, predict, or execute; empty selects
	// schedule.
	Op string `json:"op,omitempty"`
	// Items are the per-program request bodies.
	Items []json.RawMessage `json:"items"`
}

// BatchItemResult is one item's outcome, in input order.
type BatchItemResult struct {
	Index int `json:"index"`
	// Node is the member that answered.
	Node   string `json:"node,omitempty"`
	Status int    `json:"status"`
	// Response is the backend's body for a 200; Error carries the
	// failure text otherwise.
	Response json.RawMessage `json:"response,omitempty"`
	Error    string          `json:"error,omitempty"`
	// Coalesced reports the item was byte-identical to an earlier one in
	// the batch and shares that item's backend response instead of having
	// been forwarded itself.
	Coalesced bool `json:"coalesced,omitempty"`
}

// BatchResponse reports a batch: per-item outcomes plus the fan-out
// shape (how many items each node served).
type BatchResponse struct {
	Op     string            `json:"op"`
	Items  []BatchItemResult `json:"items"`
	OK     int               `json:"ok"`
	Failed int               `json:"failed"`
	Nodes  map[string]int    `json:"nodes"`
	// Coalesced counts items deduplicated inside the batch (identical
	// bodies forwarded once).
	Coalesced int   `json:"coalesced,omitempty"`
	WallNs    int64 `json:"wall_ns"`
}

// NodeResult is one member's outcome in a broadcast operation.
type NodeResult struct {
	Node     string          `json:"node"`
	Status   int             `json:"status"`
	Response json.RawMessage `json:"response,omitempty"`
	Error    string          `json:"error,omitempty"`
}

// BroadcastResponse reports a filter-lifecycle operation (retrain,
// activate, rollback) applied to every healthy member, plus the
// resulting per-target convergence picture re-polled after the fan-out.
type BroadcastResponse struct {
	Op          string              `json:"op"`
	Nodes       []NodeResult        `json:"nodes"`
	OK          int                 `json:"ok"`
	Failed      int                 `json:"failed"`
	Convergence []TargetConvergence `json:"convergence,omitempty"`
}

// MemberStatus is one member's row in the cluster report.
type MemberStatus struct {
	Name    string `json:"name"`
	URL     string `json:"url"`
	Healthy bool   `json:"healthy"`
	// Error is the last health-probe failure ("" when healthy).
	Error string `json:"error,omitempty"`
	// Fields below mirror the member's own /healthz report.
	Node          string              `json:"node,omitempty"`
	Target        string              `json:"target,omitempty"`
	Policy        string              `json:"policy,omitempty"`
	FilterVersion int                 `json:"filter_version,omitempty"`
	Online        bool                `json:"online,omitempty"`
	Draining      bool                `json:"draining,omitempty"`
	ActiveFilters []online.ActiveInfo `json:"active_filters,omitempty"`
	CheckedMsAgo  int64               `json:"checked_ms_ago"`
}

// TargetConvergence is one machine target's filter-replication verdict
// across the healthy online members.
type TargetConvergence struct {
	Target string `json:"target"`
	// Converged reports whether every healthy online member serves the
	// same filter version number for the target — the hot-swap rollout
	// criterion.
	Converged bool `json:"converged"`
	// HashConverged additionally requires identical rule hashes. Nodes
	// retrain from their own reservoirs, so versions converge under a
	// broadcast retrain+activate while hashes only converge when the
	// nodes saw equivalent traffic.
	HashConverged bool `json:"hash_converged"`
	// Versions and Hashes map member name → that node's active filter
	// version / rule hash for the target.
	Versions map[string]int    `json:"versions"`
	Hashes   map[string]string `json:"hashes,omitempty"`
}

// ClusterResponse is the body of GET /v1/cluster: live membership (the
// report re-polls every member before answering) plus per-target filter
// convergence.
type ClusterResponse struct {
	Total       int                 `json:"total"`
	Healthy     int                 `json:"healthy"`
	Replicas    int                 `json:"replicas"`
	Members     []MemberStatus      `json:"members"`
	Convergence []TargetConvergence `json:"convergence,omitempty"`
}

// gatewayHealth is the body of the gateway's own GET /healthz.
type gatewayHealth struct {
	Status   string `json:"status"`
	Members  int    `json:"members"`
	Healthy  int    `json:"healthy"`
	Draining bool   `json:"draining,omitempty"`
}
