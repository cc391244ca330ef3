package online

import (
	"fmt"
	"sync"
	"sync/atomic"

	"schedfilter/internal/policy"
)

// Version is one registered policy version for a target: the policy
// itself plus full provenance. Versions are immutable after registration
// except for State, which tracks the version's life cycle.
type Version struct {
	// Version is the monotonic per-target version number; version 1 is
	// the boot incumbent.
	Version int `json:"version"`
	// Label is the filter's display name (e.g. "online v3 t=20").
	Label string `json:"label"`
	// Kind is the policy's registry kind ("ripper" for retrained
	// versions; whatever the boot policy is otherwise).
	Kind string `json:"kind,omitempty"`
	// Target names the machine target the filter serves.
	Target string `json:"target"`
	// State is one of "active", "standby", "rejected", "rolled-back".
	// A rejected candidate stays listed (and may be manually activated
	// by an operator who disagrees with the gate).
	State string `json:"state"`
	// Samples and HoldoutSamples record the reservoir split the version
	// was trained and shadow-evaluated on (zero for the boot filter).
	Samples        int `json:"samples"`
	HoldoutSamples int `json:"holdout_samples"`
	// Threshold is the labelling threshold t the training run used.
	Threshold int `json:"threshold"`
	// Rules is the round-trippable model text (policy.FormatInduced
	// format) for induced filters; empty for fixed boot filters.
	Rules string `json:"rules,omitempty"`
	// RuleHash is the short hex digest of the filter's rule text (fixed
	// protocols record their name instead): two versions share a hash
	// exactly when their rules make identical decisions. The serving
	// path's cache fingerprints use policy.ID, which prepends the
	// label on top of this digest.
	RuleHash string `json:"rule_hash"`
	// Score and IncumbentScore are the shadow-evaluation results on the
	// holdout slice (nil for the boot filter).
	Score          *Score `json:"score,omitempty"`
	IncumbentScore *Score `json:"incumbent_score,omitempty"`
	// Reason explains the gate's verdict ("promoted", or why not).
	Reason string `json:"reason,omitempty"`

	filter policy.Policy
}

// Filter returns the runnable filter behind the version.
func (v *Version) Filter() policy.Policy { return v.filter }

// Registry is one target's versioned filter store. The active version is
// an atomic pointer: the serving path reads it lock-free, activation is
// a copy-on-write swap, and every historical version stays addressable
// for listing, manual activation, and rollback.
type Registry struct {
	target string

	mu       sync.Mutex
	versions []*Version
	history  []int // activation order (version numbers), for rollback

	active atomic.Pointer[Version]
}

// newRegistry returns a registry for the named target with boot
// registered and activated as version 1.
func newRegistry(target string, boot policy.Policy) *Registry {
	r := &Registry{target: target}
	v := r.Register(boot, Version{Label: boot.Name(), State: "active", Reason: "boot incumbent"})
	r.mu.Lock()
	r.history = append(r.history, v.Version)
	r.mu.Unlock()
	r.active.Store(v)
	return r
}

// Register adds a new version holding f, taking provenance fields from
// meta (Version, Target, Kind, RuleHash, and the policy are filled in
// here). The new version is NOT activated unless it is the very first.
func (r *Registry) Register(f policy.Policy, meta Version) *Version {
	meta.filter = f
	meta.Target = r.target
	meta.Kind = f.Provenance().Kind
	if ind, ok := f.(*policy.Induced); ok {
		meta.RuleHash = ind.RuleHash()
	} else if id := policy.ID(f); id != f.Name() {
		// Policies with a richer content identity (cost thresholds,
		// portfolios) record it, so convergence comparisons stay exact.
		meta.RuleHash = id
	} else {
		meta.RuleHash = f.Name()
	}
	if meta.Label == "" {
		meta.Label = f.Name()
	}
	if meta.State == "" {
		meta.State = "standby"
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	meta.Version = len(r.versions) + 1
	v := &meta
	r.versions = append(r.versions, v)
	return v
}

// Active returns the currently serving version (never nil).
func (r *Registry) Active() *Version { return r.active.Load() }

// ActiveFilter returns the serving filter and its version number —
// the lock-free read the compile path performs per request.
func (r *Registry) ActiveFilter() (policy.Policy, int) {
	v := r.active.Load()
	return v.filter, v.Version
}

// Activate makes version n the serving filter. The previous active
// version moves to "standby". Activating the already-active version is
// a no-op.
func (r *Registry) Activate(n int) (*Version, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n < 1 || n > len(r.versions) {
		return nil, fmt.Errorf("online: target %s has no filter version %d (have 1..%d)", r.target, n, len(r.versions))
	}
	v := r.versions[n-1]
	cur := r.active.Load()
	if cur == v {
		return v, nil
	}
	cur.State = "standby"
	v.State = "active"
	r.history = append(r.history, n)
	r.active.Store(v)
	return v, nil
}

// Rollback reverts to the previously activated version. The abandoned
// version is marked "rolled-back" and stays listed.
func (r *Registry) Rollback() (*Version, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.history) < 2 {
		return nil, fmt.Errorf("online: target %s has no previous filter version to roll back to", r.target)
	}
	cur := r.active.Load()
	r.history = r.history[:len(r.history)-1]
	prev := r.versions[r.history[len(r.history)-1]-1]
	cur.State = "rolled-back"
	prev.State = "active"
	r.active.Store(prev)
	return prev, nil
}

// Count returns the number of registered versions.
func (r *Registry) Count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.versions)
}

// List returns a metadata copy of every version, oldest first. The
// copies carry no filter and are safe to serialize.
func (r *Registry) List() []Version {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Version, len(r.versions))
	for i, v := range r.versions {
		cp := *v
		cp.filter = nil
		out[i] = cp
	}
	return out
}
