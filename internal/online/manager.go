package online

import (
	"encoding/hex"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"schedfilter/internal/codecache"
	"schedfilter/internal/features"
	"schedfilter/internal/ir"
	"schedfilter/internal/machine"
	"schedfilter/internal/policy"
	"schedfilter/internal/ripper"
	"schedfilter/internal/sched"
	"schedfilter/internal/training"
)

// Manager runs the whole online-learning loop for a set of machine
// targets: it collects samples from observed programs, retrains filters
// in the background, shadow-gates candidates, and owns each target's
// versioned filter registry. One Manager serves one compile server.
type Manager struct {
	cfg     Config
	targets map[string]*targetState
	order   []string

	queue   chan observation
	workers sync.WaitGroup // measurement worker lifetime
	pending sync.WaitGroup // queued-but-unmeasured observations
	stop    chan struct{}
	ticker  sync.WaitGroup // periodic trainer lifetime

	mu     sync.Mutex // guards closed + queue sends (pool-style)
	closed bool

	// induce builds a candidate filter from labelled data; tests override
	// it to exercise the shadow gate with deliberately bad candidates.
	induce func(data []*training.BenchData, t int) *policy.Induced

	observed    atomic.Int64 // blocks seen on the compile path
	known       atomic.Int64 // blocks already in the reservoir (weight bump)
	enqueued    atomic.Int64 // blocks copied onto the measurement queue
	dropped     atomic.Int64 // blocks lost to a full queue
	measured    atomic.Int64 // samples measured and stored
	retrains    atomic.Int64
	promotions  atomic.Int64
	rejections  atomic.Int64
	activations atomic.Int64 // manual activations
	rollbacks   atomic.Int64
}

// targetState is one machine target's slice of the loop.
type targetState struct {
	name  string
	model *machine.Model
	res   *Reservoir
	reg   *Registry

	retrainMu sync.Mutex // single-flight retraining per target
}

// observation is one block awaiting background measurement.
type observation struct {
	st     *targetState
	fn     string
	key    codecache.Key
	instrs []ir.Instr // private copy; the request's block mutates freely
}

// NewManager builds and starts a manager: per-target reservoirs
// (restored from SpillDir when present), the boot filter registered and
// active as version 1 everywhere, one measurement worker, and — when
// cfg.Interval > 0 — the periodic background trainer.
func NewManager(cfg Config) (*Manager, error) {
	cfg = cfg.withDefaults()
	m := &Manager{
		cfg:     cfg,
		targets: map[string]*targetState{},
		queue:   make(chan observation, cfg.QueueDepth),
		stop:    make(chan struct{}),
		induce: func(data []*training.BenchData, t int) *policy.Induced {
			return training.TrainFilter(data, t, ripper.DefaultOptions(), nil)
		},
	}
	names := cfg.Targets
	if len(names) == 0 {
		for _, t := range machine.All() {
			names = append(names, t.Name)
		}
	}
	for _, name := range names {
		tgt, err := machine.ByName(name)
		if err != nil {
			return nil, err
		}
		st := &targetState{
			name:  name,
			model: tgt.Model,
			res:   newReservoir(cfg.SampleCap),
			reg:   newRegistry(name, cfg.Boot),
		}
		if cfg.SpillDir != "" {
			if err := st.res.LoadFile(m.spillPath(name)); err != nil {
				return nil, fmt.Errorf("online: restore %s reservoir: %w", name, err)
			}
		}
		m.targets[name] = st
		m.order = append(m.order, name)
	}
	m.workers.Add(1)
	go m.measureWorker()
	if cfg.Interval > 0 {
		m.ticker.Add(1)
		go m.retrainLoop()
	}
	return m, nil
}

func (m *Manager) spillPath(target string) string {
	return filepath.Join(m.cfg.SpillDir, target+".jsonl")
}

func (m *Manager) state(target string) (*targetState, error) {
	if st, ok := m.targets[target]; ok {
		return st, nil
	}
	return nil, fmt.Errorf("online: target %q is not managed", target)
}

// ActiveFilter returns the serving filter and version for a target. An
// unmanaged target falls back to the boot filter with version 0, so the
// serving path never fails here.
func (m *Manager) ActiveFilter(target string) (policy.Policy, int) {
	if st, ok := m.targets[target]; ok {
		return st.reg.ActiveFilter()
	}
	return m.cfg.Boot, 0
}

// Observe taps one compiled (not yet scheduled) program on the serving
// path. Known blocks cost a hash and a map probe; unknown blocks are
// copied onto the measurement queue (dropped, and counted, when it is
// full). Call before the scheduling pass mutates block order. keys, when
// non-nil, holds codecache.BlockKey under the target's model of every
// block of p in program order, and no block is hashed again.
func (m *Manager) Observe(target string, p *ir.Program, keys []codecache.Key) {
	st, ok := m.targets[target]
	if !ok {
		return
	}
	bi := -1
	for _, fn := range p.Fns {
		for _, b := range fn.Blocks {
			bi++
			m.observed.Add(1)
			if len(b.Instrs) == 0 {
				continue
			}
			var key codecache.Key
			if keys != nil {
				key = keys[bi]
			} else {
				key = codecache.BlockKey(st.model.Name, b.Instrs)
			}
			if st.res.Bump(key) {
				m.known.Add(1)
				continue
			}
			o := observation{st: st, fn: fn.Name, key: key,
				instrs: append([]ir.Instr(nil), b.Instrs...)}
			m.mu.Lock()
			if m.closed {
				m.mu.Unlock()
				return
			}
			m.pending.Add(1)
			select {
			case m.queue <- o:
				m.enqueued.Add(1)
			default:
				m.pending.Done()
				m.dropped.Add(1)
			}
			m.mu.Unlock()
		}
	}
}

// measureWorker turns queued observations into labelled samples: it
// list-schedules the private copy to obtain both cost estimates —
// the block actually served is never touched.
func (m *Manager) measureWorker() {
	defer m.workers.Done()
	s := sched.GetScratch()
	defer sched.PutScratch(s)
	for o := range m.queue {
		res := sched.ScheduleInstrsScratch(o.st.model, o.instrs, s)
		o.st.res.Add(o.key, &Sample{
			Key:    hex.EncodeToString(o.key[:]),
			Fn:     o.fn,
			Feat:   features.Extract(o.instrs),
			CostNS: res.CostBefore,
			CostLS: res.CostAfter,
			Seen:   1,
		})
		m.measured.Add(1)
		m.pending.Done()
	}
}

// Drain blocks until every observation enqueued so far has been
// measured. Retraining drains first so fresh traffic is trained on.
func (m *Manager) Drain() { m.pending.Wait() }

// retrainLoop is the background trainer: every Interval it retrains
// every managed target. Gate rejections and "insufficient samples" are
// normal outcomes, not errors.
func (m *Manager) retrainLoop() {
	defer m.ticker.Done()
	t := time.NewTicker(m.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-t.C:
			for _, name := range m.order {
				select {
				case <-m.stop:
					return
				default:
				}
				_, _ = m.Retrain(name)
			}
		}
	}
}

// RetrainReport describes one retraining round.
type RetrainReport struct {
	Target string `json:"target"`
	// Version is the registered candidate's version number; 0 when no
	// candidate was induced (insufficient samples).
	Version int `json:"version,omitempty"`
	// Promoted reports whether the candidate passed the shadow gate and
	// was hot-swapped in.
	Promoted bool `json:"promoted"`
	// Reason explains the outcome in one line.
	Reason string `json:"reason"`
	// ActiveVersion is the serving version after the round.
	ActiveVersion int `json:"active_version"`
	// Samples and Holdout are the reservoir split sizes; LSLabels and
	// NSLabels the threshold-t labelling of the training slice.
	Samples  int `json:"samples"`
	Holdout  int `json:"holdout"`
	LSLabels int `json:"ls_labels"`
	NSLabels int `json:"ns_labels"`
	// Candidate and Incumbent are the shadow scores on the holdout.
	Candidate *Score `json:"candidate,omitempty"`
	Incumbent *Score `json:"incumbent,omitempty"`
}

// Retrain runs one full round for a target: drain the measurement
// queue, split the reservoir, induce a candidate with Ripper, shadow-
// evaluate it against the incumbent on the holdout, and promote it only
// if the gate admits it. Rejected candidates stay registered (state
// "rejected") for inspection and operator override. Single-flight per
// target; concurrent calls serialize.
func (m *Manager) Retrain(target string) (*RetrainReport, error) {
	st, err := m.state(target)
	if err != nil {
		return nil, err
	}
	st.retrainMu.Lock()
	defer st.retrainMu.Unlock()
	m.Drain()
	m.retrains.Add(1)

	snap := st.res.Snapshot()
	train, hold := split(snap, holdoutK)
	incumbent, incVersion := st.reg.ActiveFilter()
	rep := &RetrainReport{
		Target:        target,
		ActiveVersion: incVersion,
		Samples:       len(train),
		Holdout:       len(hold),
	}
	if len(train) < m.cfg.MinSamples {
		rep.Reason = fmt.Sprintf("insufficient samples: %d < %d", len(train), m.cfg.MinSamples)
		return rep, nil
	}

	bd := benchData(target, train)
	rep.LSLabels, rep.NSLabels = training.LabelCounts(bd.Records, m.cfg.Threshold)
	cand := m.induce([]*training.BenchData{bd}, m.cfg.Threshold)
	cand.Label = fmt.Sprintf("online v%d t=%d", st.reg.Count()+1, m.cfg.Threshold)

	candScore := evalFilter(cand, hold)
	incScore := evalFilter(incumbent, hold)
	admitted, reason := admit(candScore, incScore)

	meta := Version{
		Label:          cand.Label,
		Samples:        len(train),
		HoldoutSamples: len(hold),
		Threshold:      m.cfg.Threshold,
		Rules:          policy.FormatInduced(cand),
		Score:          &candScore,
		IncumbentScore: &incScore,
		Reason:         reason,
	}
	if !admitted {
		meta.State = "rejected"
	}
	v := st.reg.Register(cand, meta)
	rep.Version = v.Version
	rep.Candidate = &candScore
	rep.Incumbent = &incScore
	rep.Reason = reason
	if admitted {
		if _, err := st.reg.Activate(v.Version); err != nil {
			return nil, err
		}
		rep.Promoted = true
		rep.ActiveVersion = v.Version
		m.promotions.Add(1)
	} else {
		m.rejections.Add(1)
	}
	return rep, nil
}

// benchData wraps a training slice as one synthetic benchmark so the
// existing labelling and induction pipeline applies unchanged.
func benchData(target string, train []*Sample) *training.BenchData {
	bd := &training.BenchData{Name: "online", Target: target}
	bd.Records = make([]training.BlockRecord, len(train))
	for i, s := range train {
		bd.Records[i] = training.BlockRecord{
			Fn:     s.Fn,
			Block:  i,
			Feat:   s.Feat,
			CostNS: s.CostNS,
			CostLS: s.CostLS,
			Execs:  s.Seen,
		}
	}
	return bd
}

// Activate makes version n the serving filter for a target (operator
// override: even gate-rejected versions may be activated).
func (m *Manager) Activate(target string, n int) (Version, error) {
	st, err := m.state(target)
	if err != nil {
		return Version{}, err
	}
	v, err := st.reg.Activate(n)
	if err != nil {
		return Version{}, err
	}
	m.activations.Add(1)
	cp := *v
	cp.filter = nil
	return cp, nil
}

// Rollback reverts a target to its previously activated version.
func (m *Manager) Rollback(target string) (Version, error) {
	st, err := m.state(target)
	if err != nil {
		return Version{}, err
	}
	v, err := st.reg.Rollback()
	if err != nil {
		return Version{}, err
	}
	m.rollbacks.Add(1)
	cp := *v
	cp.filter = nil
	return cp, nil
}

// ActiveInfo is the compact convergence identity of one target's
// serving filter: the version number and the rule hash. Two nodes
// serving the same (Version, RuleHash) pair for a target have converged
// on that target; the cluster gateway compares these across members
// after replicating a lifecycle operation.
type ActiveInfo struct {
	Target   string `json:"target"`
	Version  int    `json:"version"`
	Label    string `json:"label"`
	RuleHash string `json:"rule_hash"`
}

// ActiveSummary reports every managed target's serving version — the
// lock-free read the health endpoint exposes so cluster-wide version
// convergence is observable from a health poll, without the full
// Status() registry listing.
func (m *Manager) ActiveSummary() []ActiveInfo {
	out := make([]ActiveInfo, 0, len(m.order))
	for _, name := range m.order {
		v := m.targets[name].reg.Active()
		out = append(out, ActiveInfo{
			Target:   name,
			Version:  v.Version,
			Label:    v.Label,
			RuleHash: v.RuleHash,
		})
	}
	return out
}

// TargetStatus is one target's registry listing plus reservoir gauges.
type TargetStatus struct {
	Target        string    `json:"target"`
	ActiveVersion int       `json:"active_version"`
	Reservoir     int       `json:"reservoir"`
	Versions      []Version `json:"versions"`
}

// Status lists every managed target's versions, registry order.
func (m *Manager) Status() []TargetStatus {
	out := make([]TargetStatus, 0, len(m.order))
	for _, name := range m.order {
		st := m.targets[name]
		_, active := st.reg.ActiveFilter()
		out = append(out, TargetStatus{
			Target:        name,
			ActiveVersion: active,
			Reservoir:     st.res.Len(),
			Versions:      st.reg.List(),
		})
	}
	return out
}

// Registry exposes a target's registry (tests and experiments).
func (m *Manager) Registry(target string) *Registry {
	if st, ok := m.targets[target]; ok {
		return st.reg
	}
	return nil
}

// Reservoir exposes a target's reservoir (tests and experiments).
func (m *Manager) Reservoir(target string) *Reservoir {
	if st, ok := m.targets[target]; ok {
		return st.res
	}
	return nil
}

// Metrics is a point-in-time snapshot of the loop's counters.
type Metrics struct {
	Observed    int64
	Known       int64
	Enqueued    int64
	Dropped     int64
	Measured    int64
	Retrains    int64
	Promotions  int64
	Rejections  int64
	Activations int64
	Rollbacks   int64
}

// Metrics snapshots the manager's counters.
func (m *Manager) Metrics() Metrics {
	return Metrics{
		Observed:    m.observed.Load(),
		Known:       m.known.Load(),
		Enqueued:    m.enqueued.Load(),
		Dropped:     m.dropped.Load(),
		Measured:    m.measured.Load(),
		Retrains:    m.retrains.Load(),
		Promotions:  m.promotions.Load(),
		Rejections:  m.rejections.Load(),
		Activations: m.activations.Load(),
		Rollbacks:   m.rollbacks.Load(),
	}
}

// Spill persists every target's reservoir to SpillDir (no-op without
// one).
func (m *Manager) Spill() error {
	if m.cfg.SpillDir == "" {
		return nil
	}
	for _, name := range m.order {
		if err := m.targets[name].res.SaveFile(m.spillPath(name)); err != nil {
			return err
		}
	}
	return nil
}

// Close stops the background trainer and the measurement worker (after
// the queue drains), then spills the reservoirs. Idempotent.
func (m *Manager) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		m.workers.Wait()
		return nil
	}
	m.closed = true
	close(m.stop)
	close(m.queue)
	m.mu.Unlock()
	m.ticker.Wait()
	m.workers.Wait()
	return m.Spill()
}
