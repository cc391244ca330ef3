package ripper

// The row-wise inducer as it stood before induction moved onto presorted
// attribute columns and coverage bitsets: the reference FuzzInduce and
// TestInduceMatchesReference compare Induce against, byte for byte on
// RuleSet.Format(). Identifiers carry a ref prefix; the algorithm is
// unchanged.

import (
	"math"
	"math/rand"
	"sort"
)

// refInduce learns an ordered rule list for the positive class of ds.
func refInduce(ds *Dataset, opt Options) *RuleSet {
	if opt.OptimizeRounds == 0 {
		opt.OptimizeRounds = 2
	}
	if opt.PosLabel == "" {
		opt.PosLabel = "pos"
	}
	if opt.NegLabel == "" {
		opt.NegLabel = "neg"
	}
	rs := &RuleSet{Names: append([]string(nil), ds.Names...), PosLabel: opt.PosLabel, NegLabel: opt.NegLabel}
	if ds.Len() == 0 {
		return rs
	}

	ind := &refInducer{ds: ds, m: newRefMDL(ds), rng: rand.New(rand.NewSource(opt.Seed))}

	all := make([]int, ds.Len())
	for i := range all {
		all[i] = i
	}
	rules := ind.irep(nil, all)

	for round := 0; round < opt.OptimizeRounds; round++ {
		rules = ind.optimize(rules)
		// Cover any residual positives with fresh rules.
		residual := ind.uncovered(rules, all)
		if refCountPos(ds, residual) > 0 {
			rules = ind.irep(rules, residual)
		}
	}
	rules = ind.deletePass(rules)

	rs.Rules = rules
	refFillStats(rs, ds)
	return rs
}

type refInducer struct {
	ds  *Dataset
	m   *refMDL
	rng *rand.Rand
}

func refCountPos(ds *Dataset, idx []int) int {
	p := 0
	for _, i := range idx {
		if ds.Y[i] {
			p++
		}
	}
	return p
}

// uncovered returns the subset of idx not covered by any rule.
func (ind *refInducer) uncovered(rules []Rule, idx []int) []int {
	var out []int
	for _, i := range idx {
		hit := false
		for r := range rules {
			if rules[r].Covers(ind.ds.X[i]) {
				hit = true
				break
			}
		}
		if !hit {
			out = append(out, i)
		}
	}
	return out
}

// split shuffles idx (stratified by class) and splits it 2/3 grow, 1/3
// prune.
func (ind *refInducer) split(idx []int) (grow, prune []int) {
	var pos, neg []int
	for _, i := range idx {
		if ind.ds.Y[i] {
			pos = append(pos, i)
		} else {
			neg = append(neg, i)
		}
	}
	ind.rng.Shuffle(len(pos), func(a, b int) { pos[a], pos[b] = pos[b], pos[a] })
	ind.rng.Shuffle(len(neg), func(a, b int) { neg[a], neg[b] = neg[b], neg[a] })
	cutP := len(pos) * 2 / 3
	cutN := len(neg) * 2 / 3
	grow = append(grow, pos[:cutP]...)
	grow = append(grow, neg[:cutN]...)
	prune = append(prune, pos[cutP:]...)
	prune = append(prune, neg[cutN:]...)
	return grow, prune
}

// irep runs the IREP* loop over the given remaining instances, returning
// base extended with the accepted new rules. MDL is measured for the whole
// rule list against the full dataset.
func (ind *refInducer) irep(base []Rule, remaining []int) []Rule {
	rules := append([]Rule(nil), base...)
	all := make([]int, ind.ds.Len())
	for i := range all {
		all[i] = i
	}
	minDL := ind.m.rulesetDL(rules, ind.ds)

	for refCountPos(ind.ds, remaining) > 0 {
		grow, prune := ind.split(remaining)
		r := ind.growRule(Rule{}, grow)
		r = ind.pruneRule(r, prune)
		if len(r.Conds) == 0 && len(remaining) < ind.ds.Len() {
			// A fully pruned rule covers everything; useless as a
			// non-first rule.
			break
		}
		cand := append(append([]Rule(nil), rules...), r)
		dl := ind.m.rulesetDL(cand, ind.ds)
		if dl > minDL+refDLBudget {
			break
		}
		// Reject rules whose prune-set precision is below chance.
		p, n := refCoverageCounts(ind.ds, &r, prune)
		if p+n > 0 && n > p {
			break
		}
		rules = cand
		if dl < minDL {
			minDL = dl
		}
		remaining = refFilterUncoveredBy(ind.ds, &r, remaining)
	}
	return rules
}

func refCoverageCounts(ds *Dataset, r *Rule, idx []int) (pos, neg int) {
	for _, i := range idx {
		if r.Covers(ds.X[i]) {
			if ds.Y[i] {
				pos++
			} else {
				neg++
			}
		}
	}
	return
}

func refFilterUncoveredBy(ds *Dataset, r *Rule, idx []int) []int {
	var out []int
	for _, i := range idx {
		if !r.Covers(ds.X[i]) {
			out = append(out, i)
		}
	}
	return out
}

// growRule extends start with conditions chosen by FOIL information gain
// until it covers no negatives (or no condition helps).
func (ind *refInducer) growRule(start Rule, grow []int) Rule {
	r := start.clone()
	covered := make([]int, 0, len(grow))
	for _, i := range grow {
		if r.Covers(ind.ds.X[i]) {
			covered = append(covered, i)
		}
	}
	for {
		p0, n0 := refClassCounts(ind.ds, covered)
		if p0 == 0 || n0 == 0 {
			break
		}
		best, gain := ind.bestCondition(covered, p0, n0)
		if gain <= 0 {
			break
		}
		r.Conds = append(r.Conds, best)
		next := covered[:0]
		for _, i := range covered {
			if best.Match(ind.ds.X[i]) {
				next = append(next, i)
			}
		}
		covered = next
	}
	return r
}

func refClassCounts(ds *Dataset, idx []int) (pos, neg int) {
	for _, i := range idx {
		if ds.Y[i] {
			pos++
		} else {
			neg++
		}
	}
	return
}

// bestCondition scans every attribute threshold over the covered set and
// returns the condition with maximal FOIL gain relative to (p0, n0).
func (ind *refInducer) bestCondition(covered []int, p0, n0 int) (Condition, float64) {
	type val struct {
		v   float64
		pos bool
	}
	base := math.Log2(float64(p0) / float64(p0+n0))
	var best Condition
	bestGain := 0.0

	numAttrs := len(ind.ds.X[0])
	vals := make([]val, 0, len(covered))
	for a := 0; a < numAttrs; a++ {
		vals = vals[:0]
		for _, i := range covered {
			vals = append(vals, val{ind.ds.X[i][a], ind.ds.Y[i]})
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i].v < vals[j].v })
		// Prefix counts: for each distinct value v, (pos,neg) with
		// attr <= v; the complement gives attr >= next distinct value.
		cp, cn := 0, 0
		for k := 0; k < len(vals); {
			v := vals[k].v
			for k < len(vals) && vals[k].v == v {
				if vals[k].pos {
					cp++
				} else {
					cn++
				}
				k++
			}
			// Condition attr <= v covers (cp, cn).
			if g := refFoilGain(cp, cn, base); g > bestGain && k < len(vals) {
				bestGain = g
				best = Condition{Attr: a, LE: true, Val: v}
			}
			// Condition attr >= nextV covers the complement.
			if k < len(vals) {
				nextV := vals[k].v
				if g := refFoilGain(p0-cp, n0-cn, base); g > bestGain {
					bestGain = g
					best = Condition{Attr: a, LE: false, Val: nextV}
				}
			}
		}
	}
	return best, bestGain
}

// refFoilGain is p1 * (log2(p1/(p1+n1)) − log2(p0/(p0+n0))).
func refFoilGain(p1, n1 int, base float64) float64 {
	if p1 == 0 {
		return 0
	}
	return float64(p1) * (math.Log2(float64(p1)/float64(p1+n1)) - base)
}

// pruneRule deletes a final suffix of conditions to maximize the IREP*
// pruning metric (p−n)/(p+n) on the prune set.
func (ind *refInducer) pruneRule(r Rule, prune []int) Rule {
	if len(r.Conds) <= 1 || len(prune) == 0 {
		return r
	}
	bestLen := len(r.Conds)
	bestScore := ind.pruneScore(&r, len(r.Conds), prune)
	for k := len(r.Conds) - 1; k >= 1; k-- {
		if s := ind.pruneScore(&r, k, prune); s >= bestScore {
			bestScore = s
			bestLen = k
		}
	}
	r.Conds = r.Conds[:bestLen]
	return r
}

func (ind *refInducer) pruneScore(r *Rule, k int, prune []int) float64 {
	trunc := Rule{Conds: r.Conds[:k]}
	p, n := refCoverageCounts(ind.ds, &trunc, prune)
	if p+n == 0 {
		return -1
	}
	return float64(p-n) / float64(p+n)
}

// optimize runs one Ripper optimization pass: each rule is pitted against
// a freshly grown replacement and a grown revision; the variant giving the
// smallest total description length wins.
func (ind *refInducer) optimize(rules []Rule) []Rule {
	for i := range rules {
		// Instances that reach rule i (not claimed by earlier rules).
		reach := make([]int, 0, ind.ds.Len())
		for j := 0; j < ind.ds.Len(); j++ {
			taken := false
			for k := 0; k < i; k++ {
				if rules[k].Covers(ind.ds.X[j]) {
					taken = true
					break
				}
			}
			if !taken {
				reach = append(reach, j)
			}
		}
		if refCountPos(ind.ds, reach) == 0 {
			continue
		}
		grow, prune := ind.split(reach)

		replacement := ind.growRule(Rule{}, grow)
		replacement = ind.pruneForRuleset(rules, i, replacement, prune)
		revision := ind.growRule(rules[i], grow)
		revision = ind.pruneForRuleset(rules, i, revision, prune)

		bestDL := ind.dlWith(rules, i, rules[i])
		best := rules[i]
		if dl := ind.dlWith(rules, i, replacement); dl < bestDL {
			bestDL, best = dl, replacement
		}
		if dl := ind.dlWith(rules, i, revision); dl < bestDL {
			bestDL, best = dl, revision
		}
		rules[i] = best
	}
	return rules
}

// pruneForRuleset prunes candidate (at position i of rules) to minimize
// the whole rule set's error on the prune split — Ripper's optimization-
// phase pruning objective.
func (ind *refInducer) pruneForRuleset(rules []Rule, i int, cand Rule, prune []int) Rule {
	if len(cand.Conds) <= 1 || len(prune) == 0 {
		return cand
	}
	eval := func(k int) int {
		trial := Rule{Conds: cand.Conds[:k]}
		wrong := 0
		for _, j := range prune {
			pred := false
			for q := range rules {
				r := &rules[q]
				if q == i {
					r = &trial
				}
				if r.Covers(ind.ds.X[j]) {
					pred = true
					break
				}
			}
			if pred != ind.ds.Y[j] {
				wrong++
			}
		}
		return wrong
	}
	bestLen := len(cand.Conds)
	bestErr := eval(bestLen)
	for k := len(cand.Conds) - 1; k >= 1; k-- {
		if e := eval(k); e <= bestErr {
			bestErr = e
			bestLen = k
		}
	}
	cand.Conds = cand.Conds[:bestLen]
	return cand
}

func (ind *refInducer) dlWith(rules []Rule, i int, r Rule) float64 {
	trial := append([]Rule(nil), rules...)
	trial[i] = r
	return ind.m.rulesetDL(trial, ind.ds)
}

// deletePass greedily removes rules whose deletion lowers the total
// description length.
func (ind *refInducer) deletePass(rules []Rule) []Rule {
	for {
		cur := ind.m.rulesetDL(rules, ind.ds)
		bestIdx, bestDL := -1, cur
		for i := range rules {
			trial := append([]Rule(nil), rules[:i]...)
			trial = append(trial, rules[i+1:]...)
			if dl := ind.m.rulesetDL(trial, ind.ds); dl < bestDL {
				bestIdx, bestDL = i, dl
			}
		}
		if bestIdx < 0 {
			return rules
		}
		rules = append(rules[:bestIdx], rules[bestIdx+1:]...)
	}
}

// refFillStats computes Figure-4 style per-rule matched counts: each instance
// is claimed by its first covering rule.
func refFillStats(rs *RuleSet, ds *Dataset) {
	for i := range rs.Rules {
		rs.Rules[i].TP, rs.Rules[i].FP = 0, 0
	}
	rs.DefaultTP, rs.DefaultFP = 0, 0
	for i := range ds.X {
		claimed := false
		for j := range rs.Rules {
			if rs.Rules[j].Covers(ds.X[i]) {
				if ds.Y[i] {
					rs.Rules[j].TP++
				} else {
					rs.Rules[j].FP++
				}
				claimed = true
				break
			}
		}
		if !claimed {
			if ds.Y[i] {
				rs.DefaultFP++
			} else {
				rs.DefaultTP++
			}
		}
	}
}

// Minimum-description-length accounting, following the scheme Cohen
// borrowed from Quinlan's C4.5rules: a rule set's cost is the bits needed
// to transmit the theory (the rules) plus the bits needed to identify its
// exceptions (false positives among covered examples, false negatives
// among uncovered ones). The constants mirror the usual implementations
// (a 0.5 redundancy factor on theory bits, a 64-bit budget above the
// minimum before induction stops).
type refMDL struct {
	// universe is the number of distinct possible conditions, used to
	// price each condition in a rule.
	universe float64
	n        int // training-set size
}

func newRefMDL(ds *Dataset) *refMDL {
	// Count distinct values per attribute; each yields a <= and a >=
	// condition.
	total := 0.0
	if ds.Len() > 0 {
		for a := range ds.X[0] {
			seen := make(map[float64]struct{})
			for i := range ds.X {
				seen[ds.X[i][a]] = struct{}{}
			}
			total += float64(2 * len(seen))
		}
	}
	if total < 2 {
		total = 2
	}
	return &refMDL{universe: total, n: ds.Len()}
}

func refLog2(x float64) float64 { return math.Log2(x) }

// refLog2Binomial returns log2 of C(n, k) computed via lgamma.
func refLog2Binomial(n, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	ln2 := math.Ln2
	lg := func(x int) float64 {
		v, _ := math.Lgamma(float64(x) + 1)
		return v
	}
	return (lg(n) - lg(k) - lg(n-k)) / ln2
}

// theoryBits prices one rule: identify how many conditions it has, then
// which conditions, discounted by the standard redundancy factor.
func (m *refMDL) theoryBits(r *Rule) float64 {
	k := len(r.Conds)
	if k == 0 {
		return 0
	}
	return 0.5 * (refLog2(float64(k)+1) + float64(k)*refLog2(m.universe))
}

// exceptionBits prices the errors a rule set makes on the training data:
// transmit the number and identity of false positives among the covered
// set and false negatives among the uncovered set.
func (m *refMDL) exceptionBits(covered, fp, uncovered, fn int) float64 {
	bits := 0.0
	bits += refLog2(float64(covered) + 1)
	bits += refLog2Binomial(covered, fp)
	bits += refLog2(float64(uncovered) + 1)
	bits += refLog2Binomial(uncovered, fn)
	return bits
}

// rulesetDL returns the total description length of the rule set measured
// against the dataset.
func (m *refMDL) rulesetDL(rules []Rule, ds *Dataset) float64 {
	bits := 0.0
	for i := range rules {
		bits += m.theoryBits(&rules[i])
	}
	covered, fp, uncovered, fn := 0, 0, 0, 0
	for i := range ds.X {
		hit := false
		for j := range rules {
			if rules[j].Covers(ds.X[i]) {
				hit = true
				break
			}
		}
		if hit {
			covered++
			if !ds.Y[i] {
				fp++
			}
		} else {
			uncovered++
			if ds.Y[i] {
				fn++
			}
		}
	}
	return bits + m.exceptionBits(covered, fp, uncovered, fn)
}

// refDLBudget is how far above the minimum description length induction may
// wander before it stops adding rules (Cohen's d = 64 bits).
const refDLBudget = 64.0
