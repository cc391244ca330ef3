package ripper

import (
	"math"
	"math/bits"
	"math/rand"
)

// Options controls induction.
type Options struct {
	// Seed drives the grow/prune splits; induction is deterministic for
	// a fixed seed.
	Seed int64
	// OptimizeRounds is Ripper's k (number of optimization passes over
	// the rule list); Cohen's default is 2.
	OptimizeRounds int
	// PosLabel and NegLabel name the classes in printed rule sets.
	PosLabel, NegLabel string
}

// DefaultOptions mirror the paper's usage: Ripper with its standard two
// optimization passes, class labels matching Figure 4.
func DefaultOptions() Options {
	return Options{Seed: 1, OptimizeRounds: 2, PosLabel: "list", NegLabel: "orig"}
}

// Induce learns an ordered rule list for the positive class of ds.
// Attribute values must be finite: induction orders each attribute's
// instances by value, and NaN has no place in that order (the threshold
// scan would not advance past one). −0 and +0 are one value.
func Induce(ds *Dataset, opt Options) *RuleSet {
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

	ind := newInducer(ds, opt.Seed)
	copy(ind.remaining, ind.all)
	rules := ind.irep(nil, ind.remaining)

	for round := 0; round < opt.OptimizeRounds; round++ {
		rules = ind.optimize(rules)
		// Cover any residual positives with fresh rules.
		residual := ind.uncovered(ind.remaining, rules)
		if ind.countPos(residual) > 0 {
			rules = ind.irep(rules, residual)
		}
	}
	rules = ind.deletePass(rules)

	rs.Rules = rules
	ind.fillStats(rs)
	return rs
}

// inducer is the working set of one Induce call: the attribute lists, the
// label and universe bitsets, the rule-coverage cache, and the buffers the
// grow/prune loop reuses. All of it is dropped when Induce returns.
type inducer struct {
	n    int
	cols [][]entry // per attribute, sorted by value
	m    *mdl
	rng  *rand.Rand

	all, y bitset // every instance; the positive ones

	covers map[string]bitset // rule coverage by encoded conditions
	key    []byte

	// Sets reused across calls: remaining is irep's working set, reach
	// optimize's, grow and prune split's result; covered is growRule's
	// covered set and pruneForRuleset's union of the other rules; acc is
	// scratch for rulesetDL, eachPrefix and fillStats.
	remaining, reach, grow, prune, covered, acc bitset
	pos, neg                                    []int32   // split's class partition
	lists                                       [][]entry // growRule's covered attribute lists
}

func newInducer(ds *Dataset, seed int64) *inducer {
	n := ds.Len()
	cols := newColumns(ds)
	ind := &inducer{
		n:      n,
		cols:   cols,
		m:      newMDL(cols),
		rng:    rand.New(rand.NewSource(seed)),
		covers: make(map[string]bitset),
		lists:  make([][]entry, len(cols)),
	}
	listBacking := make([]entry, len(cols)*n)
	for a := range ind.lists {
		ind.lists[a] = listBacking[a*n : a*n : (a+1)*n]
	}
	words := (n + 63) / 64
	backing := make(bitset, 8*words)
	for _, b := range []*bitset{&ind.all, &ind.y, &ind.remaining, &ind.reach, &ind.grow, &ind.prune, &ind.covered, &ind.acc} {
		*b, backing = backing[:words:words], backing[words:]
	}
	for i := 0; i < n; i++ {
		ind.all.set(int32(i))
		if ds.Y[i] {
			ind.y.set(int32(i))
		}
	}
	return ind
}

func (ind *inducer) countPos(b bitset) int { return b.countAnd(ind.y) }

// uncovered writes into dst the instances no rule covers, and returns it.
func (ind *inducer) uncovered(dst bitset, rules []Rule) bitset {
	copy(dst, ind.all)
	for i := range rules {
		dst.andNot(ind.coverage(&rules[i]))
	}
	return dst
}

// split shuffles idx (stratified by class) and splits it 2/3 grow, 1/3
// prune. The grow and prune sets are the inducer's, valid until the next
// split.
func (ind *inducer) split(idx bitset) (grow, prune bitset) {
	pos, neg := ind.pos[:0], ind.neg[:0]
	idx.each(func(i int32) {
		if ind.y.has(i) {
			pos = append(pos, i)
		} else {
			neg = append(neg, i)
		}
	})
	ind.pos, ind.neg = pos, neg
	ind.rng.Shuffle(len(pos), func(a, b int) { pos[a], pos[b] = pos[b], pos[a] })
	ind.rng.Shuffle(len(neg), func(a, b int) { neg[a], neg[b] = neg[b], neg[a] })
	grow, prune = ind.grow, ind.prune
	clear(grow)
	clear(prune)
	for _, part := range [][]int32{pos, neg} {
		cut := len(part) * 2 / 3
		for _, i := range part[:cut] {
			grow.set(i)
		}
		for _, i := range part[cut:] {
			prune.set(i)
		}
	}
	return grow, prune
}

// irep runs the IREP* loop over the remaining instances (consumed),
// returning base extended with the accepted new rules. MDL is measured for
// the whole rule list against the full dataset.
func (ind *inducer) irep(base []Rule, remaining bitset) []Rule {
	rules := append([]Rule(nil), base...)
	minDL := ind.rulesetDL(rules)

	for ind.countPos(remaining) > 0 {
		grow, prune := ind.split(remaining)
		r := ind.growRule(Rule{}, grow)
		r = ind.pruneRule(r, prune)
		if len(r.Conds) == 0 && remaining.count() < ind.n {
			// A fully pruned rule covers everything; useless as a
			// non-first rule.
			break
		}
		cand := append(append([]Rule(nil), rules...), r)
		dl := ind.rulesetDL(cand)
		if dl > minDL+dlBudget {
			break
		}
		// Reject rules whose prune-set precision is below chance.
		cov := ind.coverage(&r)
		p := countAnd3(cov, prune, ind.y)
		n := cov.countAnd(prune) - p
		if p+n > 0 && n > p {
			break
		}
		rules = cand
		if dl < minDL {
			minDL = dl
		}
		remaining.andNot(cov)
	}
	return rules
}

// growRule extends start with conditions chosen by FOIL information gain
// until it covers no negatives (or no condition helps). It keeps each
// attribute's covered grow instances in sort order, and after every
// condition filters them all by membership, which keeps that order.
func (ind *inducer) growRule(start Rule, grow bitset) Rule {
	r := start.clone()
	covered := ind.covered
	copy(covered, grow)
	covered.and(ind.coverage(&r))
	for a, col := range ind.cols {
		ind.lists[a] = covered.filter(ind.lists[a][:len(col)], col)
	}
	p0 := ind.countPos(covered)
	n0 := covered.count() - p0
	for p0 != 0 && n0 != 0 {
		best, gain := ind.bestCondition(p0, n0)
		if gain <= 0 {
			break
		}
		r.Conds = append(r.Conds, best)
		andCond(covered, ind.cols, best)
		p0 = ind.countPos(covered)
		n0 = covered.count() - p0
		for a, l := range ind.lists {
			ind.lists[a] = covered.filter(l, l)
		}
	}
	return r
}

// bestCondition scans every attribute threshold over the covered lists
// and returns the condition with maximal FOIL gain relative to (p0, n0).
func (ind *inducer) bestCondition(p0, n0 int) (Condition, float64) {
	base := math.Log2(float64(p0) / float64(p0+n0))
	var best Condition
	bestGain := 0.0

	for a, vals := range ind.lists {
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
			if g := foilGain(cp, cn, base); g > bestGain && k < len(vals) {
				bestGain = g
				best = Condition{Attr: a, LE: true, Val: v}
			}
			// Condition attr >= nextV covers the complement.
			if k < len(vals) {
				nextV := vals[k].v
				if g := foilGain(p0-cp, n0-cn, base); g > bestGain {
					bestGain = g
					best = Condition{Attr: a, LE: false, Val: nextV}
				}
			}
		}
	}
	return best, bestGain
}

// foilGain is p1 * (log2(p1/(p1+n1)) − log2(p0/(p0+n0))).
func foilGain(p1, n1 int, base float64) float64 {
	if p1 == 0 {
		return 0
	}
	return float64(p1) * (math.Log2(float64(p1)/float64(p1+n1)) - base)
}

// eachPrefix calls f with the prune instances covered by r's first k
// conditions, for k = 1..len(r.Conds), ANDing the conditions in one at a
// time.
func (ind *inducer) eachPrefix(r *Rule, prune bitset, f func(k int, t bitset)) {
	t := ind.acc
	copy(t, prune)
	for k, c := range r.Conds {
		andCond(t, ind.cols, c)
		f(k+1, t)
	}
}

// pruneRule deletes a final suffix of conditions to maximize the IREP*
// pruning metric (p−n)/(p+n) on the prune set.
func (ind *inducer) pruneRule(r Rule, prune bitset) Rule {
	if len(r.Conds) <= 1 || prune.count() == 0 {
		return r
	}
	score := make([]float64, len(r.Conds)+1)
	ind.eachPrefix(&r, prune, func(k int, t bitset) {
		p := t.countAnd(ind.y)
		n := t.count() - p
		if p+n == 0 {
			score[k] = -1
		} else {
			score[k] = float64(p-n) / float64(p+n)
		}
	})
	bestLen := len(r.Conds)
	bestScore := score[bestLen]
	for k := len(r.Conds) - 1; k >= 1; k-- {
		if s := score[k]; s >= bestScore {
			bestScore = s
			bestLen = k
		}
	}
	r.Conds = r.Conds[:bestLen]
	return r
}

// optimize runs one Ripper optimization pass: each rule is pitted against
// a freshly grown replacement and a grown revision; the variant giving the
// smallest total description length wins.
func (ind *inducer) optimize(rules []Rule) []Rule {
	for i := range rules {
		// Instances that reach rule i (not claimed by earlier rules).
		reach := ind.uncovered(ind.reach, rules[:i])
		if ind.countPos(reach) == 0 {
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
func (ind *inducer) pruneForRuleset(rules []Rule, i int, cand Rule, prune bitset) Rule {
	if len(cand.Conds) <= 1 || prune.count() == 0 {
		return cand
	}
	// The other rules' predictions do not depend on the candidate.
	others := ind.covered
	clear(others)
	for q := range rules {
		if q != i {
			others.or(ind.coverage(&rules[q]))
		}
	}
	wrong := make([]int, len(cand.Conds)+1)
	ind.eachPrefix(&cand, prune, func(k int, t bitset) {
		for w := range t {
			wrong[k] += bits.OnesCount64(prune[w] & ((others[w] | t[w]) ^ ind.y[w]))
		}
	})
	bestLen := len(cand.Conds)
	bestErr := wrong[bestLen]
	for k := len(cand.Conds) - 1; k >= 1; k-- {
		if e := wrong[k]; e <= bestErr {
			bestErr = e
			bestLen = k
		}
	}
	cand.Conds = cand.Conds[:bestLen]
	return cand
}

func (ind *inducer) dlWith(rules []Rule, i int, r Rule) float64 {
	trial := append([]Rule(nil), rules...)
	trial[i] = r
	return ind.rulesetDL(trial)
}

// deletePass greedily removes rules whose deletion lowers the total
// description length.
func (ind *inducer) deletePass(rules []Rule) []Rule {
	for {
		cur := ind.rulesetDL(rules)
		bestIdx, bestDL := -1, cur
		for i := range rules {
			trial := append([]Rule(nil), rules[:i]...)
			trial = append(trial, rules[i+1:]...)
			if dl := ind.rulesetDL(trial); dl < bestDL {
				bestIdx, bestDL = i, dl
			}
		}
		if bestIdx < 0 {
			return rules
		}
		rules = append(rules[:bestIdx], rules[bestIdx+1:]...)
	}
}

// fillStats computes Figure-4 style per-rule matched counts: each instance
// is claimed by its first covering rule.
func (ind *inducer) fillStats(rs *RuleSet) {
	unclaimed := ind.acc
	copy(unclaimed, ind.all)
	for j := range rs.Rules {
		r := &rs.Rules[j]
		cov := ind.coverage(r)
		claimed := cov.countAnd(unclaimed)
		r.TP = countAnd3(cov, unclaimed, ind.y)
		r.FP = claimed - r.TP
		unclaimed.andNot(cov)
	}
	pos := unclaimed.countAnd(ind.y)
	rs.DefaultFP, rs.DefaultTP = pos, unclaimed.count()-pos
}
