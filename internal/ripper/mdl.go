package ripper

import "math"

// Minimum-description-length accounting, following the scheme Cohen
// borrowed from Quinlan's C4.5rules: a rule set's cost is the bits needed
// to transmit the theory (the rules) plus the bits needed to identify its
// exceptions (false positives among covered examples, false negatives
// among uncovered ones). The constants mirror the usual implementations
// (a 0.5 redundancy factor on theory bits, a 64-bit budget above the
// minimum before induction stops).
type mdl struct {
	// universe is the number of distinct possible conditions, used to
	// price each condition in a rule.
	universe float64
}

// newMDL prices conditions against the attribute lists: each distinct
// value of an attribute yields a <= and a >= condition.
func newMDL(cols [][]entry) *mdl {
	total := 0.0
	for _, col := range cols {
		total += float64(2 * distinct(col))
	}
	if total < 2 {
		total = 2
	}
	return &mdl{universe: total}
}

func log2(x float64) float64 { return math.Log2(x) }

// log2Binomial returns log2 of C(n, k) computed via lgamma.
func log2Binomial(n, k int) float64 {
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
func (m *mdl) theoryBits(r *Rule) float64 {
	k := len(r.Conds)
	if k == 0 {
		return 0
	}
	return 0.5 * (log2(float64(k)+1) + float64(k)*log2(m.universe))
}

// exceptionBits prices the errors a rule set makes on the training data:
// transmit the number and identity of false positives among the covered
// set and false negatives among the uncovered set.
func (m *mdl) exceptionBits(covered, fp, uncovered, fn int) float64 {
	bits := 0.0
	bits += log2(float64(covered) + 1)
	bits += log2Binomial(covered, fp)
	bits += log2(float64(uncovered) + 1)
	bits += log2Binomial(uncovered, fn)
	return bits
}

// rulesetDL returns the total description length of the rule list
// measured against the dataset. The list predicts the positive class for
// the union of its rules' coverage.
func (ind *inducer) rulesetDL(rules []Rule) float64 {
	bits := 0.0
	for i := range rules {
		bits += ind.m.theoryBits(&rules[i])
	}
	pred := ind.acc
	clear(pred)
	for i := range rules {
		pred.or(ind.coverage(&rules[i]))
	}
	covered := pred.count()
	tp := pred.countAnd(ind.y)
	fn := ind.y.count() - tp
	return bits + ind.m.exceptionBits(covered, covered-tp, ind.n-covered, fn)
}

// dlBudget is how far above the minimum description length induction may
// wander before it stops adding rules (Cohen's d = 64 bits).
const dlBudget = 64.0
