package ripper

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"
)

// String renders the rule set in the paper's Figure-4 style:
//
//	( 924/ 12) list :- bbLen >= 7, calls <= 0.0857, loads >= 0.3793.
//	(27476/1946) orig :- .
//
// The two leading numbers are the correct and incorrect training matches
// of each rule; the final line is the default rule. Condition values are
// rounded for display; use Format for a lossless rendering.
func (rs *RuleSet) String() string { return rs.render(false) }

// Format renders the rule set in the same text shape as String but with
// full-precision condition values and a "# labels:" directive, so the
// serialization round-trips exactly: Parse(rs.Format(), rs.Names)
// reproduces rs field for field — even for rule sets with no positive
// rules, whose labels appear nowhere else in the text. This is the
// persistence format of model files (policy.FormatInduced, written by
// schedtrain -o) that the compile-server daemon boots from.
func (rs *RuleSet) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# labels: %s %s\n", rs.PosLabel, rs.NegLabel)
	b.WriteString(rs.render(true))
	return b.String()
}

func (rs *RuleSet) render(precise bool) string {
	var b strings.Builder
	for i := range rs.Rules {
		r := &rs.Rules[i]
		fmt.Fprintf(&b, "(%5d/%4d) %s :- ", r.TP, r.FP, rs.PosLabel)
		for j, c := range r.Conds {
			if j > 0 {
				b.WriteString(", ")
			}
			b.WriteString(c.format(rs.Names, precise))
		}
		b.WriteString(".\n")
	}
	fmt.Fprintf(&b, "(%5d/%4d) %s :- .\n", rs.DefaultTP, rs.DefaultFP, rs.NegLabel)
	return b.String()
}

// Parse reads a rule set in the String format. Attribute names are
// resolved against names; unknown attributes are an error.
func Parse(text string, names []string) (*RuleSet, error) {
	rs := &RuleSet{Names: append([]string(nil), names...)}
	sc := bufio.NewScanner(strings.NewReader(text))
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			// "# labels: <pos> <neg>" (emitted by Format) pins the class
			// labels; all other comments are skipped.
			if rest, ok := strings.CutPrefix(line, "# labels:"); ok {
				if fields := strings.Fields(rest); len(fields) == 2 {
					rs.PosLabel, rs.NegLabel = fields[0], fields[1]
				}
			}
			continue
		}
		tp, fp, rest, err := parseCounts(line)
		if err != nil {
			return nil, fmt.Errorf("ripper: line %d: %v", lineNo, err)
		}
		head, body, ok := strings.Cut(rest, ":-")
		if !ok {
			return nil, fmt.Errorf("ripper: line %d: missing ':-'", lineNo)
		}
		label := strings.TrimSpace(head)
		body = strings.TrimSuffix(strings.TrimSpace(body), ".")
		body = strings.TrimSpace(body)
		if body == "" {
			// An empty body is normally the default rule, but an empty
			// *positive* rule (one that covers everything) renders the
			// same way; the label disambiguates.
			if rs.PosLabel != "" && label == rs.PosLabel {
				rs.Rules = append(rs.Rules, Rule{TP: tp, FP: fp})
				continue
			}
			rs.NegLabel = label
			rs.DefaultTP, rs.DefaultFP = tp, fp
			continue
		}
		if rs.PosLabel == "" {
			rs.PosLabel = label
		} else if rs.PosLabel != label {
			return nil, fmt.Errorf("ripper: line %d: mixed labels %q and %q", lineNo, rs.PosLabel, label)
		}
		rule := Rule{TP: tp, FP: fp}
		for _, part := range strings.Split(body, ",") {
			cond, err := parseCondition(strings.TrimSpace(part), names)
			if err != nil {
				return nil, fmt.Errorf("ripper: line %d: %v", lineNo, err)
			}
			rule.Conds = append(rule.Conds, cond)
		}
		rs.Rules = append(rs.Rules, rule)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if rs.NegLabel == "" {
		rs.NegLabel = "neg"
	}
	if rs.PosLabel == "" {
		rs.PosLabel = "pos"
	}
	// Labels Format could not write back unambiguously: one name for
	// both classes turns the default rule into an empty positive rule,
	// and a ":-" inside a label moves the rule's head/body split.
	if rs.PosLabel == rs.NegLabel {
		return nil, fmt.Errorf("ripper: positive and default rules share the label %q", rs.PosLabel)
	}
	for _, l := range []string{rs.PosLabel, rs.NegLabel} {
		if strings.Contains(l, ":-") {
			return nil, fmt.Errorf("ripper: label %q contains ':-'", l)
		}
	}
	return rs, nil
}

func parseCounts(line string) (tp, fp int, rest string, err error) {
	if !strings.HasPrefix(line, "(") {
		return 0, 0, "", fmt.Errorf("missing '(' counts prefix")
	}
	close := strings.IndexByte(line, ')')
	if close < 0 {
		return 0, 0, "", fmt.Errorf("missing ')'")
	}
	inner := line[1:close]
	a, b, ok := strings.Cut(inner, "/")
	if !ok {
		return 0, 0, "", fmt.Errorf("counts %q missing '/'", inner)
	}
	tp, err = strconv.Atoi(strings.TrimSpace(a))
	if err != nil {
		return 0, 0, "", fmt.Errorf("bad count %q", a)
	}
	fp, err = strconv.Atoi(strings.TrimSpace(b))
	if err != nil {
		return 0, 0, "", fmt.Errorf("bad count %q", b)
	}
	return tp, fp, line[close+1:], nil
}

func parseCondition(s string, names []string) (Condition, error) {
	var op string
	var le bool
	switch {
	case strings.Contains(s, "<="):
		op, le = "<=", true
	case strings.Contains(s, ">="):
		op, le = ">=", false
	default:
		return Condition{}, fmt.Errorf("condition %q missing <= or >=", s)
	}
	lhs, rhs, _ := strings.Cut(s, op)
	name := strings.TrimSpace(lhs)
	attr := -1
	for i, n := range names {
		if n == name {
			attr = i
			break
		}
	}
	if attr < 0 {
		return Condition{}, fmt.Errorf("unknown attribute %q", name)
	}
	val, err := strconv.ParseFloat(strings.TrimSpace(rhs), 64)
	if err != nil {
		return Condition{}, fmt.Errorf("bad value in %q", s)
	}
	return Condition{Attr: attr, LE: le, Val: val}, nil
}
