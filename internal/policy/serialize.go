package policy

import (
	"fmt"
	"os"
	"strings"

	"schedfilter/internal/features"
	"schedfilter/internal/ripper"
)

// Persisted model-text headers. filterHeader carries the label,
// targetHeader the training target, policyHeader the policy kind —
// all optional on parse, so files from every prior format version
// still load.
const (
	filterHeader = "# filter:"
	targetHeader = "# target:"
	policyHeader = "# policy:"
)

// FormatInduced renders an induced filter as persistent model text: a
// "# filter: <label>" header, a "# policy: ripper" kind header, a
// "# target: <name>" header when the filter records its training
// target, plus the rule set in the round-trippable full-precision
// format. ParseInduced inverts it exactly — the provenance the online
// registry stores with every version round-trips through a file and
// back. Headers are excluded from RuleHash, so the added policy header
// changes no filter's identity.
func FormatInduced(f *Induced) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s\n", filterHeader, f.Label)
	fmt.Fprintf(&b, "%s %s\n", policyHeader, KindRipper)
	if f.Target != "" {
		fmt.Fprintf(&b, "%s %s\n", targetHeader, f.Target)
	}
	b.WriteString(f.Rules.Format())
	return b.String()
}

// ParseInduced reads model text produced by FormatInduced (or any rule
// text in the Figure-4 format; all headers are optional). Attribute
// names resolve against the Table-1 feature names. A "# policy:" header
// naming another kind does not stop the parse — loaders that care
// (LoadFilterFor) check FileKind and warn.
func ParseInduced(text string) (*Induced, error) {
	label, target := "", ""
	for _, line := range strings.Split(text, "\n") {
		trimmed := strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(trimmed, filterHeader); ok && label == "" {
			label = strings.TrimSpace(rest)
		}
		if rest, ok := strings.CutPrefix(trimmed, targetHeader); ok && target == "" {
			target = strings.TrimSpace(rest)
		}
	}
	rs, err := ripper.Parse(text, features.Names[:])
	if err != nil {
		return nil, err
	}
	return NewInducedFor(rs, label, target), nil
}

// FileKind extracts the "# policy:" header from model text, or "" when
// absent (pre-policy files). Loaders use it to warn when a file's
// declared kind doesn't match what the caller expects.
func FileKind(text string) string {
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), policyHeader); ok {
			return strings.TrimSpace(rest)
		}
	}
	return ""
}

// LoadInducedFor reads a model file for use under a specific machine
// target. Mismatches warn (to stderr) rather than fail: if the file's
// "# policy:" header declares a kind other than ripper, or its
// "# target:" header names a different training target, a warning names
// both sides and the filter still loads — features are
// target-independent and the rule text is what it is, so applying it is
// legal, just possibly mistuned.
func LoadInducedFor(path, target string) (*Induced, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	text := string(buf)
	f, err := ParseInduced(text)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if kind := FileKind(text); kind != "" && kind != KindRipper {
		fmt.Fprintf(os.Stderr,
			"schedfilter: warning: %s declares policy kind %q but is being loaded as %q rules\n",
			path, kind, KindRipper)
	}
	if f.Target != "" && target != "" && f.Target != target {
		fmt.Fprintf(os.Stderr,
			"schedfilter: warning: %s was trained for target %q but is being used under %q\n",
			path, f.Target, target)
	}
	return f, nil
}

// Format renders any policy to persistent text: induced filters as
// model-file text (headers + rules), everything else as a one-line
// "# policy-spec: <spec>" document. Parse inverts both forms.
func Format(p Policy) (string, error) {
	if ind, ok := p.(*Induced); ok {
		return FormatInduced(ind), nil
	}
	spec := SpecOf(p)
	if spec == "" {
		return "", fmt.Errorf("policy: %s is not serializable", p.Name())
	}
	return specDocHeader + " " + spec + "\n", nil
}

// specDocHeader marks a serialized spec-representable policy.
const specDocHeader = "# policy-spec:"

// Parse reads text produced by Format (either form) back into a
// policy. target provides the machine context for target-parameterized
// kinds, as in FromSpec.
func Parse(text, target string) (Policy, error) {
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), specDocHeader); ok {
			return FromSpec(strings.TrimSpace(rest), target)
		}
	}
	// Returning ParseInduced's result directly would turn a refusal's
	// nil *Induced into a non-nil Policy.
	f, err := ParseInduced(text)
	if err != nil {
		return nil, err
	}
	return f, nil
}
