package policy

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Builtin kind names. Kinds are the unit of policy identity:
// a kind knows how to parse its spec argument into a concrete Policy.
const (
	kindAlways    = "always"
	kindNever     = "never"
	kindSize      = "size"
	kindCost      = "cost"
	kindRipper    = "ripper"
	kindPortfolio = "portfolio"
)

// Kind binds a stable, lowercase name to a policy constructor, the way
// internal/machine's target table binds target names to timing models. A
// new decision procedure adds a Kind to the table and immediately works
// everywhere a -policy flag or a ProgramInput.Policy spec is accepted.
type Kind struct {
	// Name is the lookup key (e.g. "cost"); lowercase by convention.
	Name string
	// Description is a one-line summary for listings and -h output.
	Description string
	// Parse builds a policy from the spec argument (the text after
	// "name:" in a spec; empty when the spec is the bare name). target
	// is the machine-target context the policy will run under; kinds
	// that are target-independent ignore it.
	Parse func(arg, target string) (Policy, error)
}

// kinds is the fixed table of policy kinds, in listing order. It is
// filled in init, not in its declaration, because the portfolio kind
// parses its members through FromSpec, which reads the table.
var kinds []*Kind

// kindByName returns the named kind, or an error naming the known kinds.
func kindByName(name string) (*Kind, error) {
	for _, k := range kinds {
		if k.Name == name {
			return k, nil
		}
	}
	known := make([]string, 0, len(kinds))
	for _, k := range kinds {
		known = append(known, k.Name)
	}
	sort.Strings(known)
	return nil, fmt.Errorf("policy: unknown kind %q (known: %v)", name, known)
}

// Kinds returns every kind in table order. The returned slice is fresh;
// the Kinds it points at are the table's own.
func Kinds() []*Kind { return slices.Clone(kinds) }

// specAliases maps historical protocol spellings to canonical specs, so
// every place that used to accept "LS"/"NS" filter names accepts them
// as policy specs too.
var specAliases = map[string]string{
	"ls":      kindAlways,
	"ns":      kindNever,
	"default": kindAlways,
}

// FromSpec parses the policy spec mini-language:
//
//	always | ls            LS protocol (schedule everything)
//	never | ns             NS protocol (schedule nothing)
//	size:N                 block length ≥ N
//	cost:N                 estimated cycles ≥ N under the target model
//	portfolio:spec+spec    confidence arbitration between member specs
//
// plus any other kind in the table, as "kind" or "kind:arg". target is
// the machine-target context (empty = default target); only
// target-parameterized kinds use it. Spec matching is case-insensitive
// on the kind name.
func FromSpec(spec, target string) (Policy, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, fmt.Errorf("policy: empty spec")
	}
	name, arg, _ := strings.Cut(spec, ":")
	name = strings.ToLower(strings.TrimSpace(name))
	if canonical, ok := specAliases[name]; ok {
		name = canonical
	}
	k, err := kindByName(name)
	if err != nil {
		return nil, err
	}
	p, err := k.Parse(strings.TrimSpace(arg), target)
	if err != nil {
		return nil, fmt.Errorf("policy: spec %q: %w", spec, err)
	}
	return p, nil
}

// specOf renders a policy back to a spec FromSpec would accept, or ""
// when the policy is not spec-representable (induced rule sets carry
// their rules in model-file text, not in a spec). specOf(FromSpec(s))
// round-trips for every spec-representable kind.
func specOf(p Policy) string {
	switch f := p.(type) {
	case Always:
		return kindAlways
	case Never:
		return kindNever
	case SizeThreshold:
		return fmt.Sprintf("size:%d", f.MinLen)
	case *costThreshold:
		return fmt.Sprintf("cost:%d", f.MinCycles)
	case *portfolio:
		parts := make([]string, len(f.Members))
		for i, m := range f.Members {
			s := specOf(m)
			if s == "" || strings.ContainsAny(s, "+") {
				return ""
			}
			parts[i] = s
		}
		return kindPortfolio + ":" + strings.Join(parts, "+")
	}
	return ""
}

func init() {
	kinds = []*Kind{{
		Name:        kindAlways,
		Description: "LS protocol: schedule every block",
		Parse: func(arg, _ string) (Policy, error) {
			if arg != "" {
				return nil, fmt.Errorf("takes no argument")
			}
			return Always{}, nil
		},
	}, {
		Name:        kindNever,
		Description: "NS protocol: schedule no block",
		Parse: func(arg, _ string) (Policy, error) {
			if arg != "" {
				return nil, fmt.Errorf("takes no argument")
			}
			return Never{}, nil
		},
	}, {
		Name:        kindSize,
		Description: "schedule blocks of at least N instructions (size:N)",
		Parse: func(arg, _ string) (Policy, error) {
			n, err := strconv.Atoi(arg)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("want size:N with N ≥ 0, got %q", arg)
			}
			return SizeThreshold{MinLen: n}, nil
		},
	}, {
		Name:        kindCost,
		Description: "schedule blocks estimated at ≥ N cycles under the target model (cost:N)",
		Parse: func(arg, target string) (Policy, error) {
			n, err := strconv.Atoi(arg)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("want cost:N with N ≥ 0, got %q", arg)
			}
			return newCostThreshold(target, n)
		},
	}, {
		Name:        kindRipper,
		Description: "Ripper-induced L/N filter (load from a model file or train one)",
		Parse: func(arg, _ string) (Policy, error) {
			return nil, fmt.Errorf("ripper policies are not spec-constructible; load a model file (rules:FILE at the CLI) or train one")
		},
	}, {
		Name:        kindPortfolio,
		Description: "confidence arbitration between member policies (portfolio:spec+spec+...)",
		Parse: func(arg, target string) (Policy, error) {
			if arg == "" {
				return nil, fmt.Errorf("want portfolio:spec+spec+...")
			}
			parts := strings.Split(arg, "+")
			members := make([]Policy, 0, len(parts))
			for _, part := range parts {
				m, err := FromSpec(part, target)
				if err != nil {
					return nil, err
				}
				members = append(members, m)
			}
			return newPortfolio(members...)
		},
	}}
}
