// Package cliflags centralizes the flag wiring the CLI entry points
// share, the way internal/profileflags does for the pprof pair: every
// command that takes a machine target, a worker count, or a scheduling
// policy registers the flag here, so the spelling, defaults, and help
// text stay identical across schedexp, schedtrain, schedserved,
// schedctl, schedgate, joltrun, and joltc — and a new policy kind
// becomes selectable everywhere by registering once in internal/policy.
package cliflags

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"strings"

	"schedfilter/internal/machine"
	"schedfilter/internal/obs"
	"schedfilter/internal/policy"
	"schedfilter/internal/profileflags"
)

// PolicySyntax is the -policy value syntax, shared by every usage
// string: the registry's spec mini-language plus the rules:FILE form
// that loads a trained model file.
const PolicySyntax = "always|ls, never|ns, size:N, cost:N, portfolio:spec+spec, or rules:FILE"

// Target registers the standard -target flag with the registry default.
// An empty usage selects the shared wording.
func Target(fs *flag.FlagSet, usage string) *string {
	return TargetDefault(fs, machine.DefaultTargetName, usage)
}

// TargetDefault is Target with an explicit default value (the server
// commands default to "the request decides", spelled "").
func TargetDefault(fs *flag.FlagSet, def, usage string) *string {
	if usage == "" {
		usage = "machine target by registry name"
	}
	return fs.String("target", def, usage)
}

// Jobs registers the standard -j worker-pool flag.
func Jobs(fs *flag.FlagSet, usage string) *int {
	if usage == "" {
		usage = "worker pool size (0 = GOMAXPROCS, 1 = serial)"
	}
	return fs.Int("j", 0, usage)
}

// Policy registers the standard -policy flag. An empty default means
// "unset" — commands treat that as their own default (the server's
// configured policy, for example).
func Policy(fs *flag.FlagSet, def, usage string) *string {
	if usage == "" {
		usage = "scheduling policy: " + PolicySyntax
	}
	return fs.String("policy", def, usage)
}

// Profile registers the -cpuprofile/-memprofile pair (one import for
// commands that want all the shared flags).
func Profile(fs *flag.FlagSet) *profileflags.Flags {
	return profileflags.Register(fs)
}

// LogLevel registers the standard -log-level flag the daemons share.
func LogLevel(fs *flag.FlagSet) *string {
	return fs.String("log-level", "info", "minimum log level: debug, info, warn, or error")
}

// NewLogger builds the daemons' structured logger on w (obs.NewLogger:
// slog text lines, time=… level=INFO msg=… key=value…) at or above a
// -log-level value, which is debug, info, warn or error in any case.
func NewLogger(w io.Writer, level string) (*slog.Logger, error) {
	lv, err := obs.ParseLevel(level)
	if err != nil {
		return nil, fmt.Errorf("bad -log-level: %w", err)
	}
	return obs.NewLogger(w, lv), nil
}

// ResolvePolicy turns a -policy value into a runnable policy: "" means
// unset (nil, nil), "rules:FILE" loads a trained model file (warning on
// a policy-kind or training-target mismatch, like LoadFilterFor),
// anything else goes through the policy-spec registry with target as
// the machine context.
func ResolvePolicy(spec, target string) (policy.Policy, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	if path, ok := strings.CutPrefix(spec, "rules:"); ok {
		return policy.LoadInducedFor(path, target)
	}
	return policy.FromSpec(spec, target)
}
