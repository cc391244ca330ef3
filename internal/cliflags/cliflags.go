// Package cliflags centralizes the flag wiring the CLI entry points
// share: every command that takes a machine target, a worker count, a
// scheduling policy or the pprof pair registers the flag here, so the
// spelling, defaults, and help text stay identical across schedexp,
// schedtrain, schedserved, schedctl, schedgate, joltrun, and joltc — and
// a new policy kind becomes selectable everywhere by registering once in
// internal/policy.
package cliflags

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"schedfilter/internal/machine"
	"schedfilter/internal/obs"
	"schedfilter/internal/policy"
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

// ProfileFlags holds the -cpuprofile/-memprofile values; read after
// flag parsing.
type ProfileFlags struct {
	CPUProfile *string
	MemProfile *string
}

// Profile registers the -cpuprofile/-memprofile pair, so the
// long-running entry points (schedexp sweeps, schedtrain training runs)
// can be profiled with the same invocation shape as `go test`.
func Profile(fs *flag.FlagSet) *ProfileFlags {
	return &ProfileFlags{
		CPUProfile: fs.String("cpuprofile", "", "write a pprof CPU profile to this file"),
		MemProfile: fs.String("memprofile", "", "write a pprof heap profile to this file on exit"),
	}
}

// Start begins the CPU capture (when requested) and returns a stop
// function that ends it and writes the heap profile (when requested).
// The stop function is idempotent and must run before os.Exit — deferred
// calls don't survive it, so error paths call it explicitly.
func (f *ProfileFlags) Start() (stop func(), err error) {
	var cpuFile *os.File
	if *f.CPUProfile != "" {
		cpuFile, err = os.Create(*f.CPUProfile)
		if err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
	}
	mem := *f.MemProfile
	done := false
	return func() {
		if done {
			return
		}
		done = true
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if mem != "" {
			out, err := os.Create(mem)
			if err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
				return
			}
			defer out.Close()
			runtime.GC() // report live objects, not garbage
			if err := pprof.WriteHeapProfile(out); err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
			}
		}
	}, nil
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
// a policy-kind or training-target mismatch, like policy.LoadInducedFor),
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
