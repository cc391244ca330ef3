package cliflags

import (
	"context"
	"flag"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"schedfilter/internal/machine"
	"schedfilter/internal/policy"
)

func TestFlagRegistration(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	target := Target(fs, "")
	jobs := Jobs(fs, "")
	spec := Policy(fs, "", "")
	if err := fs.Parse([]string{"-target", "wide4", "-j", "3", "-policy", "size:5"}); err != nil {
		t.Fatal(err)
	}
	if *target != "wide4" || *jobs != 3 || *spec != "size:5" {
		t.Errorf("parsed %q/%d/%q", *target, *jobs, *spec)
	}

	fs = flag.NewFlagSet("y", flag.ContinueOnError)
	target = Target(fs, "")
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if *target != machine.DefaultTargetName {
		t.Errorf("default target %q, want %q", *target, machine.DefaultTargetName)
	}
}

func TestResolvePolicyEmptyMeansUnset(t *testing.T) {
	f, err := ResolvePolicy("  ", "mpc7410")
	if err != nil || f != nil {
		t.Errorf("blank spec should resolve to (nil, nil), got (%v, %v)", f, err)
	}
}

func TestResolvePolicySpec(t *testing.T) {
	f, err := ResolvePolicy("portfolio:size:5+cost:10", "wide4")
	if err != nil {
		t.Fatal(err)
	}
	if got := policy.ID(f); got != "portfolio[size>=5+cost>=10@wide4]" {
		t.Errorf("ID = %q", got)
	}
	if _, err := ResolvePolicy("bogus:3", "mpc7410"); err == nil {
		t.Error("unknown kind should error")
	}
}

func TestResolvePolicyRulesFile(t *testing.T) {
	rules := "(  6/ 4) list :- bbLen >= 4.\n(90/10) orig :- .\n"
	path := filepath.Join(t.TempDir(), "rules.txt")
	if err := os.WriteFile(path, []byte(rules), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := ResolvePolicy("rules:"+path, "mpc7410")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := f.(*policy.Induced); !ok {
		t.Fatalf("rules: spec resolved to %T, want *policy.Induced", f)
	}
	if _, err := ResolvePolicy("rules:"+filepath.Join(t.TempDir(), "nope.txt"), "mpc7410"); err == nil {
		t.Error("missing rules file should error")
	}
}

// TestParseLogLevel pins the -log-level values the daemons accept: the
// four level names in any case, and nothing else.
func TestParseLogLevel(t *testing.T) {
	for _, c := range []struct {
		in   string
		want slog.Level
		ok   bool
	}{
		{"debug", slog.LevelDebug, true},
		{"info", slog.LevelInfo, true},
		{"warn", slog.LevelWarn, true},
		{"error", slog.LevelError, true},
		{"DEBUG", slog.LevelDebug, true},
		{"Info", slog.LevelInfo, true},
		{"wARn", slog.LevelWarn, true},
		{"ERROR", slog.LevelError, true},
		{"", 0, false},
		{"warning", 0, false},
		{"trace", 0, false},
		{"info+2", 0, false},
		{" info", 0, false},
		{"4", 0, false},
	} {
		l, err := NewLogger(io.Discard, c.in)
		if !c.ok {
			if err == nil {
				t.Errorf("NewLogger(%q) accepted, want an error", c.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("NewLogger(%q): %v", c.in, err)
			continue
		}
		ctx := context.Background()
		if !l.Enabled(ctx, c.want) || l.Enabled(ctx, c.want-1) {
			t.Errorf("NewLogger(%q) logs from a level other than %v", c.in, c.want)
		}
	}
}

// TestNewLoggerFormat checks the line shape the daemons write: slog text
// with the message quoted only when it needs it, so greps for a plain
// message ("drained, bye") keep working, and lines below the level are
// dropped.
func TestNewLoggerFormat(t *testing.T) {
	var b strings.Builder
	l, err := NewLogger(&b, "info")
	if err != nil {
		t.Fatal(err)
	}
	l.Debug("hidden")
	l.Info("drained, bye")
	l.Info("listening", "addr", ":8723", "policy", "L/N t=20")
	got := b.String()
	for _, want := range []string{
		` level=INFO msg="drained, bye"` + "\n",
		` level=INFO msg=listening addr=:8723 policy="L/N t=20"` + "\n",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("log output lacks %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "hidden") || strings.Count(got, "\n") != 2 {
		t.Errorf("want exactly the two info lines:\n%s", got)
	}
}
