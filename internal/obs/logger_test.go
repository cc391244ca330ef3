package obs

import (
	"context"
	"log/slog"
	"strings"
	"testing"
	"time"
)

func TestParseLevel(t *testing.T) {
	cases := map[string]slog.Level{
		"debug": slog.LevelDebug, "info": slog.LevelInfo,
		"warn": slog.LevelWarn, "error": slog.LevelError,
		"INFO": slog.LevelInfo, "Error": slog.LevelError, "wARn": slog.LevelWarn,
	}
	for in, want := range cases {
		got, err := ParseLevel(in)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, in := range []string{"loud", "", "warning", " info", "info+2", "4"} {
		if _, err := ParseLevel(in); err == nil {
			t.Errorf("ParseLevel(%q) accepted", in)
		}
	}
}

// splitTime cuts the leading time=… field off a log line and checks that
// it is an RFC 3339 timestamp.
func splitTime(t *testing.T, line string) string {
	t.Helper()
	ts, rest, ok := strings.Cut(strings.TrimPrefix(line, "time="), " ")
	if !ok || !strings.HasPrefix(line, "time=") {
		t.Fatalf("line does not start with a time field: %q", line)
	}
	if _, err := time.Parse(time.RFC3339Nano, ts); err != nil {
		t.Fatalf("time field %q: %v", ts, err)
	}
	return rest
}

func TestLoggerFormat(t *testing.T) {
	var b strings.Builder
	NewLogger(&b, slog.LevelInfo).Info("listening", "addr", ":8723", "workers", 8)
	got := splitTime(t, b.String())
	want := `level=INFO msg=listening addr=:8723 workers=8` + "\n"
	if got != want {
		t.Fatalf("line = %q, want %q", got, want)
	}
}

func TestLoggerQuoting(t *testing.T) {
	var b strings.Builder
	NewLogger(&b, slog.LevelInfo).Info("drained, bye", "policy", "L/N t=20")
	got := b.String()
	// Quoted (contains space) but the grep-target substring survives.
	if !strings.Contains(got, `msg="drained, bye"`) {
		t.Fatalf("quoting broke the message: %q", got)
	}
	if !strings.Contains(got, "drained, bye") {
		t.Fatalf("smoke-test grep target missing: %q", got)
	}
	if !strings.Contains(got, `policy="L/N t=20"`) {
		t.Fatalf("value with spaces not quoted: %q", got)
	}
}

func TestLoggerLevelFilter(t *testing.T) {
	var b strings.Builder
	l := NewLogger(&b, slog.LevelWarn)
	l.Debug("d")
	l.Info("i")
	l.Warn("w")
	l.Error("e")
	got := b.String()
	if strings.Contains(got, "level=DEBUG") || strings.Contains(got, "level=INFO") {
		t.Fatalf("below-threshold lines emitted: %q", got)
	}
	if !strings.Contains(got, "level=WARN") || !strings.Contains(got, "level=ERROR") {
		t.Fatalf("threshold lines missing: %q", got)
	}
	ctx := context.Background()
	if !l.Enabled(ctx, slog.LevelError) || l.Enabled(ctx, slog.LevelInfo) {
		t.Fatal("Enabled() disagrees with filter")
	}
}
