package obs

import (
	"fmt"
	"io"
	"log/slog"
	"strings"
)

// ParseLevel reads a log-level name: debug, info, warn or error, in any
// case. Anything else, the empty string included, is an error.
func ParseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(s) {
	case "debug":
		return slog.LevelDebug, nil
	case "info":
		return slog.LevelInfo, nil
	case "warn":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("unknown log level %q (want debug, info, warn or error)", s)
}

// NewLogger builds the daemons' structured logger on w: log/slog text
// lines (time=… level=INFO msg=… key=value…, values quoted only when
// needed) at or above min.
func NewLogger(w io.Writer, min slog.Level) *slog.Logger {
	return slog.New(slog.NewTextHandler(w, &slog.HandlerOptions{Level: min}))
}
