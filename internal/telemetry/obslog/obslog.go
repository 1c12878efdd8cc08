// Package obslog configures log/slog for the serving path. Lines render
// as JSON (one object per line, machine ingestible) or text (slog's
// key=value shape); both carry the trace ID in effect on the calling
// context as trace_id, so a request-log line, its span tree in
// /debug/traces, and its audit events correlate on one ID.
//
// The JSON key contract: ts (RFC 3339, UTC), level (lowercase), msg,
// the line's attributes, and trace_id when the context carries one;
// durations render as Go duration strings such as "1.5ms".
package obslog

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"strings"

	"axml/internal/telemetry"
)

// Level orders log severities; it is slog's own level type.
type Level = slog.Level

const (
	Debug = slog.LevelDebug
	Info  = slog.LevelInfo
	Warn  = slog.LevelWarn
	Error = slog.LevelError
)

// ParseLevel parses a level name (case-insensitive; "warning" is
// accepted for "warn").
func ParseLevel(s string) (Level, error) {
	switch strings.ToLower(s) {
	case "debug":
		return Debug, nil
	case "info":
		return Info, nil
	case "warn", "warning":
		return Warn, nil
	case "error":
		return Error, nil
	}
	return Info, fmt.Errorf("unknown log level %q (debug|info|warn|error)", s)
}

// Format selects the line encoding.
type Format uint8

const (
	Text Format = iota
	JSON
)

// ParseFormat parses a format name.
func ParseFormat(s string) (Format, error) {
	switch strings.ToLower(s) {
	case "text":
		return Text, nil
	case "json":
		return JSON, nil
	}
	return Text, fmt.Errorf("unknown log format %q (text|json)", s)
}

// New returns a logger writing lines at or above level to w.
func New(w io.Writer, level Level, format Format) *slog.Logger {
	opts := &slog.HandlerOptions{Level: level, ReplaceAttr: replaceAttr}
	var h slog.Handler = slog.NewTextHandler(w, opts)
	if format == JSON {
		h = slog.NewJSONHandler(w, opts)
	}
	return slog.New(traceHandler{h})
}

// replaceAttr keeps the key contract: slog's "time" becomes ts in UTC,
// the level is lowercase, and durations render as Go duration strings
// rather than JSON nanosecond integers.
func replaceAttr(groups []string, a slog.Attr) slog.Attr {
	if len(groups) == 0 {
		switch a.Key {
		case slog.TimeKey:
			return slog.Time("ts", a.Value.Time().UTC())
		case slog.LevelKey:
			return slog.String(slog.LevelKey, strings.ToLower(a.Value.String()))
		}
	}
	if a.Value.Kind() == slog.KindDuration {
		return slog.String(a.Key, a.Value.Duration().String())
	}
	return a
}

// traceHandler stamps the context's trace ID (an enclosing span's or an
// extracted traceparent's) on every line as trace_id.
type traceHandler struct{ slog.Handler }

func (h traceHandler) Handle(ctx context.Context, r slog.Record) error {
	if id := telemetry.TraceIDFrom(ctx); id != "" {
		r.AddAttrs(slog.String("trace_id", id))
	}
	return h.Handler.Handle(ctx, r)
}

func (h traceHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	return traceHandler{h.Handler.WithAttrs(attrs)}
}

func (h traceHandler) WithGroup(name string) slog.Handler {
	return traceHandler{h.Handler.WithGroup(name)}
}
