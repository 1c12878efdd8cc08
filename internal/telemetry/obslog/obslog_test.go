package obslog

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"strings"
	"testing"
	"time"

	"axml/internal/telemetry"
)

// formats is the table every test runs over: each line format with a
// decoder turning one line back into key → value strings.
var formats = []struct {
	name   string
	format Format
	decode func(line string) (map[string]string, error)
}{
	{"json", JSON, func(line string) (map[string]string, error) {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			return nil, err
		}
		out := make(map[string]string, len(m))
		for k, v := range m {
			out[k] = fmt.Sprint(v)
		}
		return out, nil
	}},
	{"text", Text, func(line string) (map[string]string, error) {
		out := map[string]string{}
		for _, kv := range strings.Fields(line) {
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				return nil, fmt.Errorf("field %q is not key=value", kv)
			}
			out[k] = v
		}
		return out, nil
	}},
}

// lines splits a buffer of log output into decoded lines.
func lines(t *testing.T, decode func(string) (map[string]string, error), buf *bytes.Buffer) []map[string]string {
	t.Helper()
	var out []map[string]string
	for _, line := range strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n") {
		if line == "" {
			continue
		}
		m, err := decode(line)
		if err != nil {
			t.Fatalf("undecodable line %q: %v", line, err)
		}
		out = append(out, m)
	}
	return out
}

// TestLineContract pins the keys the log stream's consumers rely on: ts
// in UTC, a lowercase level, msg, trace_id from either an enclosing span
// or WithTraceID, and durations as Go duration strings.
func TestLineContract(t *testing.T) {
	// A non-UTC local zone proves ts is converted, not merely formatted.
	defer func(loc *time.Location) { time.Local = loc }(time.Local)
	time.Local = time.FixedZone("UTC+5", 5*3600)

	reg := telemetry.NewRegistry()
	spanCtx, span := telemetry.StartSpan(telemetry.WithRegistry(context.Background(), reg), "op")
	defer span.End(nil)
	idCtx := telemetry.WithTraceID(context.Background(), "deadbeef-00000001")

	for _, f := range formats {
		t.Run(f.name, func(t *testing.T) {
			var buf bytes.Buffer
			l := New(&buf, Info, f.format)
			l.LogAttrs(spanCtx, Info, "request", slog.Duration("duration", 1500*time.Microsecond))
			l.LogAttrs(idCtx, Warn, "retry", slog.Int("attempt", 2))
			want := []map[string]string{
				{"level": "info", "msg": "request", "trace_id": span.TraceID(), "duration": "1.5ms"},
				{"level": "warn", "msg": "retry", "trace_id": "deadbeef-00000001", "attempt": "2"},
			}
			got := lines(t, f.decode, &buf)
			if len(got) != len(want) {
				t.Fatalf("got %d lines, want %d:\n%s", len(got), len(want), buf.String())
			}
			for i := range want {
				ts, err := time.Parse(time.RFC3339Nano, got[i]["ts"])
				if err != nil || ts.Location() != time.UTC {
					t.Errorf("line %d: ts = %q, want RFC 3339 in UTC", i, got[i]["ts"])
				}
				for k, v := range want[i] {
					if got[i][k] != v {
						t.Errorf("line %d: %s = %q, want %q", i, k, got[i][k], v)
					}
				}
			}
		})
	}
}

func TestLevelFiltering(t *testing.T) {
	for _, f := range formats {
		t.Run(f.name, func(t *testing.T) {
			var buf bytes.Buffer
			l := New(&buf, Warn, f.format)
			l.Debug("nope")
			l.Info("nope")
			l.Error("yes")
			got := lines(t, f.decode, &buf)
			if len(got) != 1 || got[0]["msg"] != "yes" || got[0]["level"] != "error" {
				t.Fatalf("want only the error line, got:\n%s", buf.String())
			}
			if l.Enabled(context.Background(), Info) || !l.Enabled(context.Background(), Error) {
				t.Error("Enabled disagrees with filtering")
			}
		})
	}
}

// TestWithFields: attributes bound with With reach every line, and the
// derived logger still stamps the context's trace ID.
func TestWithFields(t *testing.T) {
	ctx := telemetry.WithTraceID(context.Background(), "deadbeef-00000002")
	for _, f := range formats {
		t.Run(f.name, func(t *testing.T) {
			var buf bytes.Buffer
			l := New(&buf, Info, f.format).With(slog.String("store", "mem"))
			l.InfoContext(ctx, "hello")
			got := lines(t, f.decode, &buf)
			if len(got) != 1 || got[0]["store"] != "mem" || got[0]["trace_id"] != "deadbeef-00000002" {
				t.Errorf("line = %q, want store=mem and the trace ID", buf.String())
			}
		})
	}
}

func TestParseHelpers(t *testing.T) {
	if lv, err := ParseLevel("WARNING"); err != nil || lv != Warn {
		t.Errorf("ParseLevel(WARNING) = %v, %v", lv, err)
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Error("ParseLevel accepted junk")
	}
	if f, err := ParseFormat("JSON"); err != nil || f != JSON {
		t.Errorf("ParseFormat(JSON) = %v, %v", f, err)
	}
	if _, err := ParseFormat("yaml"); err == nil {
		t.Error("ParseFormat accepted junk")
	}
}
