package obs

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// EventLog is the structured event stream shared by the serve stack, the
// plan runner and the trace store: one JSON object per line, with a fixed
// top-level field order (ts, span, component, event, fields) and
// caller-ordered payload fields, so the log's shape is deterministic even
// though its timestamps and interleaving are not. It replaces ad-hoc
// fmt.Fprintln logging: every line is grep-able AND machine-parseable, and
// the span field links a line to the HTTP request (or CLI run) that caused
// it.
//
// The JSON is rendered by hand exactly like the tracer's trace_event
// output — encoding/json over a map would randomize field order. Writes
// are serialized by a mutex, so one EventLog may be shared by every
// goroutine of a process; write errors are swallowed (an event log must
// never take down the run it narrates).
//
// EventLog lives in obs because emitting an event needs the wall clock,
// and obs is the one restricted package detlint allows to read it. The
// write side (Log, Start) is available to the simulation packages; there
// is deliberately no read side to ban.
//
// All methods are nil-safe: a nil *EventLog costs one nil check per event.
type EventLog struct {
	mu sync.Mutex
	w  io.Writer
}

// NewEventLog returns an event log writing one JSON line per event to w.
func NewEventLog(w io.Writer) *EventLog {
	return &EventLog{w: w}
}

// Field is one key/value pair of an event's payload. Values are rendered
// by dynamic type: string, bool, signed/unsigned integers and float64 get
// native JSON forms; anything else is formatted as a quoted string.
type Field struct {
	K string
	V any
}

// F is the Field constructor, short because call sites stack several.
func F(k string, v any) Field { return Field{K: k, V: v} }

// Log emits one event. component names the emitting subsystem ("serve",
// "plan", "tracestore", ...), event is a dot-separated event name
// ("request.done", "cell.start"), and fields carry the payload in the
// order given. The span id, if any, is taken from ctx (see WithSpan); a
// nil ctx or a span-less ctx renders span as "". No-op on a nil log.
func (l *EventLog) Log(ctx context.Context, component, event string, fields ...Field) {
	if l == nil {
		return
	}
	var sb strings.Builder
	sb.WriteString(`{"ts":`)
	sb.WriteString(strconv.Quote(time.Now().UTC().Format(time.RFC3339Nano)))
	sb.WriteString(`,"span":`)
	sb.WriteString(strconv.Quote(SpanName(ctx)))
	sb.WriteString(`,"component":`)
	sb.WriteString(strconv.Quote(component))
	sb.WriteString(`,"event":`)
	sb.WriteString(strconv.Quote(event))
	sb.WriteString(`,"fields":{`)
	for i, f := range fields {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(strconv.Quote(f.K))
		sb.WriteByte(':')
		writeFieldValue(&sb, f.V)
	}
	sb.WriteString("}}\n")
	l.mu.Lock()
	io.WriteString(l.w, sb.String()) // an event log must never fail the run it narrates
	l.mu.Unlock()
}

// Start logs "<event>.start" immediately and returns a callback that logs
// "<event>.done" with the elapsed wall milliseconds, an ok flag, and any
// extra fields appended after the originals. It keeps the wall-clock read
// inside obs, so detlint-restricted packages (tracestore, plan via the
// Sink) can time their slow operations without touching time.Now. On a
// nil log both Start and its callback are no-ops.
func (l *EventLog) Start(ctx context.Context, component, event string, fields ...Field) func(ok bool, extra ...Field) {
	if l == nil {
		return func(bool, ...Field) {}
	}
	l.Log(ctx, component, event+".start", fields...)
	began := time.Now()
	return func(ok bool, extra ...Field) {
		done := make([]Field, 0, len(fields)+len(extra)+2)
		done = append(done, fields...)
		done = append(done, extra...)
		done = append(done,
			F("ok", ok),
			F("wall_ms", float64(time.Since(began))/float64(time.Millisecond)))
		l.Log(ctx, component, event+".done", done...)
	}
}

// writeFieldValue renders one payload value as JSON.
func writeFieldValue(sb *strings.Builder, v any) {
	switch v := v.(type) {
	case string:
		sb.WriteString(strconv.Quote(v))
	case bool:
		sb.WriteString(strconv.FormatBool(v))
	case int:
		sb.WriteString(strconv.FormatInt(int64(v), 10))
	case int64:
		sb.WriteString(strconv.FormatInt(v, 10))
	case uint64:
		sb.WriteString(strconv.FormatUint(v, 10))
	case float64:
		sb.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
	default:
		sb.WriteString(strconv.Quote(fmt.Sprint(v)))
	}
}

// --- request spans ---

// spanCtxKey is the context key carrying a request span id.
type spanCtxKey struct{}

// spanSeq mints process-unique span ids. Sequential rather than random on
// purpose: spans exist to correlate log lines, tracer events and progress
// within one process, and a counter keeps them short, collision-free and
// free of any randomness the determinism contract would have to reason
// about.
var spanSeq atomic.Uint64

// NextSpan mints a fresh span id. Serve's middleware calls it once per
// request; CLI tools may mint one per invocation.
func NextSpan() uint64 { return spanSeq.Add(1) }

// WithSpan returns a context carrying the span id, to be threaded through
// the request/cell path (ctxlint enforces the plumbing in serve, plan and
// experiment). Span propagation is value-only: deriving a simulation
// context from the server's base context and re-attaching the request's
// span keeps cancellation and correlation independent.
func WithSpan(ctx context.Context, id uint64) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, id)
}

// SpanID extracts the span id from ctx (0, false when absent or ctx is
// nil).
func SpanID(ctx context.Context) (uint64, bool) {
	if ctx == nil {
		return 0, false
	}
	id, ok := ctx.Value(spanCtxKey{}).(uint64)
	return id, ok
}

// SpanName renders ctx's span id in the log form "req-<n>", or "" when the
// context carries none.
func SpanName(ctx context.Context) string {
	id, ok := SpanID(ctx)
	if !ok {
		return ""
	}
	return "req-" + strconv.FormatUint(id, 10)
}
