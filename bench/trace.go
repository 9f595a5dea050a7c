package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer: a figure method, a client HTTP
// request, a handler invocation or a coordinator-to-worker request. Parent
// is the span that caused it (0 for a root), Sweep the sweep it served and,
// on a coordinator-to-worker request, Host the worker it went to.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Sweep  string `json:"sweep,omitempty"`
	Host   string `json:"host,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps a traced run's spans in memory until the run ends. Its
// methods are no-ops on a nil tracer, which is how an untraced run pays for
// none of it.
type tracer struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin allocates a span ID and stamps the span's start.
func (t *tracer) begin() (id, start int64) {
	if t == nil {
		return 0, 0
	}
	return t.next.Add(1), t.now()
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// end records the span begun as (id, start).
func (t *tracer) end(id, parent int64, name, sweep string, start int64) {
	if t == nil {
		return
	}
	t.add(span{ID: id, Parent: parent, Name: name, Sweep: sweep, Start: start, End: t.now()})
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) all() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// reset drops every span recorded so far (the warm-up's), keeping IDs
// unique.
func (t *tracer) reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = t.spans[:0]
	t.mu.Unlock()
}

func writeSpans(path string, spans []span) error {
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

type spanKey struct{}

// withSpan makes id the parent of the spans recorded under ctx, including
// the handler spans of the HTTP requests made with it.
func withSpan(ctx context.Context, id int64) context.Context {
	if id == 0 {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, id)
}

func spanFrom(ctx context.Context) int64 {
	id, _ := ctx.Value(spanKey{}).(int64)
	return id
}

// spanHeader carries the calling span's ID to the handler, so a handler
// span names the client span that caused it.
const spanHeader = "X-Bench-Span"

// spanTransport propagates the caller's span to the server. With a
// non-empty name it also records a span per request, from the request's
// start to the close of its response body, and makes that span the
// handler's parent; the coordinator's worker clients use it, since no
// benchmark code sits between the coordinator and its workers.
type spanTransport struct {
	base http.RoundTripper
	tr   *tracer
	name string
}

func (st *spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	parent := spanFrom(req.Context())
	if st.name == "" {
		if parent != 0 {
			req = req.Clone(req.Context())
			req.Header.Set(spanHeader, strconv.FormatInt(parent, 10))
		}
		return st.base.RoundTrip(req)
	}
	id, start := st.tr.begin()
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.FormatInt(id, 10))
	s := span{ID: id, Parent: parent, Name: st.name + "." + route(req.Method, req.URL.Path),
		Sweep: sweepOf(req.URL.Path), Host: req.URL.Host, Start: start}
	done := func() {
		s.End = st.tr.now()
		st.tr.add(s)
	}
	resp, err := st.base.RoundTrip(req)
	if err != nil {
		done()
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, done: done}
	return resp, nil
}

// spanBody ends its request's span when the body is closed.
type spanBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// tracedHandler records a span around every request h serves, named
// role.route and parented on the caller's span header.
func tracedHandler(h http.Handler, tr *tracer, role string) http.Handler {
	if tr == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, start := tr.begin()
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		h.ServeHTTP(w, r)
		tr.end(id, parent, role+"."+route(r.Method, r.URL.Path), sweepOf(r.URL.Path), start)
	})
}

// route names a leakd API route.
func route(method, path string) string {
	switch {
	case method == http.MethodPost && path == "/v1/sweeps":
		return "submit"
	case strings.HasPrefix(path, "/v1/sweeps/") && strings.HasSuffix(path, "/events"):
		return "events"
	case strings.HasPrefix(path, "/v1/sweeps/"):
		return "status"
	case strings.HasPrefix(path, "/v1/cells/"):
		return "cell"
	case path == "/healthz":
		return "health"
	}
	return "other"
}

// sweepOf extracts the sweep ID from a /v1/sweeps/{id}[/events] path.
func sweepOf(path string) string {
	rest, ok := strings.CutPrefix(path, "/v1/sweeps/")
	if !ok {
		return ""
	}
	id, _, _ := strings.Cut(rest, "/")
	return id
}

// spanRow summarizes the spans of one name. SelfS is TotalS minus the part
// of each span's interval its child spans cover.
type spanRow struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	P50ms  float64 `json:"p50_ms"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

// spanStats groups spans by name, largest total first.
func spanStats(spans []span) []spanRow {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	type acc struct {
		durs        []float64
		total, self time.Duration
	}
	by := make(map[string]*acc)
	for _, s := range spans {
		a := by[s.Name]
		if a == nil {
			a = &acc{}
			by[s.Name] = a
		}
		a.durs = append(a.durs, float64(s.dur()))
		a.total += s.dur()
		a.self += s.dur() - covered(s, children[s.ID])
	}
	out := make([]spanRow, 0, len(by))
	for name, a := range by {
		out = append(out, spanRow{Name: name, Count: len(a.durs),
			P50ms: ms(time.Duration(median(a.durs))), TotalS: a.total.Seconds(), SelfS: a.self.Seconds()})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].TotalS != out[j].TotalS {
			return out[i].TotalS > out[j].TotalS
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(p span, kids []span) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, p.Start), min(k.End, p.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	end = p.Start
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return time.Duration(total)
}
