package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterRegistrationIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total")
	b := r.Counter("x_total")
	if a != b {
		t.Fatal("same name registered twice returned two counters")
	}
	c := r.Counter("y_total")
	if c == a {
		t.Fatal("distinct names share a counter")
	}
	a.Add(2)
	b.Add(3)
	snap := r.Snapshot()
	if got := snap.Counter("x_total"); got != 5 {
		t.Fatalf("x_total = %d, want 5 (adds through both handles)", got)
	}
	if got := snap.Counter("y_total"); got != 0 {
		t.Fatalf("y_total = %d, want 0", got)
	}
}

func TestBaseShardAndGauges(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("retries_total")
	c.Add(3)
	c.Add(0) // no-op
	g := r.Gauge("cells_planned")
	g.Set(40)
	g.Add(2)
	snap := r.Snapshot()
	if snap.Counter("retries_total") != 3 {
		t.Fatalf("counter = %d, want 3", snap.Counter("retries_total"))
	}
	if snap.Gauge("cells_planned") != 42 {
		t.Fatalf("gauge = %d, want 42", snap.Gauge("cells_planned"))
	}
	if r.Gauge("cells_planned") != g {
		t.Fatal("gauge registration not idempotent")
	}
}

// TestConcurrentShardsAndSnapshots is the -race workout: eight goroutines
// adding to the same counters, as the run loop's lanes flush into them,
// while snapshots run concurrently; the totals must come out exact.
func TestConcurrentShardsAndSnapshots(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("work_total")
	ev := r.Counter("events_total")
	const workers, perWorker = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Add(1)
				if i%100 == 0 {
					ev.Add(1)
				}
			}
		}()
	}
	stop := make(chan struct{})
	var snapWG sync.WaitGroup
	snapWG.Add(1)
	go func() {
		defer snapWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = r.Snapshot()
			}
		}
	}()
	wg.Wait()
	close(stop)
	snapWG.Wait()
	if got := r.Snapshot().Counter("work_total"); got != workers*perWorker {
		t.Fatalf("total = %d, want %d", got, workers*perWorker)
	}
	if got := r.Snapshot().Counter("events_total"); got != workers*(perWorker/100) {
		t.Fatalf("event total = %d, want %d", got, workers*(perWorker/100))
	}
}

func TestDeltaSaturates(t *testing.T) {
	if Delta(10, 3) != 7 {
		t.Fatal("plain delta broken")
	}
	// Source was reset (warmup ResetStats): cur < prev must not underflow.
	if Delta(5, 100) != 5 {
		t.Fatalf("reset delta = %d, want 5", Delta(5, 100))
	}
}

func TestWriteProm(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total").Add(2)
	r.Counter("a_total").Add(1)
	r.Gauge("g").Set(-7)
	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	wantOrder := []string{"# TYPE a_total counter", "a_total 1", "# TYPE b_total counter", "b_total 2", "# TYPE g gauge", "g -7"}
	idx := -1
	for _, want := range wantOrder {
		i := strings.Index(out, want)
		if i < 0 {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
		if i < idx {
			t.Fatalf("%q out of order in:\n%s", want, out)
		}
		idx = i
	}
}

func TestTraceWriterJSONL(t *testing.T) {
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)
	tw.Write(Record{Type: "run_retry", RunID: "gcc/11/drowsy/4096", Attempt: 2, Error: "boom"})
	tw.Write(Record{Type: "snapshot", InstrPS: 5.9e6})
	if err := tw.Err(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	var rec Record
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Type != "run_retry" || rec.RunID != "gcc/11/drowsy/4096" || rec.Attempt != 2 {
		t.Fatalf("roundtrip mismatch: %+v", rec)
	}
	if rec.Time.IsZero() {
		t.Fatal("timestamp not stamped")
	}
	// Nil receiver must be a safe no-op (telemetry disabled).
	var nilTW *TraceWriter
	nilTW.Write(Record{Type: "snapshot"})
	if nilTW.Err() != nil {
		t.Fatal("nil TraceWriter should report no error")
	}
}

type failWriter struct{ n int }

func (f *failWriter) Write(p []byte) (int, error) {
	f.n++
	return 0, fmt.Errorf("disk full")
}

func TestTraceWriterStickyError(t *testing.T) {
	fw := &failWriter{}
	tw := NewTraceWriter(fw)
	tw.Write(Record{Type: "snapshot"})
	tw.Write(Record{Type: "snapshot"})
	if tw.Err() == nil {
		t.Fatal("expected sticky error")
	}
	if fw.n != 1 {
		t.Fatalf("writer called %d times after error, want 1", fw.n)
	}
}

func TestSamplerEmitsSnapshotsAndProgress(t *testing.T) {
	r := NewRegistry()
	instr := r.Counter(MetricInstructions)
	done := r.Counter(MetricRunsCompleted)
	r.Gauge(GaugeCellsPlanned).Set(4)
	var traceBuf, progBuf syncBuffer
	s := StartSampler(SamplerConfig{
		Registry: r,
		Interval: 10 * time.Millisecond,
		Trace:    NewTraceWriter(&traceBuf),
		Progress: &progBuf,
	})
	instr.Add(500_000)
	done.Add(1)
	time.Sleep(50 * time.Millisecond)
	s.Stop()

	lines := strings.Split(strings.TrimSpace(traceBuf.String()), "\n")
	if len(lines) < 2 {
		t.Fatalf("expected >=2 snapshot lines, got %d", len(lines))
	}
	var rec Record
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Type != "snapshot" {
		t.Fatalf("type = %q, want snapshot", rec.Type)
	}
	if rec.Snapshot == nil || rec.Snapshot.Counter(MetricInstructions) != 500_000 {
		t.Fatalf("snapshot metrics missing or wrong: %+v", rec.Snapshot)
	}
	if rec.Planned != 4 || rec.Done != 1 {
		t.Fatalf("progress fields: done=%d planned=%d, want 1/4", rec.Done, rec.Planned)
	}
	prog := progBuf.String()
	if !strings.Contains(prog, "cells 1/4") {
		t.Fatalf("progress line missing cell count: %q", prog)
	}
	if !strings.HasSuffix(prog, "\n") {
		t.Fatal("final progress repaint should end with newline")
	}
}

func TestServeMetricsEndpoint(t *testing.T) {
	r := NewRegistry()
	r.Counter("scrape_total").Add(9)
	r.Gauge("temperature").Set(110)
	addr, shutdown, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()

	get := func(path string) string {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	metrics := get("/metrics")
	if !strings.Contains(metrics, "scrape_total 9") || !strings.Contains(metrics, "temperature 110") {
		t.Fatalf("/metrics missing values:\n%s", metrics)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(get("/snapshot")), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counter("scrape_total") != 9 {
		t.Fatalf("/snapshot counter = %d, want 9", snap.Counter("scrape_total"))
	}
	if !strings.Contains(get("/debug/vars"), "\"obs\"") {
		t.Fatal("/debug/vars missing obs expvar")
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer: the sampler goroutine writes
// while the test reads.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
