package api

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"hotleakage/internal/obs"
)

// FetchCell implements sim.CellFetcher over the daemon API: a GET of the
// content address, with 404 reported as a clean miss. It is the read side
// of store federation — a worker whose local store misses a cell asks its
// peer (normally the cluster coordinator) before simulating. Transport
// trouble is an error, not a miss, so the caller can decide whether to
// degrade to simulation (sim does) or surface it.
func (c *Client) FetchCell(ctx context.Context, hash string) (json.RawMessage, bool, error) {
	rec, err := c.Cell(ctx, hash)
	if err != nil {
		var se *StatusError
		if errors.As(err, &se) && se.Code == http.StatusNotFound {
			return nil, false, nil
		}
		return nil, false, err
	}
	return rec.Value, true, nil
}

// StreamEvents attaches to a sweep's SSE stream and hands every decoded
// record to sink until the stream ends or ctx is canceled. The daemon ends
// the stream right after the sweep's terminal event, so its end is the cue
// to read the status, which is then terminal. The records themselves are
// best-effort — the hub drops events for slow consumers and the replay
// ring is bounded — so callers must treat them as telemetry and take the
// verdict from the status (WatchSweep does both). The attempt is gated by
// the breaker and its outcome recorded like any other call, without
// retries. A canceled ctx returns nil: the caller chose to stop listening,
// nothing failed.
func (c *Client) StreamEvents(ctx context.Context, id string, sink func(obs.Record)) error {
	path := "/v1/sweeps/" + id + "/events"
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+path, nil)
	if err != nil {
		return fmt.Errorf("api: %w", err)
	}
	if !c.Breaker.Allow() {
		return fastFail(http.MethodGet, path)
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return nil
		}
		c.Breaker.Record(false)
		return fmt.Errorf("api: events %s: %w", id, err)
	}
	defer resp.Body.Close()
	c.Breaker.Record(resp.StatusCode < 500)
	if resp.StatusCode != http.StatusOK {
		var eb ErrorBody
		_ = json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&eb)
		msg := eb.Error
		if msg == "" {
			msg = resp.Status
		}
		return &StatusError{Code: resp.StatusCode, Msg: msg}
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue // event-type and blank separator lines
		}
		var rec obs.Record
		if err := json.Unmarshal([]byte(line[len("data: "):]), &rec); err != nil {
			continue // a malformed frame is dropped, not fatal
		}
		sink(rec)
	}
	if err := sc.Err(); err != nil && ctx.Err() == nil {
		return fmt.Errorf("api: events %s: %w", id, err)
	}
	return nil
}
