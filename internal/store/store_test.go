package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// TestCanonicalHashFieldOrder: the hash must not depend on the order
// fields appear in — a reordered struct declaration or a hand-written JSON
// document with the same content addresses the same cell.
func TestCanonicalHashFieldOrder(t *testing.T) {
	type fwd struct {
		Bench    string `json:"bench"`
		Interval uint64 `json:"interval"`
		Nested   struct {
			A int `json:"a"`
			B int `json:"b"`
		} `json:"nested"`
	}
	type rev struct {
		Nested struct {
			B int `json:"b"`
			A int `json:"a"`
		} `json:"nested"`
		Interval uint64 `json:"interval"`
		Bench    string `json:"bench"`
	}
	var a fwd
	a.Bench, a.Interval, a.Nested.A, a.Nested.B = "gzip", 4096, 1, 2
	var b rev
	b.Bench, b.Interval, b.Nested.A, b.Nested.B = "gzip", 4096, 1, 2

	ha, err := CanonicalHash(a)
	if err != nil {
		t.Fatal(err)
	}
	hb, err := CanonicalHash(b)
	if err != nil {
		t.Fatal(err)
	}
	if ha != hb {
		t.Errorf("field order changed the hash: %s vs %s", ha, hb)
	}

	// Raw JSON with shuffled keys must agree too.
	doc1 := []byte(`{"bench":"gzip","interval":4096,"nested":{"a":1,"b":2}}`)
	doc2 := []byte(`{"nested":{"b":2,"a":1},"interval":4096,"bench":"gzip"}`)
	var v1, v2 any
	if err := json.Unmarshal(doc1, &v1); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(doc2, &v2); err != nil {
		t.Fatal(err)
	}
	h1, _ := CanonicalHash(v1)
	h2, _ := CanonicalHash(v2)
	if h1 != h2 {
		t.Errorf("raw JSON key order changed the hash: %s vs %s", h1, h2)
	}
	if h1 != ha {
		t.Errorf("struct and raw JSON forms hash differently: %s vs %s", ha, h1)
	}

	// A genuinely different document must not collide.
	a.Interval = 8192
	hc, _ := CanonicalHash(a)
	if hc == ha {
		t.Error("different content produced the same hash")
	}
}

type cellVal struct {
	N int     `json:"n"`
	F float64 `json:"f"`
	S string  `json:"s"`
}

func mustPut(t *testing.T, s *Store, i int) string {
	t.Helper()
	key := map[string]any{"cell": i}
	h, err := CanonicalHash(key)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(h, key, cellVal{N: i, F: float64(i) * 1.5, S: fmt.Sprintf("v%d", i)}); err != nil {
		t.Fatal(err)
	}
	return h
}

// TestGetDetectsIndexMisalignment: when the index points Get at bytes
// that parse but hold a different record (offset desync, bit rot), a
// content-addressed store must return an error, never the wrong record
// as a success.
func TestGetDetectsIndexMisalignment(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	a := mustPut(t, s, 1)
	b := mustPut(t, s, 2)

	s.mu.Lock()
	s.index[a] = s.index[b] // simulate index/file desync
	s.mu.Unlock()
	if rec, ok, err := s.Get(a); err == nil {
		t.Fatalf("misaligned Get(%s) = (%s, %v, nil), want error", a, rec.Hash, ok)
	}
	// The record actually at those bytes is still served under its own hash.
	if rec, ok, err := s.Get(b); err != nil || !ok || rec.Hash != b {
		t.Fatalf("Get(%s) = %v, %v, %v", b, rec.Hash, ok, err)
	}
}

func TestStoreRoundTripAndReload(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var hashes []string
	for i := 0; i < 20; i++ {
		hashes = append(hashes, mustPut(t, s, i))
	}
	// Duplicate put is a no-op, not an error.
	if err := s.Put(hashes[0], nil, cellVal{N: 999}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 20 {
		t.Fatalf("reloaded %d cells, want 20", s2.Len())
	}
	for i, h := range hashes {
		rec, ok, err := s2.Get(h)
		if err != nil || !ok {
			t.Fatalf("Get(%s) = %v, %v", h, ok, err)
		}
		var v cellVal
		if err := json.Unmarshal(rec.Value, &v); err != nil {
			t.Fatal(err)
		}
		if v.N != i || v.S != fmt.Sprintf("v%d", i) {
			t.Errorf("cell %d round-tripped as %+v", i, v)
		}
	}
}

// TestOpenIgnoresOtherFiles: a store directory an older version left a
// meta.jsonl (its cost-model segment) and a checkpoints/ directory in
// opens clean, and Open neither reads nor touches either.
func TestOpenIgnoresOtherFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	h := mustPut(t, s, 1)
	s.Close()
	meta := []byte(`{"m":"cost_model_ns_per_instr","v":{"gzip/drowsy":123.5}}` + "\n" + `{"m":"torn`)
	ckpt := []byte(`{"header":{"version":1}}` + "\n" + `{"key":"gzip/11/1/4096","value":{}}` + "\n")
	if err := os.WriteFile(filepath.Join(dir, "meta.jsonl"), meta, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "checkpoints"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "checkpoints", "req.jsonl"), ckpt, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 1 || s2.Skipped() != 0 {
		t.Fatalf("reopened len=%d skipped=%d, want 1/0", s2.Len(), s2.Skipped())
	}
	if _, ok, err := s2.Get(h); !ok || err != nil {
		t.Fatalf("Get(%s) = %v, %v", h, ok, err)
	}
	mustPut(t, s2, 2)
	if b, err := os.ReadFile(filepath.Join(dir, "meta.jsonl")); err != nil || string(b) != string(meta) {
		t.Errorf("meta.jsonl changed: %q, %v", b, err)
	}
}

// TestStoreCorruptTailRecovery truncates the append segment mid-record and
// verifies the index rebuild keeps everything before the tear, drops the
// tail, and the store accepts (and persists) new writes afterwards.
func TestStoreCorruptTailRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var hashes []string
	for i := 0; i < 10; i++ {
		hashes = append(hashes, mustPut(t, s, i))
	}
	s.Close()

	seg := filepath.Join(dir, "seg-000001.jsonl")
	st, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Cut into the middle of the final record.
	if err := os.Truncate(seg, st.Size()-7); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 9 {
		t.Fatalf("recovered %d cells, want 9 (torn tail dropped)", s2.Len())
	}
	if s2.Skipped() == 0 {
		t.Error("Skipped() = 0, want > 0 after a torn tail")
	}
	if s2.Has(hashes[9]) {
		t.Error("torn record still indexed")
	}
	for _, h := range hashes[:9] {
		if !s2.Has(h) {
			t.Errorf("intact record %s lost in recovery", h)
		}
	}
	// The truncated store must keep working: new appends land on a clean
	// line boundary and survive another reload.
	h := mustPut(t, s2, 100)
	s2.Close()
	s3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if s3.Skipped() != 0 {
		t.Errorf("Skipped() = %d after re-append, want 0 (tail was truncated away)", s3.Skipped())
	}
	if got := s3.Len(); got != 10 {
		t.Errorf("post-recovery store has %d cells, want 10", got)
	}
	if _, ok, err := s3.Get(h); !ok || err != nil {
		t.Errorf("post-recovery append lost: %v, %v", ok, err)
	}
}

// TestStoreCorruptMiddleOfSealedSegment corrupts a byte in the middle of a
// non-final segment: records before the damage survive, the remainder of
// that segment is skipped, and later segments are unaffected.
func TestStoreCorruptMiddleOfSealedSegment(t *testing.T) {
	dir := t.TempDir()
	// Rotate every few records.
	s, err := OpenOptions(dir, Options{SegmentMaxBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	var hashes []string
	for i := 0; i < 12; i++ {
		hashes = append(hashes, mustPut(t, s, i))
	}
	s.Close()

	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.jsonl"))
	if len(segs) < 3 {
		t.Fatalf("expected several segments, got %v", segs)
	}
	// Smash a byte mid-way through the first (sealed) segment.
	b, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] = 0xff
	if err := os.WriteFile(segs[0], b, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Skipped() == 0 {
		t.Error("Skipped() = 0, want > 0 after mid-segment corruption")
	}
	if s2.Len() >= 12 || s2.Len() == 0 {
		t.Errorf("recovered %d cells, want some-but-not-all of 12", s2.Len())
	}
	// Every indexed record must still read back cleanly.
	for _, h := range hashes {
		if !s2.Has(h) {
			continue
		}
		rec, ok, err := s2.Get(h)
		if err != nil || !ok {
			t.Fatalf("Get(%s) after recovery: %v, %v", h, ok, err)
		}
		var v cellVal
		if err := json.Unmarshal(rec.Value, &v); err != nil {
			t.Errorf("recovered record %s does not parse: %v", h, err)
		}
	}
	// Records in segments after the corrupted one must have survived.
	last := hashes[len(hashes)-1]
	if !s2.Has(last) {
		t.Error("record in a later segment lost to earlier segment's corruption")
	}
}

// TestStoreConcurrent exercises concurrent writers and readers; run under
// -race (the verify tier does).
func TestStoreConcurrent(t *testing.T) {
	dir := t.TempDir()
	// Rotate under load too.
	s, err := OpenOptions(dir, Options{SegmentMaxBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const writers, perWriter = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				key := map[string]any{"w": w, "i": i}
				h, err := CanonicalHash(key)
				if err != nil {
					t.Error(err)
					return
				}
				if err := s.Put(h, key, cellVal{N: w*1000 + i}); err != nil {
					t.Error(err)
					return
				}
				// Read own write plus a sibling's (if present).
				if _, ok, err := s.Get(h); !ok || err != nil {
					t.Errorf("read-own-write %s: %v, %v", h, ok, err)
					return
				}
				other, _ := CanonicalHash(map[string]any{"w": (w + 1) % writers, "i": i})
				if _, _, err := s.Get(other); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := s.Len(); got != writers*perWriter {
		t.Errorf("store has %d cells, want %d", got, writers*perWriter)
	}
}
