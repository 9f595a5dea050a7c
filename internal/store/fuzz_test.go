package store

import (
	"bytes"
	"fmt"
	"testing"
)

// FuzzCanonicalize checks the byte form CanonicalHash digests. It is a
// fixed point: canonicalizing a canonical document changes nothing. And it
// is injective on integers: {"i":a} and {"i":b} never share bytes for
// a != b, above 2^53 included, where a float64 round trip would merge
// neighbours. The seed corpus (testdata/fuzz/FuzzCanonicalize) holds real
// cell identity and request documents.
func FuzzCanonicalize(f *testing.F) {
	f.Fuzz(func(t *testing.T, doc []byte, a, b uint64) {
		if canon, err := Canonicalize(doc); err == nil {
			again, err := Canonicalize(canon)
			if err != nil {
				t.Fatalf("canonical form does not parse: %v\n%s", err, canon)
			}
			if !bytes.Equal(again, canon) {
				t.Fatalf("not idempotent:\n%s\n%s", canon, again)
			}
		}
		if a == b {
			return
		}
		ca, err := Canonicalize([]byte(fmt.Sprintf(`{"i":%d}`, a)))
		if err != nil {
			t.Fatal(err)
		}
		cb, err := Canonicalize([]byte(fmt.Sprintf(`{"i":%d}`, b)))
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(ca, cb) {
			t.Fatalf("%d and %d share the canonical form %s", a, b, ca)
		}
	})
}

// FuzzOpen writes the input as a store's only segment and opens it. Open
// must never panic; Get on every hash it indexed returns that hash's
// record or an error, never another record; and every line is indexed,
// skipped or a duplicate, so Len() + Skipped() never exceeds the number of
// lines. The seed corpus (testdata/fuzz/FuzzOpen) holds a few Puts, a torn
// tail and a corrupt middle line.
func FuzzOpen(f *testing.F) {
	f.Fuzz(func(t *testing.T, seg []byte) {
		const dir = "/store"
		s, err := OpenOptions(dir, Options{
			FS:   memFSFrom(map[string][]byte{dir + "/seg-000001.jsonl": seg}),
			Logf: quiet,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		s.mu.Lock()
		hashes := make([]string, 0, len(s.index))
		for h := range s.index {
			hashes = append(hashes, h)
		}
		s.mu.Unlock()
		for _, h := range hashes {
			if rec, ok, err := s.Get(h); err == nil && (!ok || rec.Hash != h) {
				t.Fatalf("Get(%q) = record %q, found=%v", h, rec.Hash, ok)
			}
		}
		lines := bytes.Count(seg, []byte("\n"))
		if len(seg) > 0 && seg[len(seg)-1] != '\n' {
			lines++
		}
		if n := s.Len() + s.Skipped(); n > lines {
			t.Fatalf("Len %d + Skipped %d exceeds the %d lines", s.Len(), s.Skipped(), lines)
		}
	})
}
