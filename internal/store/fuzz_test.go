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
