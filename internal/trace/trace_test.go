package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"hotleakage/internal/workload"
)

func record(t *testing.T, bench string, n uint64) (*bytes.Buffer, *workload.Generator) {
	t.Helper()
	prof, ok := workload.ByName(bench)
	if !ok {
		t.Fatalf("no profile %q", bench)
	}
	g := workload.NewGenerator(prof)
	var buf bytes.Buffer
	w, err := NewWriter(&buf, bench, n)
	if err != nil {
		t.Fatal(err)
	}
	if err := Record(g, w, n); err != nil {
		t.Fatal(err)
	}
	return &buf, workload.NewGenerator(prof) // fresh generator for comparison
}

func TestRoundTripBitExact(t *testing.T) {
	const n = 50_000
	buf, fresh := record(t, "gcc", n)
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if r.Name() != "gcc" || r.Len() != n {
		t.Fatalf("header: %q / %d", r.Name(), r.Len())
	}
	var want, got workload.Instr
	for i := 0; i < n; i++ {
		fresh.Next(&want)
		r.Next(&got)
		if want != got {
			t.Fatalf("record %d mismatch:\nwant %+v\ngot  %+v", i, want, got)
		}
	}
}

func TestReaderWrapsAround(t *testing.T) {
	buf, _ := record(t, "gzip", 1000)
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var ins workload.Instr
	for i := 0; i < 2500; i++ {
		r.Next(&ins)
	}
	if r.Laps != 2 {
		t.Fatalf("laps = %d, want 2", r.Laps)
	}
}

func TestCompactness(t *testing.T) {
	// The delta encoding should land well under the naive 34-byte
	// fixed-size record.
	const n = 50_000
	buf, _ := record(t, "mcf", n)
	perInstr := float64(buf.Len()) / n
	if perInstr > 10 {
		t.Fatalf("%.1f bytes/instruction; encoding too fat", perInstr)
	}
}

func TestBadStreams(t *testing.T) {
	cases := map[string][]byte{
		"empty":       {},
		"bad magic":   []byte("NOPE....."),
		"no records":  append([]byte(magic), append([]byte{version, 1, 'x'}, make([]byte, 8)...)...),
		"truncated":   nil, // filled below
		"bad version": append([]byte(magic), 99),
	}
	good, _ := record(t, "gcc", 100)
	cases["truncated"] = good.Bytes()[:good.Len()-3]
	for name, data := range cases {
		if _, err := NewReader(bytes.NewReader(data)); !errors.Is(err, ErrBadTrace) {
			t.Errorf("%s: error = %v, want ErrBadTrace", name, err)
		}
	}
}

func TestWriterCount(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, "x", 0)
	if err != nil {
		t.Fatal(err)
	}
	var ins workload.Instr
	ins.Op = workload.OpIntALU
	for i := 0; i < 7; i++ {
		if err := w.Write(&ins); err != nil {
			t.Fatal(err)
		}
	}
	if w.Count() != 7 {
		t.Fatalf("count = %d", w.Count())
	}
}

func TestNameTooLong(t *testing.T) {
	var buf bytes.Buffer
	if _, err := NewWriter(&buf, string(make([]byte, 300)), 0); err == nil {
		t.Fatal("oversized name accepted")
	}
}

func TestArbitraryBytesNeverPanic(t *testing.T) {
	// Robustness: random byte soup must produce an error, never a panic.
	seed := uint64(0xfeed)
	next := func() byte {
		seed = seed*6364136223846793005 + 1442695040888963407
		return byte(seed >> 56)
	}
	for trial := 0; trial < 200; trial++ {
		n := int(next()) * 4
		data := make([]byte, n)
		for i := range data {
			data[i] = next()
		}
		// Prefix some with a valid header so record parsing is reached.
		if trial%2 == 0 && n > 20 {
			copy(data, magic)
			data[4] = version
			data[5] = 2
			data[6], data[7] = 'a', 'b'
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("trial %d panicked: %v", trial, r)
				}
			}()
			r, err := NewReader(bytes.NewReader(data))
			if err == nil && r.Len() > 0 {
				// Parsed by luck: replay must also be safe.
				var ins workload.Instr
				for i := 0; i < 10; i++ {
					r.Next(&ins)
				}
			}
		}()
	}
}

// hugeHintStream is a 21-byte stream whose header claims 2^26 records
// while its payload holds one 4-byte record.
func hugeHintStream() []byte {
	data := append([]byte(magic), version, 3, 'g', 'c', 'c')
	data = binary.LittleEndian.AppendUint64(data, 1<<26)
	return append(data, byte(workload.OpIntALU), 2, 0, 0)
}

// TestReaderHintBoundedByPayload pins that the untrusted count hint
// cannot make NewReader allocate beyond what the payload can hold.
func TestReaderHintBoundedByPayload(t *testing.T) {
	data := hugeHintStream()
	if len(data) != 21 {
		t.Fatalf("stream is %d bytes, want 21", len(data))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r, err := NewReader(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 {
		t.Fatalf("len = %d, want 1", r.Len())
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Errorf("reading a 21-byte stream allocated %d MiB, want under 1", alloc>>20)
	}
}

// FuzzReader: arbitrary bytes never panic the reader, and any stream it
// accepts re-encodes through Writer into a stream that reads back as the
// same records.
func FuzzReader(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadTrace) {
				t.Fatalf("error %v is not ErrBadTrace", err)
			}
			return
		}
		var buf bytes.Buffer
		w, err := NewWriter(&buf, r.Name(), uint64(r.Len()))
		if err != nil {
			t.Fatal(err)
		}
		for i := range r.records {
			if err := w.Write(&r.records[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		again, err := NewReader(&buf)
		if err != nil {
			t.Fatalf("re-encoded stream rejected: %v", err)
		}
		if again.Name() != r.Name() || !reflect.DeepEqual(again.records, r.records) {
			t.Fatalf("re-encoded stream reads back differently:\nfirst  %q %+v\nsecond %q %+v",
				r.Name(), r.records, again.Name(), again.records)
		}
	})
}
