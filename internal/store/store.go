// Package store is the daemon's content-addressed result store. Each
// simulation cell — machine config, technique, decay interval, benchmark,
// instruction budget and checkpoint version — is canonically serialized
// and hashed; the hash addresses the cell's result forever, so a repeated
// or overlapping sweep is served from disk instead of re-simulated. This
// generalizes the sweep-level trace cache and the harness checkpoint from
// "within one process" to "across every request the daemon ever served".
//
// # On-disk layout
//
//	<dir>/seg-000001.jsonl   result segments: {"h":..,"k":..,"v":..,"t":..}
//	<dir>/seg-000002.jsonl   lines (appended; rotated at SegmentMaxBytes)
//	<dir>/meta.jsonl         meta segment: {"m":..,"v":..} lines, last wins
//
// Segments are append-only JSON lines, synced per record like the harness
// checkpoint, so a crash loses at most the record being written. Open
// rebuilds the in-memory index by scanning the segments. Damage is
// handled per record, not per segment: a complete line that fails to
// parse is quarantined — counted, logged, and skipped, with every valid
// record before and after it kept — while an incomplete final line is a
// torn write of a never-acknowledged record and is truncated from the
// append segment so new writes start on a clean boundary.
//
// Values are not held in memory: the index maps hash -> (segment, offset,
// length) and Get reads the record back with one pread, so the store's
// resident size is bounded by the index, not the corpus.
//
// Growth is bounded by GC (see gc.go): records carry a write timestamp,
// and crash-safe compaction rewrites live records into a fresh segment
// before atomically renaming it into place.
//
// All file I/O is routed through the FS interface (see fs.go) so the
// chaos suite can inject disk faults at every operation.
package store

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
	"unicode/utf8"

	"hotleakage/internal/obs"
)

// CanonicalHash hashes v's canonical JSON form: the value is marshalled,
// decoded into generic maps and re-encoded (Go sorts map keys), so two
// representations that differ only in field order — a reordered struct
// declaration, a hand-written request document — hash identically. The
// hash is hex SHA-256.
func CanonicalHash(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("store: marshal for hash: %w", err)
	}
	canon, err := Canonicalize(b)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(canon)
	return hex.EncodeToString(sum[:]), nil
}

// Canonicalize re-encodes a JSON document with object keys sorted at every
// level, the byte form CanonicalHash digests. Numbers pass through as
// their literals: decoding them as float64 would round integers above
// 2^53, and two cells differing only there would share a hash.
func Canonicalize(doc []byte) ([]byte, error) {
	dec := json.NewDecoder(bytes.NewReader(doc))
	dec.UseNumber()
	var v any
	err := dec.Decode(&v)
	if err == nil {
		if _, terr := dec.Token(); terr != io.EOF {
			err = fmt.Errorf("trailing data after the document")
		}
	}
	if err != nil {
		return nil, fmt.Errorf("store: canonicalize: %w", err)
	}
	canon, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("store: canonicalize: %w", err)
	}
	return canon, nil
}

// segRecord is the on-disk framing of one result line. T is the write
// time (unix seconds), the input to TTL GC; records from before it
// existed decode as T=0 and so are the first to expire.
type segRecord struct {
	Hash  string          `json:"h"`
	Key   json.RawMessage `json:"k,omitempty"`
	Value json.RawMessage `json:"v"`
	T     int64           `json:"t,omitempty"`
}

// metaRecord is the on-disk framing of one meta-segment line.
type metaRecord struct {
	Name  string          `json:"m"`
	Value json.RawMessage `json:"v"`
}

// Record is one stored result: the cell's canonical key document and its
// value, both raw JSON exactly as first persisted (content addressing
// means the bytes for a hash never change).
type Record struct {
	Hash  string          `json:"hash"`
	Key   json.RawMessage `json:"key,omitempty"`
	Value json.RawMessage `json:"value"`
}

// loc addresses one record inside a segment file.
type loc struct {
	seg    int // index into Store.segs
	offset int64
	length int64
	t      int64 // write time, unix seconds
}

// segment is one open result file. poisoned marks an append segment whose
// post-failure repair failed: its on-disk tail no longer lines up with
// size, so no further appends may land in it (see repairAppendLocked).
type segment struct {
	path     string
	f        File
	size     int64
	poisoned bool
}

// Options configures OpenOptions beyond the defaults Open uses.
type Options struct {
	// FS routes the store's file I/O; nil means OSFS.
	FS FS
	// SegmentMaxBytes rotates the append segment once it grows past this
	// size; 0 means DefaultSegmentMaxBytes.
	SegmentMaxBytes int64
	// Now supplies write timestamps (and the GC clock); nil means
	// time.Now. Tests inject a fake clock to exercise TTL expiry.
	Now func() time.Time
	// Logf receives quarantine and GC log lines; nil means log.Printf.
	Logf func(format string, args ...any)
}

// Store is the content-addressed result store. Safe for concurrent use.
type Store struct {
	dir string

	// SegmentMaxBytes rotates the append segment once it grows past this
	// size (default 64 MiB). Mutate only before concurrent use.
	SegmentMaxBytes int64

	fs   FS
	now  func() time.Time
	logf func(format string, args ...any)

	mu          sync.Mutex
	segs        []*segment
	index       map[string]loc
	meta        map[string]json.RawMessage
	metaF       File
	nextSeq     int // sequence number for the next rotated segment
	torn        int // incomplete final lines found at open time
	quarantined int // corrupt complete lines skipped at open time
	closed      bool
}

// DefaultSegmentMaxBytes is the rotation threshold for result segments.
const DefaultSegmentMaxBytes = 64 << 20

var obsQuarantined = obs.Default.Counter(obs.MetricStoreQuarantined)

// Open opens (creating if necessary) the store rooted at dir and rebuilds
// the index from its segments.
func Open(dir string) (*Store, error) {
	return OpenOptions(dir, Options{})
}

// OpenOptions is Open with explicit wiring — a fault-injecting FS, a test
// clock, a capture logger.
func OpenOptions(dir string, o Options) (*Store, error) {
	if o.FS == nil {
		o.FS = OSFS{}
	}
	if o.SegmentMaxBytes <= 0 {
		o.SegmentMaxBytes = DefaultSegmentMaxBytes
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	if o.Logf == nil {
		o.Logf = log.Printf
	}
	if err := o.FS.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		dir:             dir,
		SegmentMaxBytes: o.SegmentMaxBytes,
		fs:              o.FS,
		now:             o.Now,
		logf:            o.Logf,
		index:           make(map[string]loc),
		meta:            make(map[string]json.RawMessage),
		nextSeq:         1,
	}
	names, err := s.fs.Glob(filepath.Join(dir, "seg-*.jsonl"))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	sort.Strings(names) // zero-padded sequence numbers sort chronologically
	for i, name := range names {
		if seq, ok := segSeq(name); ok && seq >= s.nextSeq {
			s.nextSeq = seq + 1
		}
		if err := s.openSegment(name, i == len(names)-1); err != nil {
			s.closeAll()
			return nil, err
		}
	}
	if len(s.segs) == 0 {
		if err := s.rotateLocked(); err != nil {
			s.closeAll()
			return nil, err
		}
	}
	if err := s.loadMeta(); err != nil {
		s.closeAll()
		return nil, err
	}
	return s, nil
}

// segSeq extracts the sequence number from a segment path.
func segSeq(path string) (int, bool) {
	base := filepath.Base(path)
	base = strings.TrimPrefix(base, "seg-")
	base = strings.TrimSuffix(base, ".jsonl")
	n, err := strconv.Atoi(base)
	if err != nil || n <= 0 {
		return 0, false
	}
	return n, true
}

// openSegment scans one segment into the index, quarantining per record:
// a complete line that fails to parse is counted and skipped, and the
// scan continues — records after the damage survive. An incomplete final
// line is a torn write of a record nobody was ever promised (Put syncs
// before acknowledging); on the append segment (last) it is truncated
// away so the next append starts a valid line.
func (s *Store) openSegment(path string, last bool) error {
	f, err := s.fs.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	segIdx := len(s.segs)
	br := bufio.NewReaderSize(f, 1<<20)
	var pos int64 // offset just past the last complete line
	for {
		line, err := br.ReadBytes('\n')
		if err == io.EOF {
			if len(line) > 0 {
				// Torn final line: no trailing newline, so the write that
				// produced it never completed (and was never acked).
				s.torn++
				s.logf("store: dropping torn tail of %s (%d bytes at offset %d)",
					filepath.Base(path), len(line), pos)
				if last {
					if terr := f.Truncate(pos); terr != nil {
						f.Close()
						return fmt.Errorf("store: truncate torn tail of %s: %w", path, terr)
					}
				}
			}
			break
		}
		if err != nil {
			f.Close()
			return fmt.Errorf("store: scan %s: %w", path, err)
		}
		body := bytes.TrimSuffix(line, []byte("\n"))
		var rec segRecord
		// Records are json.Marshal output, which is always valid UTF-8;
		// an invalid byte is bit rot the (lenient) JSON decoder would
		// otherwise let through silently.
		if jerr := json.Unmarshal(body, &rec); jerr != nil || rec.Hash == "" || rec.Value == nil ||
			!utf8.Valid(body) {
			// Complete but unparseable: quarantine this record only.
			s.quarantined++
			obsQuarantined.Add(1)
			s.logf("store: quarantined corrupt record in %s at offset %d (%d bytes)",
				filepath.Base(path), pos, len(body))
			pos += int64(len(line))
			continue
		}
		if _, dup := s.index[rec.Hash]; !dup {
			s.index[rec.Hash] = loc{seg: segIdx, offset: pos, length: int64(len(body)), t: rec.T}
		}
		pos += int64(len(line))
	}
	size := pos
	if !last {
		// A sealed segment keeps its torn bytes on disk (compaction will
		// shed them); account its true size for GC arithmetic.
		if st, err := f.Stat(); err == nil {
			size = st.Size()
		}
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return fmt.Errorf("store: %w", err)
	}
	s.segs = append(s.segs, &segment{path: path, f: f, size: size})
	return nil
}

// loadMeta replays the meta segment (last record per name wins; a torn
// tail is dropped) and leaves the file open for appends.
func (s *Store) loadMeta() error {
	path := filepath.Join(s.dir, "meta.jsonl")
	f, err := s.fs.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	var offset, good int64
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	for sc.Scan() {
		line := sc.Bytes()
		var rec metaRecord
		if err := json.Unmarshal(line, &rec); err != nil || rec.Name == "" {
			break
		}
		s.meta[rec.Name] = append(json.RawMessage(nil), rec.Value...)
		offset += int64(len(line)) + 1
		good = offset
	}
	if st, err := f.Stat(); err == nil && good < st.Size() {
		if err := f.Truncate(good); err != nil {
			f.Close()
			return fmt.Errorf("store: truncate meta tail: %w", err)
		}
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return fmt.Errorf("store: %w", err)
	}
	s.metaF = f
	return nil
}

// rotateLocked opens a fresh append segment under the next monotonic
// sequence number (sequence numbers are never reused, even after GC
// removes old segments). Caller holds s.mu (or has exclusive access
// during Open).
func (s *Store) rotateLocked() error {
	path := filepath.Join(s.dir, fmt.Sprintf("seg-%06d.jsonl", s.nextSeq))
	f, err := s.fs.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.nextSeq++
	s.segs = append(s.segs, &segment{path: path, f: f})
	return nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Len returns the number of indexed cells.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Bytes returns the total size of the result segments on disk.
func (s *Store) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytesLocked()
}

func (s *Store) bytesLocked() int64 {
	var total int64
	for _, seg := range s.segs {
		total += seg.size
	}
	return total
}

// Skipped returns how many records were lost to corruption at open time:
// torn tails plus quarantined records.
func (s *Store) Skipped() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.torn + s.quarantined
}

// Quarantined returns how many complete-but-corrupt records open-time
// recovery skipped (a subset of Skipped; the rest were torn tails).
func (s *Store) Quarantined() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.quarantined
}

// Has reports whether hash is stored.
func (s *Store) Has(hash string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.index[hash]
	return ok
}

// Get returns the stored record for hash. The read happens outside the
// lock; if a concurrent GC compacted the segment out from under it (the
// file handle reads as closed), one retry against the rebuilt index
// resolves the record at its new location.
func (s *Store) Get(hash string) (Record, bool, error) {
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		s.mu.Lock()
		l, ok := s.index[hash]
		if !ok || s.closed {
			s.mu.Unlock()
			return Record{}, false, nil
		}
		f := s.segs[l.seg].f
		s.mu.Unlock()

		buf := make([]byte, l.length)
		if _, err := f.ReadAt(buf, l.offset); err != nil {
			lastErr = fmt.Errorf("store: read %s: %w", hash, err)
			continue
		}
		var rec segRecord
		if err := json.Unmarshal(buf, &rec); err != nil {
			lastErr = fmt.Errorf("store: decode %s: %w", hash, err)
			continue
		}
		if rec.Hash != hash {
			// A content-addressed store must never pass off a record that
			// parses but isn't the one asked for — this is index/file
			// misalignment or bit rot, and an error, not a result.
			lastErr = fmt.Errorf("store: get %s: read record %s (index/file misalignment)", hash, rec.Hash)
			continue
		}
		return Record{Hash: rec.Hash, Key: rec.Key, Value: rec.Value}, true, nil
	}
	return Record{}, false, lastErr
}

// Put persists a record under hash. key (may be nil) is the canonical
// cell-identity document, stored alongside the value for auditability. A
// hash already present is left untouched — content addressing makes the
// first write authoritative — and Put reports nil.
func (s *Store) Put(hash string, key, value any) error {
	if hash == "" {
		return fmt.Errorf("store: empty hash")
	}
	var kb json.RawMessage
	if key != nil {
		b, err := json.Marshal(key)
		if err != nil {
			return fmt.Errorf("store: marshal key for %s: %w", hash, err)
		}
		kb = b
	}
	vb, err := json.Marshal(value)
	if err != nil {
		return fmt.Errorf("store: marshal value for %s: %w", hash, err)
	}
	t := s.now().Unix()
	line, err := json.Marshal(segRecord{Hash: hash, Key: kb, Value: vb, T: t})
	if err != nil {
		return fmt.Errorf("store: frame %s: %w", hash, err)
	}
	line = append(line, '\n')

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: closed")
	}
	if _, dup := s.index[hash]; dup {
		return nil
	}
	seg := s.segs[len(s.segs)-1]
	if seg.poisoned || (seg.size > 0 && seg.size+int64(len(line)) > s.SegmentMaxBytes) {
		if err := s.rotateLocked(); err != nil {
			return err
		}
		seg = s.segs[len(s.segs)-1]
	}
	if _, err := seg.f.Write(line); err != nil {
		s.repairAppendLocked(seg)
		return fmt.Errorf("store: append %s: %w", hash, err)
	}
	if err := seg.f.Sync(); err != nil {
		s.repairAppendLocked(seg)
		return fmt.Errorf("store: sync %s: %w", hash, err)
	}
	s.index[hash] = loc{seg: len(s.segs) - 1, offset: seg.size, length: int64(len(line)) - 1, t: t}
	seg.size += int64(len(line))
	return nil
}

// repairAppendLocked puts the append segment back on a record boundary
// after a failed append. The failed record was never acknowledged, so
// losing it is fine — but its orphaned or torn bytes sit past seg.size
// with the file offset advanced beyond them, so without repair the next
// successful Put would land after the debris while being indexed at
// seg.size: Get would serve wrong bytes for an acknowledged record, and
// the debris could merge with the new line into one unparseable record
// that reopen quarantines. Truncating to seg.size and seeking back
// restores the offset invariant the index depends on. If the repair
// itself fails the segment is poisoned instead: its indexed records stay
// readable (ReadAt is offset-addressed), but the next Put rotates to a
// fresh segment rather than append past the damage.
func (s *Store) repairAppendLocked(seg *segment) {
	err := seg.f.Truncate(seg.size)
	if err == nil {
		_, err = seg.f.Seek(seg.size, io.SeekStart)
	}
	if err == nil {
		return
	}
	seg.poisoned = true
	s.logf("store: poisoning append segment %s (repair after failed append: %v); will rotate",
		filepath.Base(seg.path), err)
}

// PutMeta stores a named non-cell document (e.g. the harness cost model)
// in the meta segment. Later writes under the same name win on reload.
func (s *Store) PutMeta(name string, v any) error {
	if name == "" || strings.ContainsRune(name, '\n') {
		return fmt.Errorf("store: bad meta name %q", name)
	}
	vb, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("store: marshal meta %s: %w", name, err)
	}
	line, err := json.Marshal(metaRecord{Name: name, Value: vb})
	if err != nil {
		return fmt.Errorf("store: frame meta %s: %w", name, err)
	}
	line = append(line, '\n')
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: closed")
	}
	if _, err := s.metaF.Write(line); err != nil {
		return fmt.Errorf("store: append meta %s: %w", name, err)
	}
	if err := s.metaF.Sync(); err != nil {
		return fmt.Errorf("store: sync meta %s: %w", name, err)
	}
	s.meta[name] = vb
	return nil
}

// GetMeta decodes the named meta document into v, reporting whether it
// exists.
func (s *Store) GetMeta(name string, v any) (bool, error) {
	s.mu.Lock()
	raw, ok := s.meta[name]
	s.mu.Unlock()
	if !ok {
		return false, nil
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return false, fmt.Errorf("store: decode meta %s: %w", name, err)
	}
	return true, nil
}

// closeAll closes every open file without locking (Open-failure path).
func (s *Store) closeAll() {
	for _, seg := range s.segs {
		if seg.f != nil {
			seg.f.Close()
		}
	}
	if s.metaF != nil {
		s.metaF.Close()
	}
}

// Close closes the backing files. Further reads and writes fail.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var first error
	for _, seg := range s.segs {
		if err := seg.f.Close(); err != nil && first == nil {
			first = err
		}
	}
	if s.metaF != nil {
		if err := s.metaF.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
