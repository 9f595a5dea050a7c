// Package trace records and replays instruction streams in a compact
// binary format, decoupling workload generation from simulation: a stream
// synthesized once (or, in principle, converted from an external tracer)
// can be replayed bit-identically into the timing model, shared between
// tools, or archived alongside experiment results.
//
// Format (little-endian):
//
//	magic "HLTR", version byte, name length + name, uint64 count hint,
//	then per instruction: op byte, then uvarint-delta-encoded PC, two
//	uvarint source distances, and (for memory ops) a uvarint-delta
//	address, and (for CTIs) a taken flag folded into the op byte plus a
//	uvarint-delta target.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"hotleakage/internal/workload"
)

const (
	magic   = "HLTR"
	version = 1
	// takenBit is folded into the op byte for CTIs.
	takenBit = 0x80
	// minRecordBytes is the smallest encoded record: the op byte plus the
	// PC delta and two source distances, each a uvarint of at least one
	// byte.
	minRecordBytes = 4
)

// Writer serializes instructions to an underlying writer.
type Writer struct {
	w       *bufio.Writer
	count   uint64
	lastPC  uint64
	lastMem uint64
	lastTgt uint64
	buf     [binary.MaxVarintLen64]byte
}

// NewWriter writes a header for a trace named name (the benchmark) with an
// optional count hint (0 = unknown) and returns the writer.
func NewWriter(w io.Writer, name string, countHint uint64) (*Writer, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(magic); err != nil {
		return nil, err
	}
	if err := bw.WriteByte(version); err != nil {
		return nil, err
	}
	if len(name) > 255 {
		return nil, fmt.Errorf("trace: name %q too long", name)
	}
	if err := bw.WriteByte(byte(len(name))); err != nil {
		return nil, err
	}
	if _, err := bw.WriteString(name); err != nil {
		return nil, err
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint64(hdr[:], countHint)
	if _, err := bw.Write(hdr[:]); err != nil {
		return nil, err
	}
	return &Writer{w: bw}, nil
}

// zigzag encodes a signed delta as unsigned.
func zigzag(d int64) uint64 { return uint64(d<<1) ^ uint64(d>>63) }

// unzigzag decodes.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

func (w *Writer) uvarint(v uint64) error {
	n := binary.PutUvarint(w.buf[:], v)
	_, err := w.w.Write(w.buf[:n])
	return err
}

// Write appends one instruction.
func (w *Writer) Write(ins *workload.Instr) error {
	op := byte(ins.Op)
	if ins.Op.IsCTI() && ins.Taken {
		op |= takenBit
	}
	if err := w.w.WriteByte(op); err != nil {
		return err
	}
	if err := w.uvarint(zigzag(int64(ins.PC) - int64(w.lastPC))); err != nil {
		return err
	}
	w.lastPC = ins.PC
	if err := w.uvarint(uint64(uint32(ins.Src1))); err != nil {
		return err
	}
	if err := w.uvarint(uint64(uint32(ins.Src2))); err != nil {
		return err
	}
	if ins.Op.IsMem() {
		if err := w.uvarint(zigzag(int64(ins.Addr) - int64(w.lastMem))); err != nil {
			return err
		}
		w.lastMem = ins.Addr
	}
	if ins.Op.IsCTI() {
		if err := w.uvarint(zigzag(int64(ins.Target) - int64(w.lastTgt))); err != nil {
			return err
		}
		w.lastTgt = ins.Target
	}
	w.count++
	return nil
}

// Count returns the number of instructions written.
func (w *Writer) Count() uint64 { return w.count }

// Flush flushes buffered output; call it before closing the underlying
// file.
func (w *Writer) Flush() error { return w.w.Flush() }

// Reader replays a recorded trace. It implements cpu.InstrSource; when the
// trace is exhausted it wraps around (simulations run for a fixed
// instruction count, so a finite trace serves as a loop), counting laps.
type Reader struct {
	name    string
	records []workload.Instr
	pos     int
	// Laps counts wrap-arounds (0 while the first pass is in progress).
	Laps int
}

// ErrBadTrace reports a malformed trace stream.
var ErrBadTrace = errors.New("trace: malformed stream")

// header is the parsed fixed-size prelude of an encoded stream.
type header struct {
	name string
	hint uint64
	// size is the header's encoded length in bytes; the record payload
	// starts here.
	size int
}

// parseHeader validates the prelude of an encoded stream held in memory.
func parseHeader(data []byte) (header, error) {
	if len(data) < len(magic)+2 || string(data[:len(magic)]) != magic {
		return header{}, fmt.Errorf("%w: bad magic", ErrBadTrace)
	}
	if data[len(magic)] != version {
		return header{}, fmt.Errorf("%w: unsupported version", ErrBadTrace)
	}
	nameLen := int(data[len(magic)+1])
	off := len(magic) + 2
	if len(data) < off+nameLen+8 {
		return header{}, fmt.Errorf("%w: truncated header", ErrBadTrace)
	}
	h := header{
		name: string(data[off : off+nameLen]),
		hint: binary.LittleEndian.Uint64(data[off+nameLen:]),
		size: off + nameLen + 8,
	}
	return h, nil
}

// decoder walks the encoded record payload held in memory, reconstructing
// absolute PCs/addresses/targets from the deltas.
type decoder struct {
	data    []byte
	pos     int
	lastPC  uint64
	lastMem uint64
	lastTgt uint64
}

// uvarint reads one varint, advancing the cursor.
func (d *decoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.data[d.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: truncated record", ErrBadTrace)
	}
	d.pos += n
	return v, nil
}

// next decodes one instruction, setting every Instr field (non-memory ops
// get Addr 0, non-CTIs Taken=false/Target=0, matching a live generator).
// io.EOF reports a clean end of the payload.
func (d *decoder) next(ins *workload.Instr) error {
	if d.pos >= len(d.data) {
		return io.EOF
	}
	op := d.data[d.pos]
	d.pos++
	ins.Op = workload.OpClass(op &^ takenBit)
	delta, err := d.uvarint()
	if err != nil {
		return err
	}
	d.lastPC = uint64(int64(d.lastPC) + unzigzag(delta))
	ins.PC = d.lastPC
	s1, err := d.uvarint()
	if err != nil {
		return err
	}
	s2, err := d.uvarint()
	if err != nil {
		return err
	}
	ins.Src1, ins.Src2 = int32(uint32(s1)), int32(uint32(s2))
	ins.Addr = 0
	ins.Taken = false
	ins.Target = 0
	if ins.Op.IsMem() {
		dm, err := d.uvarint()
		if err != nil {
			return err
		}
		d.lastMem = uint64(int64(d.lastMem) + unzigzag(dm))
		ins.Addr = d.lastMem
	}
	if ins.Op.IsCTI() {
		ins.Taken = op&takenBit != 0
		dt, err := d.uvarint()
		if err != nil {
			return err
		}
		d.lastTgt = uint64(int64(d.lastTgt) + unzigzag(dt))
		ins.Target = d.lastTgt
	}
	return nil
}

// NewReader parses an entire trace into memory.
func NewReader(r io.Reader) (*Reader, error) {
	data, err := io.ReadAll(bufio.NewReader(r))
	if err != nil {
		return nil, err
	}
	h, err := parseHeader(data)
	if err != nil {
		return nil, err
	}
	rd := &Reader{name: h.name}
	payload := data[h.size:]
	// The count hint is untrusted input: the records themselves define the
	// length, and each takes at least minRecordBytes, so the payload size
	// bounds how many the hint may preallocate for.
	if n := min(h.hint, uint64(len(payload)/minRecordBytes)); n > 0 {
		rd.records = make([]workload.Instr, 0, n)
	}
	dec := decoder{data: payload}
	for {
		var ins workload.Instr
		err := dec.next(&ins)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		rd.records = append(rd.records, ins)
	}
	if len(rd.records) == 0 {
		return nil, fmt.Errorf("%w: empty trace", ErrBadTrace)
	}
	return rd, nil
}

// Name returns the recorded benchmark name.
func (r *Reader) Name() string { return r.name }

// Len returns the number of recorded instructions.
func (r *Reader) Len() int { return len(r.records) }

// Next implements cpu.InstrSource, wrapping around at the end.
func (r *Reader) Next(ins *workload.Instr) {
	*ins = r.records[r.pos]
	r.pos++
	if r.pos == len(r.records) {
		r.pos = 0
		r.Laps++
	}
}

// Record captures n instructions from any source into w.
func Record(src interface{ Next(*workload.Instr) }, w *Writer, n uint64) error {
	var ins workload.Instr
	for i := uint64(0); i < n; i++ {
		src.Next(&ins)
		if err := w.Write(&ins); err != nil {
			return err
		}
	}
	return w.Flush()
}
