package cache

import (
	"fmt"
	"math/bits"
)

// A line's state is one tag word and one LRU rank. The word holds the
// valid flag in bit 31, the dirty flag in bit 30 and the tag in the low
// tagBits bits; a tag is an address shifted right by its line-offset and
// set-index bits. Locate refuses an address whose tag needs more bits
// rather than alias it to another line's. An invalid line's word is 0.
const (
	lineValid uint32 = 1 << 31
	lineDirty uint32 = 1 << 30
	tagBits          = 30

	// minIndexBits is the fewest line-offset plus set-index bits a
	// geometry may have (Validate): with them a tag covers every 32-bit
	// address.
	minIndexBits = 32 - tagBits

	// maxAssoc is the most ways a one-byte rank can order.
	maxAssoc = 256
)

// Lines is the line store every cache level is built on: a set-associative
// array of tag words and LRU ranks with the lookup, replacement and
// write-back address rules. A Cache and a leakage-controlled L1 (package
// leakctl) keep their lines here and add only their own bookkeeping.
//
// Lines are numbered 0..Len()-1, row-major by set; a set's lines are
// [base, base+assoc) for the base Locate returns. Each line's rank is 0
// for the most recently used line of its set and assoc-1 for the least,
// so a set's ranks are always a permutation of 0..assoc-1.
type Lines struct {
	tags      []uint32
	ranks     []uint8
	assoc     int
	setMask   uint64
	setBits   uint
	lineShift uint
}

// NewLines allocates the line store of a valid geometry, every line
// invalid.
func NewLines(cfg Config) Lines {
	sets := cfg.Sets()
	l := Lines{
		tags:      make([]uint32, sets*cfg.Assoc),
		ranks:     make([]uint8, sets*cfg.Assoc),
		assoc:     cfg.Assoc,
		setMask:   uint64(sets - 1),
		setBits:   uint(bits.TrailingZeros(uint(sets))),
		lineShift: uint(bits.TrailingZeros(uint(cfg.LineBytes))),
	}
	// Way j of every set starts at rank j: rank the first set, then copy
	// it over the rest, doubling. A per-line i % assoc made this loop most
	// of the cost of building a lane's machine.
	for j := range cfg.Assoc {
		l.ranks[j] = uint8(j)
	}
	for n := cfg.Assoc; n < len(l.ranks); n *= 2 {
		copy(l.ranks[n:], l.ranks[:n])
	}
	return l
}

// Len returns the number of lines.
func (l *Lines) Len() int { return len(l.tags) }

// Clear invalidates every line. The ranks stay: a set of invalid lines
// fills by line index, whatever its ranks.
func (l *Lines) Clear() { clear(l.tags) }

// Locate returns the first line of addr's set and addr's tag. It panics
// if the tag needs more than tagBits bits.
func (l *Lines) Locate(addr uint64) (base int, tag uint32) {
	la := addr >> l.lineShift
	t := la >> l.setBits
	if t>>tagBits != 0 {
		panic(wideTagError(addr))
	}
	return int(la&l.setMask) * l.assoc, uint32(t)
}

// wideTagError is the address Locate refused: its tag needs more than
// the 30 bits a line's tag word holds.
type wideTagError uint64

func (e wideTagError) Error() string {
	return fmt.Sprintf("cache: address %#x has a tag wider than %d bits", uint64(e), tagBits)
}

// Find returns the valid line of the set starting at base that holds tag,
// or -1.
func (l *Lines) Find(base int, tag uint32) int {
	want := tag | lineValid
	for i, w := range l.tags[base : base+l.assoc] {
		if w&^lineDirty == want {
			return base + i
		}
	}
	return -1
}

// Touch makes line i the most recently used of the set starting at base:
// it takes rank 0, and every line used more recently than it was ages by
// one. The least recently used line therefore always holds rank assoc-1.
func (l *Lines) Touch(base, i int) {
	ranks := l.ranks[base : base+l.assoc]
	r := l.ranks[i]
	if r == 0 {
		return
	}
	for j, q := range ranks {
		if q < r {
			ranks[j] = q + 1
		}
	}
	l.ranks[i] = 0
}

// Victim returns the line a fill of the set starting at base replaces:
// the first invalid line, else the least recently used one.
func (l *Lines) Victim(base int) int {
	for i, w := range l.tags[base : base+l.assoc] {
		if w&lineValid == 0 {
			return base + i
		}
	}
	lru := uint8(l.assoc - 1)
	for i, r := range l.ranks[base : base+l.assoc] {
		if r == lru {
			return base + i
		}
	}
	panic("cache: a set's ranks are not a permutation")
}

// Fill installs tag in line i of the set starting at base, dirty or clean,
// and makes it the set's most recently used line.
func (l *Lines) Fill(base, i int, tag uint32, dirty bool) {
	w := tag | lineValid
	if dirty {
		w |= lineDirty
	}
	l.tags[i] = w
	l.Touch(base, i)
}

// Valid reports whether line i holds a line.
func (l *Lines) Valid(i int) bool { return l.tags[i]&lineValid != 0 }

// Dirty reports whether line i holds modified data.
func (l *Lines) Dirty(i int) bool { return l.tags[i]&lineDirty != 0 }

// SetDirty marks valid line i modified (dirty) or clean.
func (l *Lines) SetDirty(i int, dirty bool) {
	if dirty {
		l.tags[i] |= lineDirty
	} else {
		l.tags[i] &^= lineDirty
	}
}

// Rank returns line i's LRU rank: 0 for its set's most recently used line,
// assoc-1 for the least.
func (l *Lines) Rank(i int) int { return int(l.ranks[i]) }

// Addr returns the address of valid line i's first byte, where a write-back
// of the line goes.
func (l *Lines) Addr(i int) uint64 {
	tag := uint64(l.tags[i] &^ (lineValid | lineDirty))
	set := uint64(i / l.assoc)
	return ((tag << l.setBits) | set) << l.lineShift
}
