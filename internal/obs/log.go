package obs

import (
	"iter"
	"unsafe"
)

// Block sizes of a Log, in bytes: the first block is small so a short run
// (one journey, a unit test) stays small, and each later block doubles up
// to the cap, the largest allocation Go still serves from its size-classed
// spans.
const (
	logFirstBlockBytes = 1 << 10
	logMaxBlockBytes   = 32 << 10
)

// Log is an append-only log of records held in blocks: the recorder's span
// and outcome storage, and the trace the analyzer reads. Appending never
// moves a record, so a log of N records allocates about N records plus one
// block and the block index, where a growing slice copies each record
// several times on the way up and keeps the largest copy. The recorder's
// Reset empties its logs and keeps every block for reuse.
//
// A Log value is a view of its first Len records: copying one (Recorder.Spans
// does) aliases the blocks without copying records, the way copying a slice
// header does, and the copy does not see later appends. As with a slice,
// appending to both a log and its copy lets them overwrite each other's
// records. The zero value is an empty log ready to use.
type Log[T any] struct {
	blocks [][]T // each block at full length; records fill them in order
	n      int   // records held
	tail   int   // block the next record goes to
	off    int   // records already in blocks[tail]

	// spill, when set, receives the records held, block by block in order,
	// each time they fill a block; the log then starts over in its first
	// block, so it holds at most the blocks it has however many records
	// pass through. spill must be done with a block when it returns: the
	// log overwrites it next. Recorder.SpillSpans mounts it.
	spill func([]T)
}

// Append adds v after the last record.
func (l *Log[T]) Append(v T) {
	if l.tail == len(l.blocks) {
		l.blocks = append(l.blocks, make([]T, logBlockLen[T](len(l.blocks))))
	}
	b := l.blocks[l.tail]
	b[l.off] = v
	l.off++
	l.n++
	if l.off < len(b) {
		return
	}
	l.off = 0
	if l.spill == nil {
		l.tail++
		return
	}
	for _, full := range l.blocks[:l.tail+1] {
		l.spill(full)
	}
	l.tail, l.n = 0, 0
}

// logBlockLen is the record count of block i: the first block's bytes,
// doubled per block up to the cap, at least one record.
func logBlockLen[T any](i int) int {
	bytes := logFirstBlockBytes
	for ; i > 0 && bytes < logMaxBlockBytes; i-- {
		bytes *= 2
	}
	var zero T
	return max(bytes/max(int(unsafe.Sizeof(zero)), 1), 1)
}

// reset empties the log and keeps its blocks for the next records, first
// handing the records held to poison block by block (see poison_debug.go).
// A plain loop, not Blocks: the iterator's closures escape when a caller
// inlines, and the recorder's Reset must not allocate.
func (l *Log[T]) reset(poison func([]T)) {
	left := l.n
	for _, b := range l.blocks[:min(l.tail+1, len(l.blocks))] {
		k := min(left, len(b))
		poison(b[:k])
		left -= k
	}
	l.n, l.tail, l.off = 0, 0, 0
}

// Len returns the number of records held.
func (l Log[T]) Len() int { return l.n }

// Blocks yields the records held, one block's worth at a time, in order.
// Each yielded slice aliases the log's storage.
func (l Log[T]) Blocks() iter.Seq[[]T] {
	return func(yield func([]T) bool) {
		left := l.n
		for _, b := range l.blocks {
			if left == 0 {
				return
			}
			b = b[:min(left, len(b))]
			left -= len(b)
			if !yield(b) {
				return
			}
		}
	}
}

// All yields the records held, in append order.
func (l Log[T]) All() iter.Seq[T] {
	return func(yield func(T) bool) {
		for b := range l.Blocks() {
			for _, v := range b {
				if !yield(v) {
					return
				}
			}
		}
	}
}

// capBytes is the storage the log holds: every block's capacity, used or
// not.
func (l Log[T]) capBytes() int64 {
	var zero T
	n := 0
	for _, b := range l.blocks {
		n += len(b)
	}
	return int64(n) * int64(unsafe.Sizeof(zero))
}
