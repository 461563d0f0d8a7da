package telemetry

import (
	"cmp"
	"slices"
)

// logChunk is the number of records per RecordLog chunk.
const logChunk = 1024

// RecordLog is an append-only record list kept in chunks of logChunk
// records, so growing it never copies or moves a record: a serve's tens
// of thousands of records cost one allocation per chunk instead of a
// slice that is reallocated and copied as it grows. The zero value is
// empty and ready to use. It is not safe for concurrent use.
type RecordLog struct {
	// chunks are full but for the last; only the first grows by append
	// (a short trace never allocates a whole chunk).
	chunks [][]Record
}

// Append adds r at the end.
func (l *RecordLog) Append(r Record) {
	k := len(l.chunks) - 1
	if k < 0 || len(l.chunks[k]) == logChunk {
		c := make([]Record, 0, logChunk)
		if k < 0 {
			c = make([]Record, 0, 16)
		}
		l.chunks = append(l.chunks, c)
		k++
	}
	l.chunks[k] = append(l.chunks[k], r)
}

// Len returns the number of records.
func (l *RecordLog) Len() int {
	k := len(l.chunks) - 1
	if k < 0 {
		return 0
	}
	return k*logChunk + len(l.chunks[k])
}

// At returns the i-th record. The record must not be changed.
func (l *RecordLog) At(i int) *Record { return &l.chunks[i/logChunk][i%logChunk] }

// Sort stable-sorts the log in place into SortRecords order.
func (l *RecordLog) Sort() { sortInPlace(l.Len(), l.At) }

// snapshot returns a log that shares l's records as they are now.
// Appending never changes a record already in the log, so the snapshot
// can be read while l keeps growing (but not while l is sorted).
func (l *RecordLog) snapshot() RecordLog {
	return RecordLog{chunks: slices.Clone(l.chunks)}
}

// orderKey is a record's T0 and position, the sort key order uses.
type orderKey struct {
	t0  float64
	pos int32
}

// order returns the positions 0..n-1 of the records at returns, in
// SortRecords order. It sorts (T0, position) keys, so most comparisons
// touch no record: a record is looked up only when two T0s tie (or one
// is NaN). Full ties are broken by position, which makes the order
// stable.
func order(n int, at func(int) *Record) []orderKey {
	keys := make([]orderKey, n)
	for i := range keys {
		keys[i] = orderKey{at(i).T0, int32(i)}
	}
	slices.SortFunc(keys, func(a, b orderKey) int {
		switch {
		case a.t0 < b.t0:
			return -1
		case a.t0 > b.t0:
			return 1
		}
		if c := compareRecords(at(int(a.pos)), at(int(b.pos))); c != 0 {
			return c
		}
		return cmp.Compare(a.pos, b.pos)
	})
	return keys
}

// sortInPlace stable-sorts the n records at returns into SortRecords
// order, moving each record once: the permutation is applied one cycle
// at a time, position j taking the record at idx[j].pos, and a placed
// position's index is marked -1.
func sortInPlace(n int, at func(int) *Record) {
	idx := order(n, at)
	for i := range idx {
		if idx[i].pos < 0 {
			continue
		}
		first, j := *at(i), i
		for {
			k := int(idx[j].pos)
			idx[j].pos = -1
			if k == i {
				*at(j) = first
				break
			}
			*at(j) = *at(k)
			j = k
		}
	}
}
