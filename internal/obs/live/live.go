// Package live publishes a list that one goroutine grows to readers on
// other goroutines, without locks and without copying the list on every
// append. The SLO window and energy collectors use it for the sealed
// summaries that live introspection polls mid-run.
package live

import "sync/atomic"

// View is an append-only list with a published snapshot. Append and
// Reset belong to the one goroutine that owns the list; Load may be
// called from any goroutine at any time.
//
// A slot that Load can have returned is never written again, so readers
// share the backing array with the owner. Append writes only past the
// published length, and an append past the capacity moves to a new
// array and leaves the old one to the views that hold it. The published
// slice is full (len == cap), so a reader that appends to it gets its
// own array. Reset always starts a new array.
type View[T any] struct {
	buf []T
	pub atomic.Pointer[[]T]
}

// Append adds x to the list and publishes the list including it.
func (v *View[T]) Append(x T) {
	v.buf = append(v.buf, x)
	v.publish()
}

// Reset replaces the list with a copy of from and publishes it. Views
// loaded before the reset keep what they held.
func (v *View[T]) Reset(from []T) {
	v.buf = append([]T(nil), from...)
	v.publish()
}

// Load returns the list as last published, or nil before the first
// Append or Reset. The caller must not write its elements.
func (v *View[T]) Load() []T {
	if p := v.pub.Load(); p != nil {
		return *p
	}
	return nil
}

func (v *View[T]) publish() {
	view := v.buf[:len(v.buf):len(v.buf)]
	v.pub.Store(&view)
}
