// Package freelist holds capped lists of recycled storage: simplex
// workspaces and problems, milp models and encoders.
package freelist

import "sync"

// List is a capped list, not a sync.Pool: every garbage collection
// empties a sync.Pool, and a diagnosis runs several.
type List[T any] struct {
	mu   sync.Mutex
	free []T
}

// maxFree caps every list; what is put into a full list is dropped.
const maxFree = 8

// Get takes the most recently put element, or the zero value when the
// list is empty.
func (l *List[T]) Get() (t T) {
	l.mu.Lock()
	if k := len(l.free) - 1; k >= 0 {
		t, l.free = l.free[k], l.free[:k]
	}
	l.mu.Unlock()
	return t
}

// Put hands t back unless the list is full.
func (l *List[T]) Put(t T) {
	l.mu.Lock()
	if len(l.free) < maxFree {
		l.free = append(l.free, t)
	}
	l.mu.Unlock()
}
