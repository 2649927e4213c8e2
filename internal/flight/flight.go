// Package flight coalesces concurrent calls for the same key: the first
// caller becomes the leader and runs the work; every caller arriving while
// that flight is live blocks on its outcome and shares it, result and
// error alike. When the flight lands the key is retired, so a later call
// runs afresh — by then usually a fast already-done check — instead of
// pinning a stale result.
//
// The store coalesces concurrent installs of one full hash with it; the
// service daemon coalesces whole request pipelines (concretize-and-build,
// plan-and-splice) across remote clients.
package flight

import "sync"

// A Group holds the live flights of one kind of work. The zero value is
// ready to use.
type Group[T any] struct {
	mu sync.Mutex
	m  map[string]*call[T]
}

type call[T any] struct {
	done chan struct{}
	out  T
	err  error
}

// Do runs fn under the key's flight and returns its outcome. shared
// reports whether this call waited on a leader started by someone else
// instead of running fn itself.
func (g *Group[T]) Do(key string, fn func() (T, error)) (out T, shared bool, err error) {
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[string]*call[T])
	}
	if c, ok := g.m[key]; ok {
		g.mu.Unlock()
		<-c.done
		return c.out, true, c.err
	}
	c := &call[T]{done: make(chan struct{})}
	g.m[key] = c
	g.mu.Unlock()

	c.out, c.err = fn()

	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	close(c.done)
	return c.out, false, c.err
}
