package sim

// Timers is a component's list of pending timed events: values that fall
// due at a cycle and fire in insertion order. It backs the fixed-latency
// completions of the cores and caches. The zero value is empty; Fire swaps
// between two retained buffers, so steady state allocates nothing.
type Timers[T any] struct {
	ev, spare []timer[T]
}

type timer[T any] struct {
	at uint64
	v  T
}

// Add schedules v to fire at cycle at.
//
//ar:hotpath
func (t *Timers[T]) Add(at uint64, v T) {
	t.ev = append(t.ev, timer[T]{at, v}) //ar:exempt(hotpath) append into a retained buffer whose capacity is reused across ticks
}

// Len reports the pending event count.
func (t *Timers[T]) Len() int { return len(t.ev) }

// At returns the i-th pending event, in the order Fire would visit it.
func (t *Timers[T]) At(i int) (at uint64, v T) { return t.ev[i].at, t.ev[i].v }

// Next reports now when some event is due by now, else the earliest
// pending event's cycle, or Never when none is pending: the NextWork hint
// of a component whose only other work comes from outside.
func (t *Timers[T]) Next(now uint64) uint64 {
	next := Never
	for _, e := range t.ev {
		if e.at <= now {
			return now
		}
		next = min(next, e.at)
	}
	return next
}

// Fire calls fn(v, cycle) for every event due by cycle that was pending
// when Fire began, in insertion order, and keeps the others. An event fn
// adds goes after the events kept so far and fires in a later call.
//
//ar:hotpath
func (t *Timers[T]) Fire(cycle uint64, fn func(v T, cycle uint64)) {
	if len(t.ev) == 0 {
		return
	}
	due := t.ev
	t.ev = t.spare[:0]
	for _, e := range due {
		if e.at <= cycle {
			fn(e.v, cycle)
		} else {
			t.ev = append(t.ev, e) //ar:exempt(hotpath) append into a retained buffer whose capacity is reused across ticks
		}
	}
	t.spare = due[:0]
}
