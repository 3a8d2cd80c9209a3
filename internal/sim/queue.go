package sim

// Compact returns queue q with its head at head, dropping the consumed
// prefix once it outweighs the rest, so a head-indexed queue that never
// drains (credits under a credit delay of 2 or more, a backlogged source or
// destination) stays proportional to what it holds. A compaction copies
// fewer entries than were popped since the last one.
func Compact[T any](q []T, head int) ([]T, int) {
	if head > len(q)-head {
		n := copy(q, q[head:])
		return q[:n], 0
	}
	return q, head
}
