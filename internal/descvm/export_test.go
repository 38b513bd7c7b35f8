package descvm

import "smoothproc/internal/trace"

// Steps returns the pops and pushes the session's next evaluation based
// at u takes: the spine steps from its frame's base to u through their
// common ancestor.
func (s *Session) Steps(u trace.Trace) int {
	a, b, d := s.fr.base, u, 0
	for ; !a.Same(b); d++ {
		if a.Len() >= b.Len() {
			a = a.Take(a.Len() - 1)
		} else {
			b = b.Take(b.Len() - 1)
		}
	}
	return d
}
