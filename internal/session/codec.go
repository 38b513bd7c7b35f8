// Session serialization. A session persists as one record: a short
// header (the record version and the session key) followed by its
// checkpoint blob, unchanged, as the solver codec wrote it. The
// checkpoint holds the rest of what a session is: its bounds, its resume
// count and the shape of the §3.3 tree the search has committed, under a
// check value. A replay changes none of that, so it has nothing to
// persist, and its count is not in the record. A session that has not
// solved has no checkpoint, and so nothing to persist either.
//
// Like the checkpoint codec, function values do not serialize: Decode
// takes the Problem and System rebuilt from the stored spec source.
package session

import (
	"encoding/binary"
	"fmt"

	"smoothproc/internal/desc"
	"smoothproc/internal/solver"
)

// sessionVersion guards the record layout; bump on any change.
const sessionVersion = 4

// Encode snapshots the session into its record. It takes the session
// lock, so the record is one consistent leg, never half a resume. A
// session that has not solved yet fails to encode.
func (s *Session) Encode() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cp == nil {
		return nil, fmt.Errorf("session %s: nothing to encode before the first solve", s.key)
	}
	cp, err := s.cp.Encode()
	if err != nil {
		return nil, fmt.Errorf("session %s: %w", s.key, err)
	}
	b := make([]byte, 0, 2*binary.MaxVarintLen64+len(s.key)+len(cp))
	b = binary.AppendUvarint(b, sessionVersion)
	b = binary.AppendUvarint(b, uint64(len(s.key)))
	b = append(b, s.key...)
	return append(b, cp...), nil
}

// Decode rebuilds the session key names from its record. p and sys must
// be rebuilt from the spec the session was created with; the
// checkpoint's bounds override p's. A record of another version, or one
// written for another key, is rejected, and every failure of the
// persisted bytes wraps solver.ErrCorrupt.
func Decode(data []byte, key string, p solver.Problem, sys desc.System) (*Session, error) {
	version, n := binary.Uvarint(data)
	if n <= 0 || version != sessionVersion {
		return nil, fmt.Errorf("session %s: record version %d, this build reads %d: %w", key, version, sessionVersion, solver.ErrCorrupt)
	}
	data = data[n:]
	klen, n := binary.Uvarint(data)
	if n <= 0 || klen > uint64(len(data)-n) {
		return nil, fmt.Errorf("session %s: truncated record key: %w", key, solver.ErrCorrupt)
	}
	data = data[n:]
	if got := string(data[:klen]); got != key {
		return nil, fmt.Errorf("session %s: the record belongs to session %q: %w", key, got, solver.ErrCorrupt)
	}
	cp, err := solver.DecodeCheckpoint(data[klen:], p)
	if err != nil {
		return nil, fmt.Errorf("session %s: %w", key, err)
	}
	return &Session{key: key, sys: sys, p: p, cp: cp}, nil
}
