// Session serialization. A session splits into two blobs so the service
// can store them content-addressed: a small meta record (identity,
// bounds, leg counters) and the checkpoint blob it references by
// SHA-256 — the heavy part, the shape of the §3.3 tree the search has
// committed, written by the solver codec. Decode verifies the fetched
// checkpoint against the reference before trusting a byte of it, so a
// store that hands back the wrong (or bit-rotted) blob fails closed.
//
// Like the checkpoint codec, function values do not serialize: Decode
// takes the Problem and System rebuilt from the stored spec source.
package session

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"smoothproc/internal/desc"
	"smoothproc/internal/solver"
)

// sessionVersion guards the meta layout; bump on any change.
const sessionVersion = 2

// meta is the session record Encode writes as JSON.
type meta struct {
	Version  int    `json:"version"`
	Key      string `json:"key"`
	MaxDepth int    `json:"max_depth"`
	MaxNodes int    `json:"max_nodes"`
	Solves   int    `json:"solves"`
	Resumes  int    `json:"resumes"`
	Replays  int    `json:"replays"`
	// Checkpoint is the checkpoint blob's SHA-256, empty for a session
	// that has not solved yet.
	Checkpoint string `json:"checkpoint,omitempty"`
}

// Blob is one encoded session. Checkpoint is nil (and CheckpointRef
// empty) for a session that has not solved yet.
type Blob struct {
	Meta          []byte
	Checkpoint    []byte
	CheckpointRef string
}

// Encode snapshots the session into blobs. It takes the session lock, so
// the snapshot is one consistent leg — never half a resume.
func (s *Session) Encode() (Blob, error) {
	s.mu.Lock()
	defer s.mu.Unlock()

	var b Blob
	if s.cp != nil {
		data, err := s.cp.Encode()
		if err != nil {
			return Blob{}, fmt.Errorf("session %s: %w", s.key, err)
		}
		sum := sha256.Sum256(data)
		b.Checkpoint = data
		b.CheckpointRef = hex.EncodeToString(sum[:])
	}
	var err error
	b.Meta, err = json.Marshal(meta{
		Version:    sessionVersion,
		Key:        s.key,
		MaxDepth:   s.p.MaxDepth,
		MaxNodes:   s.p.MaxNodes,
		Solves:     s.solves,
		Resumes:    s.resumes,
		Replays:    s.replays,
		Checkpoint: b.CheckpointRef,
	})
	if err != nil {
		return Blob{}, fmt.Errorf("session %s: %w", s.key, err)
	}
	return b, nil
}

// Decode rebuilds a session from its meta blob. p and sys must be
// rebuilt from the same spec the session was created with. fetch loads
// the checkpoint blob by its reference; it is only called for sessions
// that had solved, and its payload is verified against the reference
// before decoding. Every failure of the persisted bytes wraps
// solver.ErrCorrupt.
func Decode(data []byte, p solver.Problem, sys desc.System, fetch func(ref string) ([]byte, error)) (*Session, error) {
	var m meta
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("session: decode meta: %w: %w", err, solver.ErrCorrupt)
	}
	if m.Version != sessionVersion {
		return nil, fmt.Errorf("session: meta version %d, this build reads %d: %w", m.Version, sessionVersion, solver.ErrCorrupt)
	}
	p.MaxDepth = m.MaxDepth
	p.MaxNodes = m.MaxNodes
	s := &Session{
		key:     m.Key,
		sys:     sys,
		p:       p,
		solves:  m.Solves,
		resumes: m.Resumes,
		replays: m.Replays,
	}
	ref := m.Checkpoint
	if ref == "" {
		return s, nil
	}
	if fetch == nil {
		return nil, fmt.Errorf("session %s: meta references checkpoint %s but no fetcher was given", m.Key, ref)
	}
	cpData, err := fetch(ref)
	if err != nil {
		return nil, fmt.Errorf("session %s: fetch checkpoint %s: %w", m.Key, ref, err)
	}
	sum := sha256.Sum256(cpData)
	if got := hex.EncodeToString(sum[:]); got != ref {
		return nil, fmt.Errorf("session %s: checkpoint content hash %s does not match reference %s: %w", m.Key, got, ref, solver.ErrCorrupt)
	}
	cp, err := solver.DecodeCheckpoint(cpData, p)
	if err != nil {
		return nil, fmt.Errorf("session %s: %w", m.Key, err)
	}
	s.cp = cp
	s.res = cp.Result()
	return s, nil
}
