// Package store is smoothd's durable state layer: a blob store keyed by
// SHA-256 digests and namespaced by kind (spec, result, session). The
// §3.3 reading: a spec is an equation system, a session is a persisted
// chain element of its solution's approximation chain, and a result is
// the chain's value at a bound. The service derives every key from what
// it names: a spec's hash, or the hash of a spec and the bounds of a
// solve. The service's LRUs become read-through caches in front of one
// Store, so uploads, finished solves and sessions survive restarts.
//
// Two backends ship: Memory (tests, and the default when smoothd runs
// without -data-dir) and Disk. Both are safe for concurrent use. Disk
// blobs carry an integrity header and are verified on every Get; a blob
// that does not match its header's SHA-256 fails closed with
// *CorruptError.
package store

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"time"
)

// Kind namespaces the store. Kinds are flat and closed: the service's
// three object families.
type Kind string

const (
	// KindSpec holds uploaded spec sources, keyed by their own hash (the
	// service's existing SHA-256 spec identity).
	KindSpec Kind = "spec"
	// KindResult holds finished solve results (JSON wire form), keyed by
	// hash(spec hash + canonical solve params).
	KindResult Kind = "result"
	// KindSession holds session records (package session's codec), keyed
	// by the spec hash.
	KindSession Kind = "session"
)

// KindCheckpoint named the kind that held session checkpoints apart
// from their sessions. It is not a valid kind: a session record holds
// its checkpoint.
//
// Deprecated: kept only for the benchmark module until its next change
// (ROADMAP item 8).
const KindCheckpoint Kind = "checkpoint"

// Kinds lists every namespace, in stable order.
func Kinds() []Kind { return []Kind{KindSpec, KindResult, KindSession} }

// ValidKind reports whether k is one of the closed set.
func ValidKind(k Kind) bool {
	switch k {
	case KindSpec, KindResult, KindSession:
		return true
	}
	return false
}

// Key is a lowercase 64-hex SHA-256 digest of the identity the service
// derives for an object (spec hash, spec hash+params), so lookups
// precede content.
type Key string

// KeyOf returns the key of data: its SHA-256 digest.
func KeyOf(data []byte) Key {
	sum := sha256.Sum256(data)
	return Key(hex.EncodeToString(sum[:]))
}

// Valid reports whether k is a well-formed key.
func (k Key) Valid() bool {
	if len(k) != 64 {
		return false
	}
	for _, c := range k {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// ErrNotFound is returned by Get and Delete for absent objects.
var ErrNotFound = errors.New("store: object not found")

// CorruptError reports a blob that failed integrity verification on
// read. The store returns it instead of the payload — corrupt objects
// are never served.
type CorruptError struct {
	Kind   Kind
	Key    Key
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("store: corrupt %s/%s: %s", e.Kind, e.Key, e.Reason)
}

// Info describes one stored object.
type Info struct {
	Kind    Kind      `json:"kind"`
	Key     Key       `json:"key"`
	Size    int64     `json:"size"`
	ModTime time.Time `json:"mod_time"`
}

// Store is the blob interface. Implementations must be safe for
// concurrent use. Put is atomic: readers see the whole blob or nothing.
// A write to an existing (kind, key) overwrites it.
type Store interface {
	// Put stores data under (kind, key). The key must be Valid.
	Put(ctx context.Context, kind Kind, key Key, data []byte) error
	// Get returns the blob, ErrNotFound, or *CorruptError.
	Get(ctx context.Context, kind Kind, key Key) ([]byte, error)
	// List returns every object of the kind, sorted by key.
	List(ctx context.Context, kind Kind) ([]Info, error)
	// Delete removes the object; ErrNotFound if absent.
	Delete(ctx context.Context, kind Kind, key Key) error
	// Close releases backend resources. The store is unusable after.
	Close() error
}

// check validates the common argument contract once, for both backends.
func check(ctx context.Context, kind Kind, key Key) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if !ValidKind(kind) {
		return fmt.Errorf("store: invalid kind %q", kind)
	}
	if !key.Valid() {
		return fmt.Errorf("store: invalid key %q (want 64 lowercase hex)", key)
	}
	return nil
}

// GC deletes oldest-first (by ModTime, key as tiebreak) across all
// kinds until the store's total payload size is at most maxBytes.
// It returns the deleted objects. A maxBytes < 0 deletes nothing.
func GC(ctx context.Context, s Store, maxBytes int64) ([]Info, error) {
	if maxBytes < 0 {
		return nil, nil
	}
	var all []Info
	var total int64
	for _, k := range Kinds() {
		infos, err := s.List(ctx, k)
		if err != nil {
			return nil, err
		}
		for _, in := range infos {
			all = append(all, in)
			total += in.Size
		}
	}
	sortInfosOldest(all)
	var deleted []Info
	for _, in := range all {
		if total <= maxBytes {
			break
		}
		if err := s.Delete(ctx, in.Kind, in.Key); err != nil && !errors.Is(err, ErrNotFound) {
			return deleted, err
		}
		total -= in.Size
		deleted = append(deleted, in)
	}
	return deleted, nil
}

// sortInfosOldest orders by ModTime then (kind, key) so GC is
// deterministic when timestamps tie (common on coarse filesystems).
func sortInfosOldest(infos []Info) {
	sort.Slice(infos, func(i, j int) bool { return infoLess(infos[i], infos[j]) })
}

func infoLess(a, b Info) bool {
	if !a.ModTime.Equal(b.ModTime) {
		return a.ModTime.Before(b.ModTime)
	}
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	return a.Key < b.Key
}
