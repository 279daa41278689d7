package service

import (
	"crypto/sha256"
	"sync"
	"time"

	"questpro/internal/graph"
	"questpro/internal/ntriples"
)

// ontologyStore shares parsed, frozen ontologies among the sessions created
// from the same bytes (DESIGN.md §7). Nothing mutates a session's ontology
// after Freeze, so sessions can read one graph concurrently; a repeat create
// of the same N-Triples text skips the parse and the freeze.
//
// An entry is keyed by the SHA-256 of the exact bytes it was built from,
// behind a tag for their kind, and counts the sessions holding it. When the
// last session lets go, what happens depends on whether the key repeated —
// was acquired more than once:
//   - a repeated entry is retained for the session TTL, because the last
//     session over a shared ontology is often gone before the next create
//     of the same text; then the registry's janitor drops it;
//   - a one-off entry's graph is freed at once, as it would be without the
//     store. Only its key is remembered for the TTL, so that a second
//     upload of the same text counts as a repeat.
//
// limit (the registry's session limit) bounds both the graphs and the
// remembered keys. A miss on a full store evicts the least recently
// released unreferenced entry; when every entry is held, the store grows
// past the limit, and a release on a store past its limit frees the graph.
// So the store never holds more graphs than the limit or than the sessions
// and in-flight creates holding them, whichever is larger.
type ontologyStore struct {
	limit int
	ttl   time.Duration

	mu      sync.Mutex
	entries map[ontoKey]*ontoEntry
	freed   map[ontoKey]time.Time // keys whose graph the last release freed, and when
	parses  int
	reuses  int
}

// ontoKey is the SHA-256 an ontology is stored under.
type ontoKey [sha256.Size]byte

// ontoEntry is one stored ontology: the graph, the number of sessions
// holding it, whether its key repeated and, while nobody holds it, when
// the last one let go. A session holds its entry (nil for a private graph)
// until its teardown releases it.
type ontoEntry struct {
	key      ontoKey
	g        *graph.Graph
	refs     int
	repeated bool
	released time.Time
}

// Kind tags, hashed in front of the bytes, keep the keys of uploaded
// N-Triples text apart from those of restored <id>.onto payloads.
const (
	textKind  = 't'
	frameKind = 'f'
)

func newOntologyStore(limit int, ttl time.Duration) *ontologyStore {
	return &ontologyStore{
		limit:   limit,
		ttl:     ttl,
		entries: make(map[ontoKey]*ontoEntry),
		freed:   make(map[ontoKey]time.Time),
	}
}

// acquireText returns the ontology of an uploaded N-Triples document,
// parsing it only when the store holds no graph for the same bytes.
func (o *ontologyStore) acquireText(text string) (*graph.Graph, *ontoEntry, error) {
	return o.acquire(textKey(text), func() (*graph.Graph, error) {
		return ntriples.ParseString(text)
	})
}

// textKey is the store key of an uploaded text. It hashes through a small
// buffer: converting an upload of a few hundred KiB to []byte would copy
// all of it to the heap on every create.
func textKey(text string) ontoKey {
	h := sha256.New()
	h.Write([]byte{textKind})
	var chunk [4 << 10]byte
	for len(text) > 0 {
		n := copy(chunk[:], text)
		h.Write(chunk[:n])
		text = text[n:]
	}
	var key ontoKey
	h.Sum(key[:0])
	return key
}

// acquireFrame returns the ontology of a restored session's <id>.onto
// payload (already checked against the snapshot's length and CRC),
// decoding it only when the store holds no graph for the same payload.
func (o *ontologyStore) acquireFrame(payload []byte) (*graph.Graph, *ontoEntry, error) {
	return o.acquire(frameKey(payload), func() (*graph.Graph, error) { return decodeOntology(payload) })
}

// frameKey is the store key of a restored <id>.onto payload.
func frameKey(payload []byte) ontoKey {
	h := sha256.New()
	h.Write([]byte{frameKind})
	h.Write(payload)
	var key ontoKey
	h.Sum(key[:0])
	return key
}

// acquire returns the frozen graph stored under key, building it with
// build on a miss. The entry it returns is the caller's reference, to be
// passed to release once; it is nil when build failed or the graph is
// empty, and nothing is then stored. build and the freeze run outside the
// lock; when concurrent misses on one key race, the first to finish stores
// its graph and the others adopt it.
func (o *ontologyStore) acquire(key ontoKey, build func() (*graph.Graph, error)) (*graph.Graph, *ontoEntry, error) {
	o.mu.Lock()
	if e := o.entries[key]; e != nil {
		e.refs++
		e.repeated = true
		o.reuses++
		o.mu.Unlock()
		return e.g, e, nil
	}
	o.parses++
	o.mu.Unlock()

	g, err := build()
	if err != nil || g.NumNodes() == 0 {
		return g, nil, err
	}
	g.Freeze()

	o.mu.Lock()
	defer o.mu.Unlock()
	if e := o.entries[key]; e != nil {
		e.refs++
		e.repeated = true
		return e.g, e, nil
	}
	_, repeated := o.freed[key]
	delete(o.freed, key)
	if len(o.entries) >= o.limit {
		o.evictOldestLocked()
	}
	e := &ontoEntry{key: key, g: g, refs: 1, repeated: repeated}
	o.entries[key] = e
	return g, e, nil
}

// release drops one reference taken by acquire; a nil entry is a no-op.
// The last release retains a repeated entry while the store is within its
// limit, and otherwise frees the graph and remembers the key.
func (o *ontologyStore) release(e *ontoEntry) {
	if e == nil {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if e.refs--; e.refs > 0 {
		return
	}
	e.released = time.Now()
	if e.repeated && len(o.entries) <= o.limit {
		return
	}
	delete(o.entries, e.key)
	if len(o.freed) >= o.limit {
		var oldest ontoKey
		var at time.Time
		for k, t := range o.freed {
			if at.IsZero() || t.Before(at) {
				oldest, at = k, t
			}
		}
		delete(o.freed, oldest)
	}
	o.freed[e.key] = e.released
}

// evictIdle drops every unreferenced entry, and every remembered key,
// released before now-TTL.
func (o *ontologyStore) evictIdle(now time.Time) {
	cutoff := now.Add(-o.ttl)
	o.mu.Lock()
	defer o.mu.Unlock()
	for k, e := range o.entries {
		if e.refs == 0 && e.released.Before(cutoff) {
			delete(o.entries, k)
		}
	}
	for k, t := range o.freed {
		if t.Before(cutoff) {
			delete(o.freed, k)
		}
	}
}

// evictOldestLocked drops the least recently released unreferenced entry,
// if there is one. Callers hold o.mu.
func (o *ontologyStore) evictOldestLocked() {
	var found *ontoEntry
	for _, e := range o.entries {
		if e.refs == 0 && (found == nil || e.released.Before(found.released)) {
			found = e
		}
	}
	if found != nil {
		delete(o.entries, found.key)
	}
}
