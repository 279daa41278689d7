// Package store is the durability substrate of the session registry: a
// crash-safe, dependency-free snapshot store with a per-session write-ahead
// journal. The service layer serializes a session into opaque payloads
// (internal/service's versioned snapshot codec) and hands them here; this
// package owns the file discipline that makes a SIGKILL at any instant
// recoverable. One session owns up to three files in the store directory:
//
//   - <id>.onto, the immutable ontology, written once when the session is
//     created;
//   - <id>.snap, the mutable state, rewritten after every mutation;
//   - <id>.wal, the write-ahead journal of operations newer than the
//     snapshot.
//
// The discipline:
//
//   - files are written to a temp file, fsynced and renamed into place, and
//     the directory is fsynced after each snapshot rename, so a reader sees
//     either the old snapshot or the new one, never a torn hybrid;
//   - every payload is framed with a magic string, a length and a CRC32,
//     so bit rot and truncation are detected on load instead of being
//     decoded into garbage state;
//   - a session with a corrupt or truncated file has its files moved into
//     a quarantine directory — kept for forensics, never retried, never
//     able to wedge startup;
//   - the write-ahead journal appends CRC-framed records with an fsync per
//     append, and a torn tail (the record being written when the process
//     died) is dropped while the intact prefix is replayed;
//   - Sweep removes the files no snapshot claims, which a crash between a
//     session's ontology write and its first snapshot leaves behind.
//
// The faults.SessionSnapshot injection point fires on every save, load and
// journal append, so the chaos harness can drive save-fails, load-fails
// and codec panics through the same paths production takes.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"questpro/internal/faults"
)

const (
	snapMagic     = "QPSNAP01" // bumped only if the frame layout changes
	snapSuffix    = ".snap"
	ontoSuffix    = ".onto"
	walSuffix     = ".wal"
	tmpSuffix     = ".tmp"
	quarantineDir = "quarantine"
)

// sessionSuffixes are the files one session owns, snapshot first: Delete
// removes the snapshot before the files it claims, so a crash midway
// leaves only unclaimed files, which Sweep removes.
var sessionSuffixes = []string{snapSuffix, walSuffix, ontoSuffix}

// Sentinel errors. ErrCorrupt is returned after the offending session's
// files have already been moved to quarantine.
var (
	ErrNotFound = errors.New("store: snapshot not found")
	ErrCorrupt  = errors.New("store: corrupt snapshot")
)

// Store persists session ontologies, snapshots and journals under one
// directory. Construct with Open; safe for concurrent use (the service
// serializes per-session access already, the store's lock only guards the
// journal handle cache).
type Store struct {
	dir string

	mu   sync.Mutex
	wals map[string]*os.File // cached append handles, keyed by session id

	ontoWrites atomic.Int64
	snapWrites atomic.Int64
}

// Writes counts the files a store has written since Open.
type Writes struct {
	Ontologies int64 // <id>.onto files (one per created session)
	Snapshots  int64 // <id>.snap files (one per persisted mutation)
}

// Writes reports how many ontology and snapshot files the store wrote.
func (s *Store) Writes() Writes {
	return Writes{Ontologies: s.ontoWrites.Load(), Snapshots: s.snapWrites.Load()}
}

// Open creates (if needed) and opens a store rooted at dir.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, quarantineDir), 0o755); err != nil {
		return nil, fmt.Errorf("store: opening %s: %w", dir, err)
	}
	return &Store{dir: dir, wals: make(map[string]*os.File)}, nil
}

// Dir reports the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Close releases cached journal handles. Snapshots already on disk are
// unaffected.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for id, f := range s.wals {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
		delete(s.wals, id)
	}
	return first
}

// validID rejects ids that could escape the store directory. Session ids
// are hex strings; anything with a path separator or a leading dot is
// refused outright.
func validID(id string) error {
	if id == "" || strings.HasPrefix(id, ".") || strings.ContainsAny(id, `/\`) {
		return fmt.Errorf("store: invalid session id %q", id)
	}
	return nil
}

func (s *Store) path(id, suffix string) string { return filepath.Join(s.dir, id+suffix) }

// frame prepends the file header: magic, payload length, CRC32.
func frame(payload []byte) []byte {
	buf := make([]byte, 0, len(snapMagic)+8+len(payload))
	buf = append(buf, snapMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
	return append(buf, payload...)
}

// unframe validates a framed file's header and returns the payload.
func unframe(data []byte) ([]byte, error) {
	if len(data) < len(snapMagic)+8 {
		return nil, fmt.Errorf("truncated header (%d bytes)", len(data))
	}
	if string(data[:len(snapMagic)]) != snapMagic {
		return nil, fmt.Errorf("bad magic %q", data[:len(snapMagic)])
	}
	n := binary.LittleEndian.Uint32(data[len(snapMagic):])
	sum := binary.LittleEndian.Uint32(data[len(snapMagic)+4:])
	payload := data[len(snapMagic)+8:]
	if uint32(len(payload)) != n {
		return nil, fmt.Errorf("payload length %d, header says %d", len(payload), n)
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, fmt.Errorf("checksum mismatch")
	}
	return payload, nil
}

// Save atomically replaces the session's snapshot: temp file, fsync,
// rename, directory fsync. A crash at any point leaves either the previous
// snapshot or the new one. The directory fsync also makes durable an
// ontology written just before by SaveOntology.
func (s *Store) Save(id string, payload []byte) error {
	if err := validID(id); err != nil {
		return err
	}
	if err := faults.Fire(faults.SessionSnapshot); err != nil {
		return fmt.Errorf("store: save %s: %w", id, err)
	}
	if err := writeFile(s.path(id, snapSuffix), payload); err != nil {
		return fmt.Errorf("store: save %s: %w", id, err)
	}
	if err := s.syncDir(); err != nil {
		return err
	}
	s.snapWrites.Add(1)
	return nil
}

// SaveOntology writes the session's immutable ontology payload to
// <id>.onto, framed like a snapshot: temp file, fsync, rename. It returns
// the frame's CRC32, which the session's snapshots record next to the
// payload length so that restore can check the pair belongs together. It
// leaves the directory fsync to the session's first Save, which must
// follow: that one fsync makes both renames durable. A crash before it
// leaves an ontology that no snapshot claims, which Sweep removes.
func (s *Store) SaveOntology(id string, payload []byte) (uint32, error) {
	if err := validID(id); err != nil {
		return 0, err
	}
	if err := faults.Fire(faults.SessionSnapshot); err != nil {
		return 0, fmt.Errorf("store: save ontology %s: %w", id, err)
	}
	if err := writeFile(s.path(id, ontoSuffix), payload); err != nil {
		return 0, fmt.Errorf("store: save ontology %s: %w", id, err)
	}
	s.ontoWrites.Add(1)
	return crc32.ChecksumIEEE(payload), nil
}

// writeFile replaces path with the framed payload: temp file, fsync,
// rename. The caller fsyncs the directory.
func writeFile(path string, payload []byte) error {
	tmp := path + tmpSuffix
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(frame(payload)); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("fsync: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// Load reads and validates the session's snapshot. A missing file returns
// ErrNotFound; a corrupt or truncated file moves the session's files to
// quarantine and returns an ErrCorrupt-matching error.
func (s *Store) Load(id string) ([]byte, error) {
	if err := validID(id); err != nil {
		return nil, err
	}
	if err := faults.Fire(faults.SessionSnapshot); err != nil {
		return nil, fmt.Errorf("store: load %s: %w", id, err)
	}
	data, err := os.ReadFile(s.path(id, snapSuffix))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("store: %s: %w", id, ErrNotFound)
		}
		return nil, fmt.Errorf("store: load %s: %w", id, err)
	}
	payload, err := unframe(data)
	if err != nil {
		return nil, s.corrupt(id, err)
	}
	return payload, nil
}

// LoadOntology reads the session's ontology and checks its frame against
// the payload length and CRC32 the session's snapshot recorded. Only a
// snapshot that claims an ontology calls it, so a missing file is as
// fatal as a corrupt one or one that belongs to another snapshot: each
// moves the session's files to quarantine and returns an
// ErrCorrupt-matching error.
func (s *Store) LoadOntology(id string, size int, sum uint32) ([]byte, error) {
	if err := validID(id); err != nil {
		return nil, err
	}
	if err := faults.Fire(faults.SessionSnapshot); err != nil {
		return nil, fmt.Errorf("store: load ontology %s: %w", id, err)
	}
	data, err := os.ReadFile(s.path(id, ontoSuffix))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, s.corrupt(id, errors.New("ontology file missing"))
		}
		return nil, fmt.Errorf("store: load ontology %s: %w", id, err)
	}
	payload, err := unframe(data)
	if err == nil {
		// unframe checked the header's CRC against the payload.
		got := binary.LittleEndian.Uint32(data[len(snapMagic)+4:])
		if len(payload) != size || got != sum {
			err = fmt.Errorf("frame (%d bytes, crc %08x) is not the one the snapshot recorded (%d bytes, crc %08x)",
				len(payload), got, size, sum)
		}
	}
	if err != nil {
		return nil, s.corrupt(id, fmt.Errorf("ontology: %w", err))
	}
	return payload, nil
}

// corrupt quarantines the session's files and returns the ErrCorrupt error
// describing why.
func (s *Store) corrupt(id string, cause error) error {
	if qerr := s.Quarantine(id); qerr != nil {
		return fmt.Errorf("store: %s: %v (quarantine also failed: %v): %w", id, cause, qerr, ErrCorrupt)
	}
	return fmt.Errorf("store: %s: %v: %w", id, cause, ErrCorrupt)
}

// Quarantine moves every file of the session — snapshot, journal and
// ontology — into the quarantine directory under unique names, so a
// poisoned session can never wedge a restart loop but stays available for
// forensics.
func (s *Store) Quarantine(id string) error {
	if err := validID(id); err != nil {
		return err
	}
	s.dropWAL(id)
	stamp := time.Now().UnixNano()
	for _, suffix := range sessionSuffixes {
		dst := filepath.Join(s.dir, quarantineDir, fmt.Sprintf("%s%s.%d", id, suffix, stamp))
		if err := os.Rename(s.path(id, suffix), dst); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("store: quarantining %s: %w", id, err)
		}
	}
	return s.syncDir()
}

// walFile returns (opening and caching if needed) the journal append handle.
func (s *Store) walFile(id string) (*os.File, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if f, ok := s.wals[id]; ok {
		return f, nil
	}
	f, err := os.OpenFile(s.path(id, walSuffix), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: opening journal %s: %w", id, err)
	}
	s.wals[id] = f
	return f, nil
}

// AppendWAL appends one CRC-framed record to the session's write-ahead
// journal and fsyncs it, so a state-changing operation is durable before
// the server acknowledges it even when the follow-up snapshot never lands.
func (s *Store) AppendWAL(id string, rec []byte) error {
	if err := validID(id); err != nil {
		return err
	}
	if err := faults.Fire(faults.SessionSnapshot); err != nil {
		return fmt.Errorf("store: journal %s: %w", id, err)
	}
	f, err := s.walFile(id)
	if err != nil {
		return err
	}
	buf := make([]byte, 0, 8+len(rec))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(rec)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(rec))
	buf = append(buf, rec...)
	if _, err := f.Write(buf); err != nil {
		return fmt.Errorf("store: journal %s: %w", id, err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("store: journal %s: fsync: %w", id, err)
	}
	return nil
}

// LoadWAL reads the session's journal records in append order. A torn or
// corrupt tail — the record being written when the process died — ends the
// read: the intact prefix is returned, and when anything beyond a clean
// EOF was dropped the journal file is quarantined and quarantined reports
// true. A missing journal is an empty one.
func (s *Store) LoadWAL(id string) (recs [][]byte, quarantined bool, err error) {
	if err := validID(id); err != nil {
		return nil, false, err
	}
	data, err := os.ReadFile(s.path(id, walSuffix))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, false, nil
		}
		return nil, false, fmt.Errorf("store: reading journal %s: %w", id, err)
	}
	off := 0
	torn := false
	for off < len(data) {
		if len(data)-off < 8 {
			torn = true
			break
		}
		n := int(binary.LittleEndian.Uint32(data[off:]))
		sum := binary.LittleEndian.Uint32(data[off+4:])
		if len(data)-off-8 < n {
			torn = true
			break
		}
		rec := data[off+8 : off+8+n]
		if crc32.ChecksumIEEE(rec) != sum {
			torn = true
			break
		}
		recs = append(recs, rec)
		off += 8 + n
	}
	if torn {
		dst := filepath.Join(s.dir, quarantineDir,
			fmt.Sprintf("%s%s.%d", id, walSuffix, time.Now().UnixNano()))
		if qerr := os.Rename(s.path(id, walSuffix), dst); qerr != nil {
			return recs, true, fmt.Errorf("store: quarantining torn journal %s: %w", id, qerr)
		}
		if qerr := s.syncDir(); qerr != nil {
			return recs, true, qerr
		}
	}
	return recs, torn, nil
}

// ResetWAL truncates the session's journal — called after a successful
// snapshot, which subsumes every journaled operation.
func (s *Store) ResetWAL(id string) error {
	if err := validID(id); err != nil {
		return err
	}
	f, err := s.walFile(id)
	if err != nil {
		return err
	}
	if err := f.Truncate(0); err != nil {
		return fmt.Errorf("store: truncating journal %s: %w", id, err)
	}
	return nil
}

// dropWAL closes and forgets the session's cached journal handle.
func (s *Store) dropWAL(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if f, ok := s.wals[id]; ok {
		f.Close()
		delete(s.wals, id)
	}
}

// Delete removes the session's snapshot, journal and ontology (eviction
// GC): an evicted session must leave no orphaned files behind.
func (s *Store) Delete(id string) error {
	if err := validID(id); err != nil {
		return err
	}
	s.dropWAL(id)
	var first error
	for _, suffix := range sessionSuffixes {
		if err := os.Remove(s.path(id, suffix)); err != nil && !os.IsNotExist(err) && first == nil {
			first = fmt.Errorf("store: deleting %s: %w", id, err)
		}
	}
	if first != nil {
		return first
	}
	return s.syncDir()
}

// List returns the ids of every stored snapshot, sorted.
func (s *Store) List() ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("store: listing %s: %w", s.dir, err)
	}
	var ids []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, snapSuffix) {
			continue
		}
		ids = append(ids, strings.TrimSuffix(name, snapSuffix))
	}
	sort.Strings(ids)
	return ids, nil
}

// Sweep removes the files no snapshot claims and returns their names,
// sorted: an ontology or journal whose session has no snapshot (a create
// that crashed before its first snapshot landed never returned, so no
// client knows the session; older stores also left journals behind when
// quarantining), and the temp file of a write a crash cut short. Call it
// before any session of the store is live, as restore does.
func (s *Store) Sweep() ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("store: sweeping %s: %w", s.dir, err)
	}
	snaps := make(map[string]bool)
	for _, e := range entries {
		if name := e.Name(); !e.IsDir() && strings.HasSuffix(name, snapSuffix) {
			snaps[strings.TrimSuffix(name, snapSuffix)] = true
		}
	}
	var removed []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() {
			continue
		}
		unclaimed := strings.HasSuffix(name, tmpSuffix)
		for _, suffix := range []string{ontoSuffix, walSuffix} {
			if id, ok := strings.CutSuffix(name, suffix); ok && !snaps[id] {
				unclaimed = true
			}
		}
		if !unclaimed {
			continue
		}
		if err := os.Remove(filepath.Join(s.dir, name)); err != nil && !os.IsNotExist(err) {
			return removed, fmt.Errorf("store: sweeping %s: %w", name, err)
		}
		removed = append(removed, name)
	}
	if len(removed) == 0 {
		return nil, nil
	}
	return removed, s.syncDir()
}

// syncDir fsyncs the store directory so renames and removals are durable.
func (s *Store) syncDir() error {
	d, err := os.Open(s.dir)
	if err != nil {
		return fmt.Errorf("store: syncing dir: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("store: syncing dir: %w", err)
	}
	return nil
}
