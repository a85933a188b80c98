// Package store is a crash-safe, disk-backed, content-addressed result
// store: an append-only log of checksummed key/value records sharded into
// segment files, with startup recovery that quarantines torn or corrupt
// bytes instead of failing and never loses an intact record.
//
// It backs the simulation service's result cache (DESIGN.md "Durability &
// failure"): simulation results are pure functions of their job key, so the
// store never needs update-in-place or deletion — a record is immutable
// once written, duplicate keys are idempotent, and recovery is a single
// forward scan. Writes are appends followed by fsync; repairs (dropping a
// corrupt record from a segment) are whole-file rewrites committed with an
// atomic temp-file+rename, so a crash at any byte leaves every previously
// durable record readable.
package store

import (
	"fmt"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"sync"
)

// Options tunes a Store.
type Options struct {
	// FS overrides the filesystem (fault injection, tests); nil means OSFS.
	FS FS
	// SegmentBytes rotates the active segment once it exceeds this size;
	// <= 0 means 8 MiB.
	SegmentBytes int64
	// SegmentPrefix names the store's segment file family; empty means
	// "seg". Files are <prefix>-<n>.log, so distinct record families (the
	// result cache, the checkpoint store) can live in separate directories
	// or share tooling without their segment numbering colliding.
	SegmentPrefix string
}

// Stats is a point-in-time snapshot of the store's robustness gauges.
type Stats struct {
	// Records is the live record count (loaded + written this process).
	Records int
	// RecordsLoaded is how many intact records recovery loaded at Open.
	RecordsLoaded int
	// CorruptRecords counts torn/corrupt stretches quarantined at Open.
	CorruptRecords int
	// QuarantinedBytes is the total size of quarantined stretches.
	QuarantinedBytes int64
	// QuarantineFailures counts recovery scans that condemned corrupt bytes
	// but could not write them under quarantine/ (directory missing and
	// uncreatable, or unwritable). Recovery proceeds regardless — intact
	// records load and the damaged segment is still repaired — but the
	// condemned bytes were discarded instead of preserved, so the failure
	// is surfaced here for operators rather than aborting startup.
	QuarantineFailures int
	// BytesOnDisk is the live segment footprint (quarantine files excluded).
	BytesOnDisk int64
	// Segments is the number of live segment files.
	Segments int
}

// Store is the disk-backed map. All methods are safe for concurrent use.
type Store struct {
	dir  string
	fs   FS
	opts Options

	mu         sync.Mutex
	index      map[string][]byte
	active     AppendFile
	activeSize int64
	nextSeg    int
	encBuf     []byte
	stats      Stats

	segPrefix string
	segRe     *regexp.Regexp
}

// segmentRe matches this store's segment files. `\d{8,}` (not `\d{8}`):
// segmentName zero-pads to 8 digits but %08d widens once the counter
// rolls past seg-99999999.log, and recovery must keep accepting those
// segments rather than silently skipping them.
func (s *Store) segmentRe() *regexp.Regexp {
	if s.segRe == nil {
		s.segRe = regexp.MustCompile(`^` + regexp.QuoteMeta(s.segPrefix) + `-(\d{8,})\.log$`)
	}
	return s.segRe
}

func (s *Store) segmentName(n int) string {
	return fmt.Sprintf("%s-%08d.log", s.segPrefix, n)
}

// Open loads (or creates) the store at dir, recovering every intact record
// from its segment files. Corrupt or torn byte stretches are moved to
// quarantine files under dir/quarantine — recovery only fails on
// directory-level I/O errors, never on bad content.
func Open(dir string, opts Options) (*Store, error) {
	if opts.FS == nil {
		opts.FS = OSFS()
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = 8 << 20
	}
	if opts.SegmentPrefix == "" {
		opts.SegmentPrefix = "seg"
	}
	s := &Store{dir: dir, fs: opts.FS, opts: opts, index: make(map[string][]byte), segPrefix: opts.SegmentPrefix}
	if err := s.fs.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", dir, err)
	}
	names, err := s.fs.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: listing %s: %w", dir, err)
	}
	segs := make([]int, 0, len(names))
	for _, name := range names {
		if m := s.segmentRe().FindStringSubmatch(name); m != nil {
			n, err := strconv.Atoi(m[1])
			if err != nil {
				// A digit run too long for int (overflow): not one of ours.
				continue
			}
			segs = append(segs, n)
		}
	}
	sort.Ints(segs)
	for _, n := range segs {
		if err := s.recoverSegment(n); err != nil {
			return nil, err
		}
	}
	if len(segs) > 0 {
		s.nextSeg = segs[len(segs)-1] + 1
	}
	s.stats.RecordsLoaded = len(s.index)
	s.stats.Records = len(s.index)
	return s, nil
}

// recoverSegment scans one segment, loading intact records into the index.
// A corrupt payload is skipped at its exact boundary (the records after it
// survive); an unreadable header or torn tail quarantines the rest of the
// file. Any damage triggers an atomic rewrite of the segment containing
// only the intact records, so the next Open scans clean files.
func (s *Store) recoverSegment(n int) error {
	path := filepath.Join(s.dir, s.segmentName(n))
	data, err := s.fs.ReadFile(path)
	if err != nil {
		// The segment cannot be read at all (injected short read paths
		// return what they can; a hard error means no bytes). Quarantine by
		// counting it — the file is left in place for manual inspection —
		// and keep serving what other segments hold.
		s.stats.CorruptRecords++
		return nil
	}
	type rec struct{ key, val []byte }
	var good []rec
	var bad []byte
	off := 0
	damaged := false
	for off < len(data) {
		key, val, size, derr := decodeRecord(data[off:])
		switch derr {
		case nil:
			good = append(good, rec{key, val})
			off += size
		case errBadPayload:
			// Exact framing survives: quarantine just this record.
			s.stats.CorruptRecords++
			bad = append(bad, data[off:off+size]...)
			off += size
			damaged = true
		default: // errTornRecord, errBadHeader: framing lost
			s.stats.CorruptRecords++
			bad = append(bad, data[off:]...)
			off = len(data)
			damaged = true
		}
	}
	for _, r := range good {
		val := append([]byte(nil), r.val...)
		s.index[string(r.key)] = val
	}
	if !damaged {
		s.stats.BytesOnDisk += int64(len(data))
		s.stats.Segments++
		return nil
	}
	// Preserve the damaged bytes, then rewrite the segment with only its
	// intact records via temp-file+rename. The rewrite is atomic: a crash
	// here leaves either the old damaged file (re-repaired next Open) or
	// the clean one — never a half-written segment.
	s.stats.QuarantinedBytes += int64(len(bad))
	// Quarantine-file write failures are not fatal: the bytes are already
	// condemned, and the repair below is what protects reads. But they are
	// counted — an unwritable quarantine/ directory means forensic evidence
	// is being lost, and /stats is where that must show up.
	qdir := filepath.Join(s.dir, "quarantine")
	if err := s.fs.MkdirAll(qdir); err != nil {
		s.stats.QuarantineFailures++
	} else if err := s.fs.WriteFile(filepath.Join(qdir, s.segmentName(n)+".bad"), bad); err != nil {
		s.stats.QuarantineFailures++
	}
	var clean []byte
	for _, r := range good {
		clean, err = appendRecord(clean, r.key, r.val)
		if err != nil {
			return fmt.Errorf("store: re-encoding %s: %w", path, err)
		}
	}
	if len(clean) == 0 {
		if err := s.fs.Remove(path); err != nil {
			return fmt.Errorf("store: removing fully corrupt %s: %w", path, err)
		}
		return nil
	}
	if err := s.fs.WriteFile(path, clean); err != nil {
		return fmt.Errorf("store: repairing %s: %w", path, err)
	}
	s.stats.BytesOnDisk += int64(len(clean))
	s.stats.Segments++
	return nil
}

// Get returns the stored value for key. The returned slice is shared and
// must be treated as read-only.
func (s *Store) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.index[key]
	return v, ok
}

// Len reports the live record count.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Range calls fn for every record until it returns false. Iteration order
// is unspecified; values are shared read-only slices.
func (s *Store) Range(fn func(key string, value []byte) bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, v := range s.index {
		if !fn(k, v) {
			return
		}
	}
}

// Put durably appends one record. Re-putting an existing key is a no-op
// (the store is content-addressed: a key's value never changes), so
// write-through callers need no exists-check of their own. A nil error
// means the record is on disk and fsynced; on error the key stays absent
// and a retry is safe — the failed append's bytes, if any reached the
// disk, are quarantined by the next Open.
func (s *Store) Put(key string, value []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.index[key]; ok {
		return nil
	}
	var err error
	s.encBuf, err = appendRecord(s.encBuf[:0], []byte(key), value)
	if err != nil {
		return err
	}
	if s.active == nil {
		if err := s.openActiveLocked(); err != nil {
			return err
		}
	}
	if _, err := s.active.Write(s.encBuf); err != nil {
		// The segment tail is now suspect (possibly torn): abandon it and
		// let the next Put start a fresh segment; recovery quarantines the
		// tail on the next Open.
		s.dropActiveLocked()
		return fmt.Errorf("store: appending to %s: %w", s.segmentName(s.nextSeg-1), err)
	}
	if err := s.active.Sync(); err != nil {
		s.dropActiveLocked()
		return fmt.Errorf("store: syncing %s: %w", s.segmentName(s.nextSeg-1), err)
	}
	s.activeSize += int64(len(s.encBuf))
	s.stats.BytesOnDisk += int64(len(s.encBuf))
	s.index[key] = append([]byte(nil), value...)
	s.stats.Records = len(s.index)
	if s.activeSize >= s.opts.SegmentBytes {
		s.dropActiveLocked() // seal: the next Put rotates to a new segment
	}
	return nil
}

// openActiveLocked starts the next segment file.
func (s *Store) openActiveLocked() error {
	name := filepath.Join(s.dir, s.segmentName(s.nextSeg))
	f, err := s.fs.OpenAppend(name)
	if err != nil {
		return fmt.Errorf("store: opening segment %s: %w", name, err)
	}
	s.active = f
	s.activeSize = 0
	s.nextSeg++
	s.stats.Segments++
	return nil
}

// dropActiveLocked closes the active segment handle (sealing it).
func (s *Store) dropActiveLocked() {
	if s.active != nil {
		_ = s.active.Close()
		s.active = nil
	}
}

// Stats snapshots the robustness gauges.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Dir reports the store's directory.
func (s *Store) Dir() string { return s.dir }

// Close seals the active segment. The store stays readable (the index is
// in memory) but further Puts will reopen a segment; callers normally
// Close exactly once at shutdown.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dropActiveLocked()
	return nil
}
