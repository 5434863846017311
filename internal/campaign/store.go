package campaign

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"tdmnoc/internal/jsonl"
)

// Store persists campaign records as an append-only JSONL log
// (internal/jsonl, which states the crash contract) and serves as the
// result cache: opening a store reloads every record previously
// written to the file, so an interrupted campaign resumes without
// recomputing finished jobs. A record torn by a crash is dropped at
// reload and its job simply re-runs.
type Store struct {
	mu    sync.Mutex
	log   *jsonl.Log
	cache map[string]Record
	// lines counts every non-empty line in the backing file (including
	// duplicates from concurrent writers and re-run fleet shards); the
	// excess over len(cache) is the dead weight Compact reclaims.
	lines int
}

// OpenStore opens (creating if needed) the JSONL store at path and
// loads its existing records.
func OpenStore(path string) (*Store, error) {
	s := &Store{cache: map[string]Record{}}
	log, err := jsonl.Open(path, func(line []byte) error {
		var r Record
		if err := json.Unmarshal(line, &r); err != nil {
			return err
		}
		s.lines++
		if r.Key != "" && r.Err == "" {
			s.cache[r.Key] = r
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("campaign: open store: %w", err)
	}
	s.log = log
	return s, nil
}

// Len is the number of cached records.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.cache)
}

// Lookup returns the cached record for key, marked Cached.
func (s *Store) Lookup(key string) (Record, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.cache[key]
	if ok {
		r.Cached = true
	}
	return r, ok
}

// Append persists one record (and caches it). Records with Err set are
// rejected: failures must be retried, not replayed.
func (s *Store) Append(r Record) error {
	if r.Err != "" {
		return fmt.Errorf("campaign: refusing to persist failed record %s", r.Key)
	}
	// Held across the write so Compact never rewrites the file from a
	// cache that misses a line already appended to it.
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.log.Append(r); err != nil {
		return fmt.Errorf("campaign: append record: %w", err)
	}
	s.lines++
	s.cache[r.Key] = r
	return nil
}

// AppendNew persists the record only when its key is not already
// cached, reporting whether a write happened. This is the
// content-addressed dedup the fleet path relies on: records are pure
// functions of their jobs, so a second record for a cached key (a
// re-leased shard completed twice, two workers racing) is byte-equal
// to the first and persisting it would only create dead weight.
func (s *Store) AppendNew(r Record) (bool, error) {
	s.mu.Lock()
	_, dup := s.cache[r.Key]
	s.mu.Unlock()
	if dup {
		return false, nil
	}
	if err := s.Append(r); err != nil {
		return false, err
	}
	return true, nil
}

// Dead reports how many persisted lines are no longer live records —
// duplicates from concurrent writers and re-run shards. The fleet
// coordinator compacts a shard when this grows past its live count.
func (s *Store) Dead() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lines - len(s.cache)
}

// Compact atomically rewrites the backing file to exactly the live
// records, in key order, dropping duplicate lines.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]string, 0, len(s.cache))
	for k := range s.cache {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	recs := make([]any, len(keys))
	for i, k := range keys {
		recs[i] = s.cache[k]
	}
	if err := s.log.Rewrite(recs...); err != nil {
		return fmt.Errorf("campaign: compact store: %w", err)
	}
	s.lines = len(s.cache)
	return nil
}

// Records returns a copy of every cached record (order unspecified).
func (s *Store) Records() []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Record, 0, len(s.cache))
	for _, r := range s.cache {
		out = append(out, r)
	}
	return out
}

// Close releases the backing file. Lookups keep working from memory.
func (s *Store) Close() error { return s.log.Close() }
