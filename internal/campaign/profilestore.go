package campaign

import (
	"encoding/json"
	"fmt"
	"sync"

	"tdmnoc/internal/jsonl"
	"tdmnoc/internal/policy"
)

// profileLine is one persisted profile: the job-derived cache key plus
// the extracted traffic profile.
type profileLine struct {
	Key     string          `json:"key"`
	Profile *policy.Profile `json:"profile"`
}

// ProfileStore persists extracted traffic profiles as an append-only
// JSONL log, mirroring the result Store: profiles are pure functions of
// their jobs (byte-identical at any worker count), so a cached profile
// is interchangeable with a fresh extraction and an interrupted policy
// campaign resumes its phase-A work. Keys are ProfileKey(job, every).
type ProfileStore struct {
	mu    sync.Mutex
	log   *jsonl.Log
	cache map[string]*policy.Profile
}

// ProfileKey names the profile of one base job at one sampling interval.
// The interval is part of the key because it changes the recorder's
// window series (though not the flow aggregates), so profiles from
// different intervals are kept distinct rather than silently shared.
func ProfileKey(j Job, every int) string {
	return fmt.Sprintf("%s|profile|%d", j.Key, every)
}

// OpenProfileStore opens (creating if needed) the JSONL profile store
// at path and loads its existing profiles.
func OpenProfileStore(path string) (*ProfileStore, error) {
	s := &ProfileStore{cache: map[string]*policy.Profile{}}
	log, err := jsonl.Open(path, func(line []byte) error {
		var p profileLine
		if err := json.Unmarshal(line, &p); err != nil {
			return err
		}
		if p.Key != "" && p.Profile != nil {
			s.cache[p.Key] = p.Profile
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("campaign: open profile store: %w", err)
	}
	s.log = log
	return s, nil
}

// Len is the number of cached profiles.
func (s *ProfileStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.cache)
}

// Lookup returns the cached profile for key.
func (s *ProfileStore) Lookup(key string) (*policy.Profile, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.cache[key]
	return p, ok
}

// Append persists one profile unless its key is already cached
// (profiles are content-addressed: a duplicate would be byte-equal).
func (s *ProfileStore) Append(key string, p *policy.Profile) error {
	if key == "" || p == nil {
		return fmt.Errorf("campaign: refusing to persist empty profile")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.cache[key]; dup {
		return nil
	}
	if err := s.log.Append(profileLine{Key: key, Profile: p}); err != nil {
		return fmt.Errorf("campaign: append profile: %w", err)
	}
	s.cache[key] = p
	return nil
}

// Close releases the backing file. Lookups keep working from memory.
func (s *ProfileStore) Close() error { return s.log.Close() }
