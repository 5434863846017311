package campaign

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"tdmnoc/internal/stats"
)

// storeShards is the fan-out of a ShardedStore: 16 JSONL files keyed
// by the first hex nibble of the record key. Records keys are SHA-256
// over the canonical job identity, so the nibble spreads uniformly and
// each file carries ~1/16 of the campaign — small enough to reload and
// compact incrementally even for million-job sweeps.
const storeShards = 16

// ShardedStore is the fleet-scale result store: a content-addressed
// record cache fanned across storeShards append-only JSONL files by
// key prefix. It generalizes Store — each shard file is a Store, with
// the crash contract of internal/jsonl — and adds the properties
// the distribution layer needs: duplicate-free appends (AppendNew per
// key), streaming merge of sum-form records without materialising the
// whole campaign, and per-shard compaction that reclaims dead lines
// left by re-leased fleet shards.
type ShardedStore struct {
	dir    string
	shards [storeShards]*Store

	// compacting serialises background compaction sweeps.
	compacting sync.Mutex
}

// OpenShardedStore opens (creating if needed) the sharded store rooted
// at dir, reloading every shard file.
func OpenShardedStore(dir string) (*ShardedStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("campaign: sharded store: %w", err)
	}
	ss := &ShardedStore{dir: dir}
	for i := range ss.shards {
		st, err := OpenStore(filepath.Join(dir, fmt.Sprintf("shard-%x.jsonl", i)))
		if err != nil {
			for j := 0; j < i; j++ {
				ss.shards[j].Close()
			}
			return nil, err
		}
		ss.shards[i] = st
	}
	return ss, nil
}

// Dir returns the root directory of the shard files.
func (ss *ShardedStore) Dir() string { return ss.dir }

// shardFor routes a record key to its shard by first hex nibble. Keys
// are lowercase hex SHA-256 strings; anything else lands in shard 0
// (and would only arise from a corrupted caller, not normal traffic).
func (ss *ShardedStore) shardFor(key string) *Store {
	if len(key) == 0 {
		return ss.shards[0]
	}
	c := key[0]
	switch {
	case c >= '0' && c <= '9':
		return ss.shards[c-'0']
	case c >= 'a' && c <= 'f':
		return ss.shards[10+c-'a']
	}
	return ss.shards[0]
}

// Lookup returns the cached record for key, marked Cached.
func (ss *ShardedStore) Lookup(key string) (Record, bool) {
	return ss.shardFor(key).Lookup(key)
}

// Append persists the record into its shard unless the key is already
// present, reporting whether a write happened. Failed records are
// rejected (Store.Append's contract).
func (ss *ShardedStore) Append(r Record) (bool, error) {
	return ss.shardFor(r.Key).AppendNew(r)
}

// Len is the total live record count across shards.
func (ss *ShardedStore) Len() int {
	n := 0
	for _, st := range ss.shards {
		n += st.Len()
	}
	return n
}

// Dead is the total dead-line count across shards (duplicates
// awaiting compaction).
func (ss *ShardedStore) Dead() int {
	n := 0
	for _, st := range ss.shards {
		n += st.Dead()
	}
	return n
}

// MergeGroups streams every shard's records through the grouping
// function, merging the sum-form results as it goes — the aggregate of
// a million-job campaign is built shard by shard without ever holding
// more than one shard's records.
func (ss *ShardedStore) MergeGroups(key func(Record) string) map[string]stats.RunRecord {
	out := map[string]stats.RunRecord{}
	for _, st := range ss.shards {
		for _, r := range st.Records() {
			if r.Err != "" {
				continue
			}
			k := key(r)
			agg := out[k]
			agg.Merge(r.Result)
			out[k] = agg
		}
	}
	return out
}

// LookupAll resolves a job-key list against the store, returning the
// records found and the count missing. The fleet coordinator uses it
// to serve campaign results and to fast-complete shards whose jobs a
// previous campaign already computed.
func (ss *ShardedStore) LookupAll(keys []string) (found []Record, missing int) {
	for _, k := range keys {
		if r, ok := ss.Lookup(k); ok {
			found = append(found, r)
		} else {
			missing++
		}
	}
	return found, missing
}

// CompactThreshold is the dead-line excess past which a background
// sweep rewrites a shard: compaction costs a full shard rewrite, so it
// runs when dead weight rivals live data, not on every duplicate.
const CompactThreshold = 256

// MaybeCompact rewrites every shard whose dead-line count exceeds both
// CompactThreshold and its live record count. It returns the number of
// shards compacted; concurrent calls coalesce (the second caller
// returns immediately), so it is safe to kick from a background
// goroutine after every burst of appends.
func (ss *ShardedStore) MaybeCompact() (int, error) {
	if !ss.compacting.TryLock() {
		return 0, nil
	}
	defer ss.compacting.Unlock()
	n := 0
	for _, st := range ss.shards {
		if d := st.Dead(); d > CompactThreshold && d > st.Len() {
			if err := st.Compact(); err != nil {
				return n, err
			}
			n++
		}
	}
	return n, nil
}

// Compact unconditionally rewrites every shard (used by tests and
// operator tooling; the background path is MaybeCompact).
func (ss *ShardedStore) Compact() error {
	ss.compacting.Lock()
	defer ss.compacting.Unlock()
	for _, st := range ss.shards {
		if err := st.Compact(); err != nil {
			return err
		}
	}
	return nil
}

// Close releases every shard file. Lookups keep working from memory.
func (ss *ShardedStore) Close() error {
	var first error
	for _, st := range ss.shards {
		if err := st.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
