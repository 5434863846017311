package campaign

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"tdmnoc/internal/obs"
	"tdmnoc/internal/stats"
)

// stubRunner returns instantly with a deterministic record derived
// from the job rate, so store tests never simulate.
func stubRunner(ctx context.Context, j Job) (stats.RunRecord, *obs.Summary, error) {
	return stats.RunRecord{Runs: 1, Packets: int64(j.Rate * 1000)}, nil, nil
}

// TestConcurrentEnginesMergeIdempotentlyOnReload is the concurrent-
// writer contract: two engines with independent store handles on the
// same file, running overlapping job lists at the same time, may both
// append records for the same config hash. On reload the duplicates
// must collapse to one record per key — the cache merges idempotently —
// and compaction must reclaim the dead lines without changing the
// live set.
func TestConcurrentEnginesMergeIdempotentlyOnReload(t *testing.T) {
	spec := Spec{
		Modes:         []string{"tdm"},
		Patterns:      []string{"transpose"},
		Meshes:        []MeshSize{{Width: 4, Height: 4}},
		Rates:         []float64{0.05, 0.10, 0.15, 0.20},
		Seeds:         []uint64{1, 2},
		WarmupCycles:  100,
		MeasureCycles: 200,
	}
	jobs, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "shared.jsonl")

	// Two handles on one file: neither sees the other's cache, so the
	// overlapping half of the job lists is written twice.
	sa, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	ea := New(Options{Workers: 2, Runner: stubRunner, Store: sa})
	eb := New(Options{Workers: 2, Runner: stubRunner, Store: sb})

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		ea.Run(context.Background(), jobs[:6]) // jobs 0-5
	}()
	go func() {
		defer wg.Done()
		eb.Run(context.Background(), jobs[2:]) // jobs 2-7: overlaps 2-5
	}()
	wg.Wait()
	sa.Close()
	sb.Close()

	reloaded, err := OpenStore(path)
	if err != nil {
		t.Fatalf("reload after concurrent writers: %v", err)
	}
	defer reloaded.Close()
	if reloaded.Len() != len(jobs) {
		t.Fatalf("reloaded %d records, want %d (duplicates must merge)", reloaded.Len(), len(jobs))
	}
	for _, j := range jobs {
		r, ok := reloaded.Lookup(j.Key)
		if !ok {
			t.Fatalf("job %s missing after reload", j.Label)
		}
		if r.Result.Runs != 1 {
			t.Fatalf("job %s: Runs = %d, want 1 (records must not double-merge)", j.Label, r.Result.Runs)
		}
	}
	if reloaded.Dead() == 0 {
		t.Fatal("expected dead lines from the overlapping writes")
	}
	if err := reloaded.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if reloaded.Dead() != 0 || reloaded.Len() != len(jobs) {
		t.Fatalf("after compact: live=%d dead=%d, want %d/0", reloaded.Len(), reloaded.Dead(), len(jobs))
	}
}

// seedShardedStore writes n records with uniformly spread key prefixes
// and returns their keys.
func seedShardedStore(t *testing.T, ss *ShardedStore, n int) []string {
	t.Helper()
	keys := make([]string, n)
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("%x%063x", i%16, i)
		keys[i] = key
		wrote, err := ss.Append(Record{Key: key, Mode: "tdm", Pattern: "ur", Rate: 0.1, Result: stats.RunRecord{Runs: 1}})
		if err != nil {
			t.Fatal(err)
		}
		if !wrote {
			t.Fatalf("record %d unexpectedly deduped", i)
		}
	}
	return keys
}

func TestShardedStoreRoutesAndReloads(t *testing.T) {
	dir := t.TempDir()
	ss, err := OpenShardedStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	keys := seedShardedStore(t, ss, 64)
	if ss.Len() != 64 {
		t.Fatalf("Len = %d, want 64", ss.Len())
	}
	ss.Close()

	// All 16 shard files exist and each carries its slice.
	files, err := filepath.Glob(filepath.Join(dir, "shard-*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != storeShards {
		t.Fatalf("found %d shard files, want %d", len(files), storeShards)
	}

	reloaded, err := OpenShardedStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer reloaded.Close()
	found, missing := reloaded.LookupAll(keys)
	if missing != 0 || len(found) != len(keys) {
		t.Fatalf("LookupAll found %d missing %d, want %d/0", len(found), missing, len(keys))
	}
	groups := reloaded.MergeGroups(func(r Record) string { return r.Mode })
	if groups["tdm"].Runs != 64 {
		t.Fatalf("MergeGroups runs = %d, want 64", groups["tdm"].Runs)
	}
}

// TestShardedStoreSkipsTornTrailingLine: a crash mid-append leaves an
// unterminated line in one shard file; reload drops just that record
// and truncates the fragment off the file.
func TestShardedStoreSkipsTornTrailingLine(t *testing.T) {
	dir := t.TempDir()
	ss, err := OpenShardedStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	seedShardedStore(t, ss, 32)
	ss.Close()

	shardPath := filepath.Join(dir, "shard-3.jsonl")
	intact, err := os.ReadFile(shardPath)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(shardPath, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"key":"3abc","resu`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	reloaded, err := OpenShardedStore(dir)
	if err != nil {
		t.Fatalf("reload with torn trailer: %v", err)
	}
	defer reloaded.Close()
	if reloaded.Len() != 32 {
		t.Fatalf("Len = %d, want 32 (torn line skipped, not loaded)", reloaded.Len())
	}
	if reloaded.Dead() != 0 {
		t.Fatalf("Dead = %d, want 0 (the torn line is truncated, not kept)", reloaded.Dead())
	}
	onDisk, err := os.ReadFile(shardPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, intact) {
		t.Fatalf("torn trailer not truncated:\ngot  %q\nwant %q", onDisk, intact)
	}
}

// TestShardedStoreFailsOnMidFileCorruption: a newline-terminated
// garbage line in the middle of a shard is real corruption, not a
// crash artifact — the open must fail loudly instead of silently
// dropping data.
func TestShardedStoreFailsOnMidFileCorruption(t *testing.T) {
	dir := t.TempDir()
	ss, err := OpenShardedStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	seedShardedStore(t, ss, 32)
	ss.Close()

	shardPath := filepath.Join(dir, "shard-5.jsonl")
	b, err := os.ReadFile(shardPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(b), "\n")
	if len(lines) < 2 {
		t.Fatalf("shard 5 has %d lines; need 2+ to corrupt the middle", len(lines))
	}
	lines[0] = "{garbage not json}\n"
	if err := os.WriteFile(shardPath, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := OpenShardedStore(dir); err == nil {
		t.Fatal("expected OpenShardedStore to fail on mid-file corruption")
	} else if !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("error %q does not mention corruption", err)
	}
}

func TestShardHelpers(t *testing.T) {
	spec := Spec{
		Modes:         []string{"tdm"},
		Patterns:      []string{"ur"},
		Rates:         []float64{0.05, 0.10, 0.15},
		Seeds:         []uint64{1, 2, 3},
		WarmupCycles:  100,
		MeasureCycles: 100,
	} // 9 jobs
	if got := spec.NumShards(4); got != 3 {
		t.Fatalf("NumShards(4) = %d, want 3", got)
	}
	if got := spec.NumShards(0); got != 0 {
		t.Fatalf("NumShards(0) = %d, want 0", got)
	}
	all, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	var derived []Job
	for i := 0; i < spec.NumShards(4); i++ {
		part, err := spec.ShardJobs(i, 4)
		if err != nil {
			t.Fatalf("ShardJobs(%d): %v", i, err)
		}
		derived = append(derived, part...)
	}
	if len(derived) != len(all) {
		t.Fatalf("shards cover %d jobs, want %d", len(derived), len(all))
	}
	for i := range all {
		if derived[i].Key != all[i].Key {
			t.Fatalf("job %d: shard derivation diverges from Expand", i)
		}
	}
	if _, err := spec.ShardJobs(99, 4); err == nil {
		t.Fatal("expected out-of-range shard to error")
	}
}
