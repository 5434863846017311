package fleet

// The write-ahead journal makes the coordinator's control plane
// crash-recoverable. Every state transition — submit, grant, renew,
// complete, expire, drain, resume — appends one JSONL record to the
// journal file before the transition is acknowledged to the caller, and
// NewCoordinator replays the file on startup to reconstruct campaigns,
// the WFQ queue, tenant usage and the lease table. The journal holds
// only control-plane bookkeeping: record *data* lives in the
// ShardedStore, which is why replay of a submit consults the store and
// fast-completes shards whose every record already landed — including
// shards completed after the submit was journaled. Active leases are
// restored with fresh TTLs so workers that kept computing across the
// restart renew and complete instead of being 410'd.
//
// Durability discipline: the journal is an internal/jsonl log and
// inherits its crash contract. Fsync is batch-wise: transitions that
// must not be lost (submit, grant, complete, expire, drain, resume)
// sync immediately, while renew records — harmless to lose, since
// recovery refreshes every active lease's TTL anyway — ride along until
// the next synced record or a 64-record backlog.
//
// Rotation bounds the file: once the journal outgrows rotateBytes, the
// coordinator snapshots its live state into a fresh file (the snapshot
// is the first record) and atomically renames it over the old journal,
// so replay cost is proportional to live state plus the tail since the
// last rotation, not to coordinator lifetime.

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"tdmnoc/internal/campaign"
	"tdmnoc/internal/jsonl"
)

// Journal op codes, one per coordinator state transition.
const (
	opSubmit   = "submit"
	opGrant    = "grant"
	opRenew    = "renew"
	opComplete = "complete"
	opExpire   = "expire"
	opDrain    = "drain"
	opResume   = "resume"
	opSnapshot = "snapshot"
)

// journalRecord is one JSONL line of the journal. Fields are shared
// across ops; unused ones are omitted.
type journalRecord struct {
	Op string `json:"op"`

	// submit: the admitted campaign's identity and normalized spec.
	// grant/complete also name the campaign for readability and replay
	// sanity checks.
	Campaign  string         `json:"campaign,omitempty"`
	Tenant    string         `json:"tenant,omitempty"`
	Weight    float64        `json:"weight,omitempty"`
	ShardSize int            `json:"shard_size,omitempty"`
	SpecHash  string         `json:"spec_hash,omitempty"`
	Spec      *campaign.Spec `json:"spec,omitempty"`

	// grant/renew/complete: the lease and its shard.
	Lease  string `json:"lease,omitempty"`
	Shard  int    `json:"shard,omitempty"`
	Jobs   int    `json:"jobs,omitempty"`
	Worker string `json:"worker,omitempty"`

	// complete: job failures reported by the completion (failed records
	// are never persisted to the store, so the count must ride here).
	Failed int `json:"failed,omitempty"`

	// expire: the swept lease ids, in sorted order so replay re-queues
	// shards exactly as the live sweep did.
	Leases []string `json:"leases,omitempty"`

	// snapshot: the full live state written at rotation.
	Snapshot *journalSnapshot `json:"snapshot,omitempty"`
}

// journalSnapshot is the rotation checkpoint: everything needed to
// rebuild the control plane without the preceding log.
type journalSnapshot struct {
	Seq      int     `json:"seq"`       // campaign id counter
	LeaseSeq int     `json:"lease_seq"` // lease id counter
	Expired  int64   `json:"expired"`   // leases expired so far
	Draining bool    `json:"draining"`
	VTime    float64 `json:"vtime"` // WFQ virtual time

	Campaigns []snapCampaign `json:"campaigns"` // admission order
	Leases    []snapLease    `json:"leases,omitempty"`
	// History carries tombstones of non-active grants for unfinished
	// campaigns, so late completions still resolve after rotation.
	// Tombstones of finished campaigns are pruned: a straggler
	// completion for one gets an unknown-lease error, but its work is
	// already in the store.
	History []snapLease `json:"history,omitempty"`
}

type snapCampaign struct {
	ID        string        `json:"id"`
	Tenant    string        `json:"tenant"`
	SpecHash  string        `json:"spec_hash"`
	ShardSize int           `json:"shard_size"`
	Spec      campaign.Spec `json:"spec"`
	Done      []int         `json:"done,omitempty"` // done shard indices, ascending
	Failed    int           `json:"failed,omitempty"`

	// Scheduling state, valid while the campaign is unfinished.
	Queued []int   `json:"queued,omitempty"` // pending shards, queue order
	Pass   float64 `json:"pass,omitempty"`
	Stride float64 `json:"stride,omitempty"`
}

type snapLease struct {
	ID       string `json:"id"`
	Campaign string `json:"campaign"`
	Shard    int    `json:"shard"`
	Jobs     int    `json:"jobs"`
	Worker   string `json:"worker,omitempty"`
}

// journal is the append side of the write-ahead log. Every method runs
// under the Coordinator's mutex — appends so that journal order equals
// transition order, stats under Metrics — which also guards the
// counters; the log guards its own file.
type journal struct {
	log      *jsonl.Log
	rotateAt int64
	unsynced int

	appends   int64
	syncs     int64
	rotations int64
	errors    int64
}

// journalSyncBacklog bounds how many unsynced renew records may
// accumulate before an fsync is forced anyway.
const journalSyncBacklog = 64

// openJournal opens (creating if needed) the journal at path and
// returns the append handle plus the parsed records.
func openJournal(path string, rotateAt int64) (*journal, []journalRecord, error) {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, nil, fmt.Errorf("fleet: journal dir: %w", err)
		}
	}
	var recs []journalRecord
	log, err := jsonl.Open(path, func(line []byte) error {
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return err
		}
		recs = append(recs, rec)
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("fleet: open journal: %w", err)
	}
	return &journal{log: log, rotateAt: rotateAt}, recs, nil
}

// append writes one record. sync forces an fsync; without it the record
// rides until the next synced append or a journalSyncBacklog backlog.
func (j *journal) append(rec journalRecord, sync bool) error {
	if err := j.log.Append(rec); err != nil {
		return fmt.Errorf("fleet: append journal record: %w", err)
	}
	j.appends++
	j.unsynced++
	if sync || j.unsynced >= journalSyncBacklog {
		if err := j.log.Sync(); err != nil {
			return fmt.Errorf("fleet: sync journal: %w", err)
		}
		j.syncs++
		j.unsynced = 0
	}
	return nil
}

// shouldRotate reports whether the journal has outgrown its threshold.
func (j *journal) shouldRotate() bool {
	return j.rotateAt > 0 && j.log.Size() > j.rotateAt
}

// rotate compacts the log: the snapshot becomes the sole record of the
// atomically rewritten journal.
func (j *journal) rotate(snap *journalSnapshot) error {
	if err := j.log.Rewrite(journalRecord{Op: opSnapshot, Snapshot: snap}); err != nil {
		return fmt.Errorf("fleet: rotate journal: %w", err)
	}
	j.unsynced = 0
	j.appends++
	j.syncs++
	j.rotations++
	return nil
}

// close syncs and releases the journal file. Idempotent. The sync's
// error is dropped: every record that must survive was synced when it
// was appended, and losing unsynced renews is what a crash does anyway.
func (j *journal) close() error {
	_ = j.log.Sync()
	return j.log.Close()
}

// stats snapshots the journal counters for Metrics.
func (j *journal) stats() (appends, syncs, rotations, errs, size int64) {
	return j.appends, j.syncs, j.rotations, j.errors, j.log.Size()
}

// countError bumps the append-failure counter (the coordinator logs the
// error itself; the counter makes it visible on /metrics).
func (j *journal) countError() { j.errors++ }

// ---------------------------------------------------------------------
// Replay: journal records -> coordinator state. All replay methods run
// before the coordinator is published (no locking needed) and with
// c.journal still nil, so replaying never re-journals.

// replay applies the journal's records in order. Any structural
// inconsistency — an out-of-sequence campaign id, a spec that no longer
// hashes to its recorded fingerprint, a grant naming an unknown
// campaign — fails loudly: recovering wrong state would silently break
// the determinism contract, while refusing to start is visible and
// actionable.
func (c *Coordinator) replay(recs []journalRecord) error {
	for i, rec := range recs {
		var err error
		switch rec.Op {
		case opSnapshot:
			err = c.replaySnapshot(rec.Snapshot)
		case opSubmit:
			err = c.replaySubmit(rec)
		case opGrant:
			err = c.replayGrant(rec)
		case opRenew:
			c.leases.renew(rec.Lease, c.opt.Now().Add(c.opt.LeaseTTL))
		case opComplete:
			err = c.replayComplete(rec)
		case opExpire:
			c.replayExpire(rec)
		case opDrain:
			c.draining = true
		case opResume:
			c.draining = false
		default:
			err = fmt.Errorf("unknown op %q", rec.Op)
		}
		if err != nil {
			return fmt.Errorf("fleet: journal record %d (%s): %w", i+1, rec.Op, err)
		}
	}
	return nil
}

// replaySubmit re-admits a journaled campaign. The spec is re-hydrated
// (re-normalized and checked against its recorded hash, so version skew
// in spec semantics fails loudly instead of silently re-sharding), and
// shards whose every record is already in the store fast-complete
// exactly as they would on resubmit — which covers shards completed
// after this submit was journaled.
func (c *Coordinator) replaySubmit(rec journalRecord) error {
	if rec.Spec == nil {
		return errors.New("submit record without spec")
	}
	want := fmt.Sprintf("c%04d", c.seq+1)
	if rec.Campaign != want {
		return fmt.Errorf("campaign id %s out of sequence (want %s)", rec.Campaign, want)
	}
	spec, err := rec.Spec.Rehydrate(rec.SpecHash)
	if err != nil {
		return err
	}
	jobs, err := spec.Expand()
	if err != nil {
		return err
	}
	shardSize := rec.ShardSize
	if shardSize <= 0 {
		shardSize = c.opt.ShardSize
	}
	c.seq++
	c.admitLocked(rec.Campaign, rec.Tenant, rec.Weight, shardSize, spec, jobs)
	return nil
}

// replayGrant re-creates an active lease with a fresh TTL, so a worker
// that held it across the restart renews and completes normally. A
// grant whose shard has since fast-completed from the store leaves only
// a tombstone: the shard is done, but the worker's eventual completion
// must still resolve.
func (c *Coordinator) replayGrant(rec journalRecord) error {
	fc := c.campaigns[rec.Campaign]
	if fc == nil {
		return fmt.Errorf("grant %s names unknown campaign %s", rec.Lease, rec.Campaign)
	}
	if rec.Shard < 0 || rec.Shard >= len(fc.shardKeys) {
		return fmt.Errorf("grant %s shard %d out of range", rec.Lease, rec.Shard)
	}
	var n int
	if _, err := fmt.Sscanf(rec.Lease, "l%d", &n); err != nil {
		return fmt.Errorf("grant lease id %q unparseable", rec.Lease)
	}
	if n > c.leases.seq {
		c.leases.seq = n
	}
	l := lease{
		id:       rec.Lease,
		campaign: rec.Campaign,
		shard:    rec.Shard,
		jobs:     rec.Jobs,
		worker:   rec.Worker,
		deadline: c.opt.Now().Add(c.opt.LeaseTTL),
	}
	if fc.done[rec.Shard] {
		c.leases.remember(l)
		return nil
	}
	c.queue.grant(rec.Campaign, rec.Shard)
	c.leases.restore(l)
	fc.leased[rec.Shard] = rec.Lease
	c.usage.lease(fc.tenant, rec.Jobs)
	return nil
}

// replayComplete re-runs the control-plane half of Complete. The
// records themselves are already in the store (Complete persists before
// journaling), so only bookkeeping is reconstructed here.
func (c *Coordinator) replayComplete(rec journalRecord) error {
	l, known := c.leases.resolve(rec.Lease)
	if !known {
		// A duplicate completion against a tombstone pruned at rotation
		// (its campaign had finished). The original call changed no
		// shard state; skip.
		return nil
	}
	_, wasActive := c.leases.drop(rec.Lease)
	fc := c.campaigns[l.campaign]
	if fc == nil {
		return fmt.Errorf("complete %s names unknown campaign %s", rec.Lease, l.campaign)
	}
	if wasActive {
		c.usage.complete(fc.tenant, l.jobs)
	}
	if fc.leased[l.shard] == rec.Lease {
		delete(fc.leased, l.shard)
	}
	if !fc.done[l.shard] {
		fc.done[l.shard] = true
		fc.doneCount++
		fc.failed += rec.Failed
		if other, ok := fc.leased[l.shard]; ok {
			if ol, active := c.leases.drop(other); active {
				c.usage.complete(fc.tenant, ol.jobs)
			}
			delete(fc.leased, l.shard)
		}
		if c.queue.take(fc.id, l.shard) {
			c.usage.addQueued(fc.tenant, -l.jobs)
		}
		if fc.finished() {
			c.queue.remove(fc.id)
		}
	}
	return nil
}

// replayExpire re-runs a sweep's re-queueing, in the journaled (sorted)
// order so the rebuilt WFQ queue matches the live coordinator's.
func (c *Coordinator) replayExpire(rec journalRecord) {
	for _, id := range rec.Leases {
		l, ok := c.leases.drop(id)
		if !ok {
			continue
		}
		c.leases.expired++
		fc := c.campaigns[l.campaign]
		if fc == nil {
			continue
		}
		if fc.leased[l.shard] == l.id {
			delete(fc.leased, l.shard)
		}
		if fc.done[l.shard] {
			continue
		}
		c.queue.push(l.campaign, l.shard)
		c.usage.requeue(fc.tenant, l.jobs)
	}
}

// replaySnapshot rebuilds the full control plane from a rotation
// checkpoint, replacing whatever was accumulated so far (a snapshot is
// always the first record of a rotated journal).
func (c *Coordinator) replaySnapshot(s *journalSnapshot) error {
	if s == nil {
		return errors.New("snapshot record without snapshot")
	}
	c.campaigns = map[string]*fleetCampaign{}
	c.order = nil
	c.leases = newLeaseTable()
	c.queue = newWFQ()
	c.usage = newTenantUsage()
	c.seq = s.Seq
	c.draining = s.Draining
	c.leases.seq = s.LeaseSeq
	c.leases.expired = s.Expired
	c.queue.vtime = s.VTime

	for _, sc := range s.Campaigns {
		spec, err := sc.Spec.Rehydrate(sc.SpecHash)
		if err != nil {
			return fmt.Errorf("campaign %s: %w", sc.ID, err)
		}
		jobs, err := spec.Expand()
		if err != nil {
			return fmt.Errorf("campaign %s: %w", sc.ID, err)
		}
		fc := &fleetCampaign{
			id:        sc.ID,
			tenant:    sc.Tenant,
			specHash:  sc.SpecHash,
			spec:      spec,
			jobs:      len(jobs),
			shardSize: sc.ShardSize,
			leased:    map[int]string{},
			failed:    sc.Failed,
		}
		nShards := spec.NumShards(fc.shardSize)
		fc.shardKeys = make([][]string, nShards)
		fc.done = make([]bool, nShards)
		for i := 0; i < nShards; i++ {
			lo := i * fc.shardSize
			hi := lo + fc.shardSize
			if hi > len(jobs) {
				hi = len(jobs)
			}
			keys := make([]string, 0, hi-lo)
			for _, j := range jobs[lo:hi] {
				keys = append(keys, j.Key)
			}
			fc.shardKeys[i] = keys
		}
		for _, d := range sc.Done {
			if d < 0 || d >= nShards {
				return fmt.Errorf("campaign %s: done shard %d out of range", sc.ID, d)
			}
			if !fc.done[d] {
				fc.done[d] = true
				fc.doneCount++
			}
		}
		c.campaigns[fc.id] = fc
		c.order = append(c.order, fc.id)
		if !fc.finished() {
			c.queue.entries[fc.id] = &queueEntry{
				id:      fc.id,
				tenant:  fc.tenant,
				pass:    sc.Pass,
				stride:  sc.Stride,
				pending: append([]int(nil), sc.Queued...),
			}
			for _, sh := range sc.Queued {
				if sh < 0 || sh >= nShards {
					return fmt.Errorf("campaign %s: queued shard %d out of range", sc.ID, sh)
				}
				c.usage.addQueued(fc.tenant, len(fc.shardKeys[sh]))
			}
		}
	}
	for _, sl := range s.History {
		c.leases.remember(lease{id: sl.ID, campaign: sl.Campaign, shard: sl.Shard, jobs: sl.Jobs, worker: sl.Worker})
	}
	for _, sl := range s.Leases {
		fc := c.campaigns[sl.Campaign]
		if fc == nil {
			return fmt.Errorf("active lease %s names unknown campaign %s", sl.ID, sl.Campaign)
		}
		c.leases.restore(lease{
			id:       sl.ID,
			campaign: sl.Campaign,
			shard:    sl.Shard,
			jobs:     sl.Jobs,
			worker:   sl.Worker,
			deadline: c.opt.Now().Add(c.opt.LeaseTTL),
		})
		fc.leased[sl.Shard] = sl.ID
		c.usage.addInflight(fc.tenant, sl.Jobs)
	}
	return nil
}

// snapshotLocked captures the live control plane for rotation. Caller
// holds c.mu.
func (c *Coordinator) snapshotLocked() *journalSnapshot {
	s := &journalSnapshot{
		Seq:      c.seq,
		LeaseSeq: c.leases.seq,
		Expired:  c.leases.expired,
		Draining: c.draining,
		VTime:    c.queue.vtime,
	}
	for _, id := range c.order {
		fc := c.campaigns[id]
		sc := snapCampaign{
			ID:        fc.id,
			Tenant:    fc.tenant,
			SpecHash:  fc.specHash,
			ShardSize: fc.shardSize,
			Spec:      fc.spec,
			Failed:    fc.failed,
		}
		for i, d := range fc.done {
			if d {
				sc.Done = append(sc.Done, i)
			}
		}
		if e := c.queue.entries[id]; e != nil {
			sc.Queued = append([]int(nil), e.pending...)
			sc.Pass = e.pass
			sc.Stride = e.stride
		}
		s.Campaigns = append(s.Campaigns, sc)
	}
	active := make([]string, 0, len(c.leases.active))
	for id := range c.leases.active {
		active = append(active, id)
	}
	sort.Strings(active)
	for _, id := range active {
		l := c.leases.active[id]
		s.Leases = append(s.Leases, snapLease{ID: l.id, Campaign: l.campaign, Shard: l.shard, Jobs: l.jobs, Worker: l.worker})
	}
	hist := make([]string, 0, len(c.leases.history))
	for id, l := range c.leases.history {
		if _, isActive := c.leases.active[id]; isActive {
			continue
		}
		fc := c.campaigns[l.campaign]
		if fc == nil || fc.finished() {
			continue
		}
		hist = append(hist, id)
	}
	sort.Strings(hist)
	for _, id := range hist {
		l := c.leases.history[id]
		s.History = append(s.History, snapLease{ID: l.id, Campaign: l.campaign, Shard: l.shard, Jobs: l.jobs, Worker: l.worker})
	}
	return s
}
