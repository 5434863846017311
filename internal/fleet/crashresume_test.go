package fleet

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"tdmnoc/internal/campaign"
	"tdmnoc/internal/policy"
	"tdmnoc/internal/stats"
)

// crashKey names record i. The leading nibble routes every record of
// the sharded case into shard-3.jsonl.
func crashKey(i int) string { return fmt.Sprintf("3%063x", i) }

// crashProbe lists, in index order, which of the first few records a
// store serves.
func crashProbe(has func(key string) bool) []int {
	var got []int
	for i := 0; i < 8; i++ {
		if has(crashKey(i)) {
			got = append(got, i)
		}
	}
	return got
}

// crashLog adapts one JSONL-backed log to TestCrashResumeAppendReopen.
// open replays the log under dir and returns an appender for record i,
// the record indices the open replayed, and the close function.
type crashLog struct {
	name string
	file string // the file the crash tears, relative to dir
	torn string // the unterminated fragment the crash left behind
	open func(t *testing.T, dir string) (put func(i int) error, got []int, close func() error)
}

func openCrashStore(t *testing.T, dir string) (func(int) error, []int, func() error) {
	st, err := campaign.OpenStore(filepath.Join(dir, "store.jsonl"))
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	put := func(i int) error {
		return st.Append(campaign.Record{Key: crashKey(i), Result: stats.RunRecord{Runs: 1}})
	}
	got := crashProbe(func(k string) bool { _, ok := st.Lookup(k); return ok })
	return put, got, st.Close
}

func openCrashJournal(t *testing.T, dir string) (func(int) error, []int, func() error) {
	j, recs, err := openJournal(filepath.Join(dir, "fleet.journal"), 0)
	if err != nil {
		t.Fatalf("openJournal: %v", err)
	}
	put := func(i int) error {
		return j.append(journalRecord{Op: opRenew, Lease: fmt.Sprintf("l%d", i)}, false)
	}
	got := []int{}
	for _, rec := range recs {
		var i int
		if _, err := fmt.Sscanf(rec.Lease, "l%d", &i); err != nil {
			t.Fatalf("replayed unexpected record %+v", rec)
		}
		got = append(got, i)
	}
	return put, got, j.close
}

// TestCrashResumeAppendReopen is the crash contract of every JSONL log
// (the result store, one sharded-store shard, the profile store and the
// fleet journal): a crash leaves an unterminated fragment after the
// intact records; the resuming process opens the log and appends; a
// later open must still succeed and replay every intact record plus the
// new one, from a file that ends on a line boundary. A torn trailer is
// dropped even when it happens to parse: a write cut short before its
// newline was never acknowledged.
func TestCrashResumeAppendReopen(t *testing.T) {
	storeTorn := `{"key":"3abc","resu`
	storeWhole := fmt.Sprintf(`{"key":%q,"result":{"runs":1}}`, crashKey(7))
	cases := []crashLog{
		{name: "store", file: "store.jsonl", torn: storeTorn, open: openCrashStore},
		{name: "store/parseable-trailer", file: "store.jsonl", torn: storeWhole, open: openCrashStore},
		{
			name: "sharded-store", file: "store/shard-3.jsonl", torn: storeTorn,
			open: func(t *testing.T, dir string) (func(int) error, []int, func() error) {
				ss, err := campaign.OpenShardedStore(filepath.Join(dir, "store"))
				if err != nil {
					t.Fatalf("OpenShardedStore: %v", err)
				}
				put := func(i int) error {
					_, err := ss.Append(campaign.Record{Key: crashKey(i), Result: stats.RunRecord{Runs: 1}})
					return err
				}
				got := crashProbe(func(k string) bool { _, ok := ss.Lookup(k); return ok })
				return put, got, ss.Close
			},
		},
		{
			name: "profile-store", file: "profiles.jsonl", torn: `{"key":"3abc","profile":{"mo`,
			open: func(t *testing.T, dir string) (func(int) error, []int, func() error) {
				ps, err := campaign.OpenProfileStore(filepath.Join(dir, "profiles.jsonl"))
				if err != nil {
					t.Fatalf("OpenProfileStore: %v", err)
				}
				put := func(i int) error {
					return ps.Append(crashKey(i), &policy.Profile{Mode: "tdm", Injected: int64(i)})
				}
				got := crashProbe(func(k string) bool { _, ok := ps.Lookup(k); return ok })
				return put, got, ps.Close
			},
		},
		{name: "journal", file: "fleet.journal", torn: `{"op":"grant","campaign":"c0001","lea`, open: openCrashJournal},
		{name: "journal/parseable-trailer", file: "fleet.journal", torn: `{"op":"drain"}`, open: openCrashJournal},
	}
	const intact = 3
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			put, _, closeLog := tc.open(t, dir)
			for i := 0; i < intact; i++ {
				if err := put(i); err != nil {
					t.Fatal(err)
				}
			}
			if err := closeLog(); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, tc.file)
			f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteString(tc.torn); err != nil {
				t.Fatal(err)
			}
			f.Close()

			want := []int{0, 1, 2}
			put, got, closeLog := tc.open(t, dir)
			if !slices.Equal(got, want) {
				t.Fatalf("resume replayed %v, want %v", got, want)
			}
			if err := put(intact); err != nil {
				t.Fatal(err)
			}
			if err := closeLog(); err != nil {
				t.Fatal(err)
			}

			want = append(want, intact)
			_, got, closeLog = tc.open(t, dir)
			defer closeLog()
			if !slices.Equal(got, want) {
				t.Fatalf("reopen replayed %v, want %v", got, want)
			}
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if len(b) == 0 || b[len(b)-1] != '\n' {
				t.Fatalf("log does not end on a line boundary: %q", b)
			}
		})
	}
}
