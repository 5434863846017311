package jsonl

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// errInvalid is the replay verdict on a line that is not JSON.
var errInvalid = errors.New("not JSON")

// openCollect opens path and returns the lines it replayed, rejecting
// any line that is not valid JSON.
func openCollect(path string) (*Log, [][]byte, error) {
	var got [][]byte
	l, err := Open(path, func(line []byte) error {
		if !json.Valid(line) {
			return errInvalid
		}
		got = append(got, bytes.Clone(line))
		return nil
	})
	return l, got, err
}

// appendReopen checks that an opened log takes one more record and that
// a fresh open then replays the old lines plus it.
func appendReopen(t *testing.T, path string, l *Log, before [][]byte) {
	t.Helper()
	if err := l.Append("appended"); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	l2, got, err := openCollect(path)
	if err != nil {
		t.Fatalf("reopen after append: %v", err)
	}
	l2.Close()
	want := append(append([][]byte{}, before...), []byte(`"appended"`))
	if !equalLines(got, want) {
		t.Fatalf("reopen replayed %q, want %q", got, want)
	}
}

func equalLines(a, b [][]byte) bool { return slices.EqualFunc(a, b, bytes.Equal) }

// FuzzLogReplay checks the crash contract on logs built from the fuzz
// payload (one string record per ';'-separated chunk):
//   - every cut of a valid log opens and replays exactly the complete
//     lines before the cut, and truncates the file back to them;
//   - a byte flip either fails the open with ErrCorrupt or opens a file
//     that is empty or ends in '\n';
//   - after any successful open, append, close and reopen succeeds.
func FuzzLogReplay(f *testing.F) {
	f.Add([]byte("alpha;beta;gamma"), uint32(9), uint32(3), byte(0x20))
	f.Add([]byte(`{"op":"drain"};{"op":"resume"}`), uint32(40), uint32(12), byte('"'^'\n')) // splits a line
	f.Add([]byte("x;y"), uint32(5), uint32(3), byte('\n'^'}'))                              // joins two lines
	f.Add([]byte(""), uint32(1), uint32(0), byte(1))
	f.Fuzz(func(t *testing.T, payload []byte, cut, flipAt uint32, mask byte) {
		path := filepath.Join(t.TempDir(), "log.jsonl")
		l, err := Open(path, func([]byte) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range bytes.Split(payload, []byte{';'}) {
			if err := l.Append(string(rec)); err != nil {
				t.Fatal(err)
			}
		}
		l.Close()
		valid, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}

		// Cut: a crash at any byte.
		c := int(cut % uint32(len(valid)+1))
		intact := valid[:bytes.LastIndexByte(valid[:c], '\n')+1]
		var want [][]byte
		for _, line := range bytes.SplitAfter(intact, []byte{'\n'}) {
			if len(line) > 0 {
				want = append(want, bytes.TrimSpace(line))
			}
		}
		if err := os.WriteFile(path, valid[:c], 0o644); err != nil {
			t.Fatal(err)
		}
		l, got, err := openCollect(path)
		if err != nil {
			t.Fatalf("open after cut at %d: %v", c, err)
		}
		if !equalLines(got, want) {
			t.Fatalf("cut at %d replayed %q, want %q", c, got, want)
		}
		if onDisk, _ := os.ReadFile(path); !bytes.Equal(onDisk, intact) {
			t.Fatalf("cut at %d left %q, want %q", c, onDisk, intact)
		}
		appendReopen(t, path, l, want)

		// Flip: arbitrary damage to one byte.
		if len(valid) == 0 || mask == 0 {
			return
		}
		damaged := bytes.Clone(valid)
		damaged[int(flipAt%uint32(len(valid)))] ^= mask
		if err := os.WriteFile(path, damaged, 0o644); err != nil {
			t.Fatal(err)
		}
		l, got, err = openCollect(path)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("flip failed open without ErrCorrupt: %v", err)
			}
			return
		}
		onDisk, _ := os.ReadFile(path)
		if len(onDisk) > 0 && onDisk[len(onDisk)-1] != '\n' {
			t.Fatalf("flip left a log not ending in a newline: %q", onDisk)
		}
		appendReopen(t, path, l, got)
	})
}
