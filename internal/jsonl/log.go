// Package jsonl is the append-only JSON-lines log under every durable
// file of the campaign layer and the fleet coordinator: the result
// store and its shards, the profile store and the write-ahead journal.
// Callers own the records; this package owns the bytes on disk and the
// crash contract, stated here and nowhere else:
//
//   - Append writes a record and its '\n' in a single write, without
//     fsync, so no acknowledged record lacks its newline. Sync is the
//     explicit fsync.
//   - Open therefore treats an unterminated final line as torn by a
//     crash, even if it parses: it is not replayed, and the file is
//     truncated back to the last newline so the next append cannot fuse
//     with it into one corrupt line.
//   - A newline-terminated line that replay rejects is real corruption
//     and fails Open with ErrCorrupt instead of silently dropping data.
//   - Rewrite replaces the log through a temp file, an fsync and an
//     atomic rename, so a crash leaves the old log or the new one.
//
// Truncate-at-open assumes that no other handle is mid-append to the
// file while it is being opened: another writer's half-written record
// would be taken for a torn trailer and cut off. Two handles on one
// file (two engines sharing a store) must both be open before either
// writes.
package jsonl

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
)

// ErrCorrupt marks an Open that failed because replay rejected a
// newline-terminated line.
var ErrCorrupt = errors.New("corrupt record")

// Log is one append-only JSONL file. It is safe for concurrent use.
type Log struct {
	mu   sync.Mutex
	f    *os.File // nil once closed
	path string
	size int64 // bytes of complete lines in the file
}

// Open opens (creating if needed) the log at path and calls replay, in
// order, with each non-blank newline-terminated line, trimmed of
// surrounding whitespace. The line is only valid during the call. A
// torn trailer is truncated away (see the package comment); a replay
// error fails the open with an error wrapping both ErrCorrupt and the
// replay error.
func Open(path string, replay func(line []byte) error) (*Log, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("jsonl: %w", err)
	}
	l := &Log{f: f, path: path}
	if err := l.replay(replay); err != nil {
		f.Close()
		return nil, err
	}
	return l, nil
}

// replay reads the file from the start. ReadBytes rather than a
// Scanner: records have no line-length cap.
func (l *Log) replay(fn func(line []byte) error) error {
	br := bufio.NewReader(l.f)
	for n := 1; ; n++ {
		line, err := br.ReadBytes('\n')
		if errors.Is(err, io.EOF) {
			if len(line) > 0 {
				if err := l.f.Truncate(l.size); err != nil {
					return fmt.Errorf("jsonl: truncate torn trailer of %s: %w", l.path, err)
				}
			}
			return nil
		}
		if err != nil {
			return fmt.Errorf("jsonl: read %s: %w", l.path, err)
		}
		l.size += int64(len(line))
		if line = bytes.TrimSpace(line); len(line) > 0 {
			if err := fn(line); err != nil {
				return fmt.Errorf("jsonl: %s line %d: %w: %w", l.path, n, ErrCorrupt, err)
			}
		}
	}
}

// encode renders one record as a complete line.
func encode(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("jsonl: encode record: %w", err)
	}
	return append(b, '\n'), nil
}

// closedLocked reports the error for use after Close. Caller holds l.mu.
func (l *Log) closedLocked() error {
	if l.f == nil {
		return fmt.Errorf("jsonl: %s: %w", l.path, os.ErrClosed)
	}
	return nil
}

// Append marshals v and writes it as one line, without fsync.
func (l *Log) Append(v any) error {
	b, err := encode(v)
	if err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.closedLocked(); err != nil {
		return err
	}
	if _, err := l.f.Write(b); err != nil {
		// Roll back a short write (a full disk) so the next append
		// starts on a line boundary instead of fusing with the fragment.
		if terr := l.f.Truncate(l.size); terr != nil {
			err = errors.Join(err, terr)
		}
		return fmt.Errorf("jsonl: append to %s: %w", l.path, err)
	}
	l.size += int64(len(b))
	return nil
}

// Sync fsyncs every line appended so far.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.closedLocked(); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("jsonl: sync %s: %w", l.path, err)
	}
	return nil
}

// Rewrite atomically replaces the log's contents with recs, one line
// each: temp file, fsync, rename over the log, reopen for appending.
func (l *Log) Rewrite(recs ...any) error {
	var buf bytes.Buffer
	for _, v := range recs {
		b, err := encode(v)
		if err != nil {
			return err
		}
		buf.Write(b)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.closedLocked(); err != nil {
		return err
	}
	tmp := l.path + ".rewrite"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err == nil {
		if _, err = f.Write(buf.Bytes()); err == nil {
			err = f.Sync()
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err == nil {
		err = os.Rename(tmp, l.path)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("jsonl: rewrite %s: %w", l.path, err)
	}
	f, err = os.OpenFile(l.path, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		// The new contents are in place but the append handle is lost;
		// surface it, since later appends would fail anyway.
		return fmt.Errorf("jsonl: reopen rewritten %s: %w", l.path, err)
	}
	l.f.Close()
	l.f = f
	l.size = int64(buf.Len())
	return nil
}

// Size is the byte length of the log's complete lines.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// Close releases the file without fsync. It is idempotent.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}
