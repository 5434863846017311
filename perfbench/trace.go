package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer: its name, its interval relative to
// the tracer's epoch, and the span that made the call (0 = none).
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory for one repetition. A nil tracer records
// nothing, so untraced repetitions run the same code without the cost.
// Runner spans start and end on engine worker goroutines, hence the lock.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under parent and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: now, End: now})
	return id
}

// end closes the span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeSpans writes spans as one JSON array to path.
func writeSpans(path string, spans []span) error {
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// unionDur is the total length of the union of the spans' intervals, so
// concurrent spans are counted once.
func unionDur(spans []span) time.Duration {
	iv := append([]span(nil), spans...)
	sort.Slice(iv, func(i, j int) bool { return iv[i].Start < iv[j].Start })
	var total time.Duration
	var lo, hi time.Duration
	open := false
	for _, s := range iv {
		if open && s.Start <= hi {
			hi = max(hi, s.End)
			continue
		}
		if open {
			total += hi - lo
		}
		lo, hi, open = s.Start, s.End, true
	}
	if open {
		total += hi - lo
	}
	return total
}

// children returns the spans whose parent is id.
func children(spans []span, id int) []span {
	var out []span
	for _, s := range spans {
		if s.Parent == id {
			out = append(out, s)
		}
	}
	return out
}

// selfDur is a span's duration minus the part of it its children cover.
func selfDur(spans []span, s span) time.Duration {
	return s.dur() - unionDur(children(spans, s.ID))
}

// named returns the spans called name.
func named(spans []span, name string) []span {
	var out []span
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// sumDur adds up the spans' durations (concurrent spans count twice:
// this is busy time, not wall time).
func sumDur(spans []span) time.Duration {
	var d time.Duration
	for _, s := range spans {
		d += s.dur()
	}
	return d
}

// cpuModules are the modules the CPU profile is split into; a leaf frame
// in any other package counts as "other", and the Go runtime (GC,
// allocator, scheduler) as "runtime".
var cpuModules = []string{"router", "network", "hybrid", "sdm", "power", "flit", "traffic",
	"invariant", "campaign", "sim", "obs", "policy", "runtime", "other"}

// moduleOf maps a profiled function name to its module.
func moduleOf(fn string) string {
	if strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") ||
		strings.HasPrefix(fn, "internal/runtime/") {
		return "runtime"
	}
	const internal = "tdmnoc/internal/"
	if rest, ok := strings.CutPrefix(fn, internal); ok {
		pkg := rest
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			pkg = rest[:i]
		}
		for _, m := range cpuModules {
			if m == pkg {
				return m
			}
		}
	}
	return "other"
}

// hsnocEntries classifies a sample by the public hsnoc call it ran under:
// the first frame, walking from the leaf outwards, with one of these
// prefixes names the call.
var hsnocEntries = []struct{ prefix, layer string }{
	{"tdmnoc/hsnoc.NewSynthetic", "build"},
	{"tdmnoc/hsnoc.(*Simulator).Warmup", "warmup"},
	{"tdmnoc/hsnoc.(*Simulator).Run", "run"},
}

// cpuProfile is a CPU profile aggregated for the ledger: seconds by the
// leaf frame's module, and seconds under each public hsnoc call.
type cpuProfile struct {
	Module map[string]float64
	Under  map[string]float64
	Total  float64
}

// readCPUProfile decodes a gzipped runtime/pprof CPU profile and
// aggregates it. Only the fields the ledger needs are decoded: samples
// (location ids and values), locations (their inlined line chains),
// functions and the string table.
func readCPUProfile(path string) (cpuProfile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return cpuProfile{}, err
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return cpuProfile{}, fmt.Errorf("profile %s: %w", path, err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return cpuProfile{}, fmt.Errorf("profile %s: %w", path, err)
	}
	type sample struct {
		locs   []uint64
		values []int64
	}
	var samples []sample
	locFuncs := map[uint64][]uint64{} // location id -> function ids, leaf first
	funcName := map[uint64]int64{}    // function id -> string index
	var strs []string
	err = pbFields(data, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s sample
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = pbUints(s.locs, v, b)
				case 2:
					for _, u := range pbUints(nil, v, b) {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return pbFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := pbFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return cpuProfile{}, fmt.Errorf("profile %s: %w", path, err)
	}
	name := func(fid uint64) string {
		if i := funcName[fid]; i >= 0 && int(i) < len(strs) {
			return strs[i]
		}
		return ""
	}
	p := cpuProfile{Module: map[string]float64{}, Under: map[string]float64{}}
	for _, s := range samples {
		// CPU profiles carry [samples, cpu nanoseconds].
		if len(s.values) < 2 || len(s.locs) == 0 {
			continue
		}
		sec := float64(s.values[1]) / 1e9
		p.Total += sec
		leaf := ""
		if fns := locFuncs[s.locs[0]]; len(fns) > 0 {
			leaf = name(fns[0])
		}
		p.Module[moduleOf(leaf)] += sec
	frames:
		for _, loc := range s.locs {
			for _, fid := range locFuncs[loc] {
				fn := name(fid)
				for _, e := range hsnocEntries {
					if strings.HasPrefix(fn, e.prefix) {
						p.Under[e.layer] += sec
						break frames
					}
				}
			}
		}
	}
	return p, nil
}

var errTruncated = errors.New("truncated protobuf")

// pbFields walks the top-level fields of a protobuf message, calling fn
// with the field number and either the varint value or the bytes of a
// length-delimited field. Fixed-width fields are skipped.
func pbFields(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n == 0 {
			return errTruncated
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := pbVarint(b)
			if n == 0 {
				return errTruncated
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1, 5:
			w := 8
			if wire == 5 {
				w = 4
			}
			if len(b) < w {
				return errTruncated
			}
			b = b[w:]
		case 2:
			l, n := pbVarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			if err := fn(field, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
	}
	return nil
}

// pbUints appends a repeated integer field, which the encoder writes
// either packed (data set) or as one varint per entry (v set).
func pbUints(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		u, n := pbVarint(data)
		if n == 0 {
			break
		}
		dst = append(dst, u)
		data = data[n:]
	}
	return dst
}

// pbVarint decodes one varint, returning it and its length (0 = invalid).
func pbVarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}
