// Package promtext writes the Prometheus text exposition format
// (version 0.0.4) that cmd/nocsimd serves on /metrics, including the
// fleet coordinator's families folded into it. Every family is a HELP
// line, a TYPE line and its samples, written in call order so the
// series order of a scrape is the order of the calls. Write errors are
// left to the caller's io.Writer (an http.ResponseWriter drops them
// the same way on a vanished client).
package promtext

import (
	"fmt"
	"io"
)

// Integer is the sample value types the exporters hold.
type Integer interface {
	~int | ~int64 | ~uint64
}

// Header writes a family's HELP and TYPE lines; Sample lines follow.
func Header(w io.Writer, name, help, typ string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// Sample writes one labelled series of the current family. The label
// value is quoted with Go's %q, which matches Prometheus escaping for
// backslashes, quotes and newlines.
func Sample[T Integer](w io.Writer, name, label, value string, v T) {
	fmt.Fprintf(w, "%s{%s=%q} %d\n", name, label, value, v)
}

// Counter writes an unlabelled counter family.
func Counter[T Integer](w io.Writer, name, help string, v T) {
	single(w, name, help, "counter", v)
}

// Gauge writes an unlabelled gauge family.
func Gauge[T Integer](w io.Writer, name, help string, v T) {
	single(w, name, help, "gauge", v)
}

func single[T Integer](w io.Writer, name, help, typ string, v T) {
	Header(w, name, help, typ)
	fmt.Fprintf(w, "%s %d\n", name, v)
}

// Histogram writes a histogram family from per-bucket (not cumulative)
// counts: buckets[i] counts observations <= le[i] and above le[i-1].
// The +Inf bucket and _count both read count, which also covers
// observations above the last bound.
func Histogram(w io.Writer, name, help string, le []int64, buckets []uint64, sum int64, count uint64) {
	Header(w, name, help, "histogram")
	cum := uint64(0)
	for i, bound := range le {
		cum += buckets[i]
		Sample(w, name+"_bucket", "le", fmt.Sprint(bound), cum)
	}
	Sample(w, name+"_bucket", "le", "+Inf", count)
	fmt.Fprintf(w, "%s_sum %d\n%s_count %d\n", name, sum, name, count)
}
