package promtext

import (
	"strings"
	"testing"
)

// TestExpositionBytes pins every writer's exact output: the format is a
// wire contract with scrapers, so a changed byte is a changed series.
func TestExpositionBytes(t *testing.T) {
	var b strings.Builder
	Counter(&b, "x_total", "Things done.", int64(3))
	Gauge(&b, "x_depth", "Things waiting.", 2)
	Header(&b, "x_by_tenant", "Things per tenant.", "gauge")
	Sample(&b, "x_by_tenant", "tenant", `a"b`, 1)
	Sample(&b, "x_by_tenant", "shard", "0", uint64(4))
	Histogram(&b, "x_latency", "Latency.", []int64{8, 16}, []uint64{1, 2}, 40, 5)
	want := `# HELP x_total Things done.
# TYPE x_total counter
x_total 3
# HELP x_depth Things waiting.
# TYPE x_depth gauge
x_depth 2
# HELP x_by_tenant Things per tenant.
# TYPE x_by_tenant gauge
x_by_tenant{tenant="a\"b"} 1
x_by_tenant{shard="0"} 4
# HELP x_latency Latency.
# TYPE x_latency histogram
x_latency_bucket{le="8"} 1
x_latency_bucket{le="16"} 3
x_latency_bucket{le="+Inf"} 5
x_latency_sum 40
x_latency_count 5
`
	if got := b.String(); got != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", got, want)
	}
}
