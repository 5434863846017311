package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"tdmnoc/internal/campaign"
	"tdmnoc/internal/fleet"
)

// TestMetricsExposition pins the exact /metrics bytes of a fresh server
// in each of its three roles — plain, coordinator and worker — against
// testdata: metric names, HELP/TYPE lines, series order and the empty
// setup-latency histogram are all part of the scrape contract, so any
// byte drift is a dashboard-visible change.
func TestMetricsExposition(t *testing.T) {
	for _, role := range []string{"plain", "coordinator", "worker"} {
		t.Run(role, func(t *testing.T) {
			dir := t.TempDir()
			s := newServer(dir, 2, time.Minute)
			switch role {
			case "coordinator":
				store, err := campaign.OpenShardedStore(filepath.Join(dir, "fleet"))
				if err != nil {
					t.Fatal(err)
				}
				defer store.Close()
				if s.coord, err = fleet.NewCoordinator(fleet.Options{Store: store, ShardSize: 4}); err != nil {
					t.Fatal(err)
				}
			case "worker":
				w, err := fleet.NewWorker(fleet.WorkerOptions{Coordinator: "http://127.0.0.1:1", Name: "w"})
				if err != nil {
					t.Fatal(err)
				}
				s.fworker = w
			}
			ts := httptest.NewServer(s.routes())
			defer ts.Close()
			resp, err := http.Get(ts.URL + "/metrics")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			got, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4" {
				t.Errorf("Content-Type = %q", ct)
			}
			want, err := os.ReadFile(filepath.Join("testdata", "metrics-"+role+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Fatalf("/metrics bytes differ from testdata/metrics-%s.txt:\ngot:\n%s", role, got)
			}
		})
	}
}
