package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"

	"tdmnoc/internal/promtext"
)

// Register mounts the coordinator's wire protocol on mux under
// /fleet/. The handlers are a thin JSON skin over the Coordinator
// methods; all policy (quotas, fairness, lease expiry) lives there.
func (c *Coordinator) Register(mux *http.ServeMux) {
	mux.HandleFunc("POST /fleet/campaigns", c.handleSubmit)
	mux.HandleFunc("GET /fleet/campaigns", c.handleList)
	mux.HandleFunc("GET /fleet/campaigns/{id}", c.handleStatus)
	mux.HandleFunc("GET /fleet/campaigns/{id}/summary", c.handleSummary)
	mux.HandleFunc("GET /fleet/campaigns/{id}/results", c.handleResults)
	mux.HandleFunc("POST /fleet/lease", c.handleLease)
	mux.HandleFunc("POST /fleet/leases/{id}/renew", c.handleRenew)
	mux.HandleFunc("POST /fleet/leases/{id}/complete", c.handleComplete)
	mux.HandleFunc("GET /fleet/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		c.WriteMetrics(w)
	})
}

func fleetJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func fleetError(w http.ResponseWriter, code int, format string, args ...any) {
	fleetJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// retryAfter attaches the standard backoff hint header (whole seconds,
// rounded up so "0" never tells a client to hammer immediately).
func (c *Coordinator) retryAfter(w http.ResponseWriter) {
	secs := int(c.opt.RetryAfter.Seconds())
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
}

func (c *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		fleetError(w, http.StatusBadRequest, "decode submit: %v", err)
		return
	}
	resp, err := c.Submit(req)
	switch {
	case errors.Is(err, ErrDraining):
		c.retryAfter(w)
		fleetError(w, http.StatusServiceUnavailable, "%v", err)
	case errors.Is(err, ErrJournal):
		// The campaign was refused because its write-ahead record could
		// not be made durable — a server-side storage fault, not a bad
		// request. Retryable once the disk recovers.
		c.retryAfter(w)
		fleetError(w, http.StatusServiceUnavailable, "%v", err)
	case err != nil:
		var qe *QuotaError
		if errors.As(err, &qe) {
			c.retryAfter(w)
			fleetError(w, http.StatusTooManyRequests, "%v", err)
			return
		}
		fleetError(w, http.StatusBadRequest, "%v", err)
	default:
		fleetJSON(w, http.StatusAccepted, resp)
	}
}

func (c *Coordinator) handleList(w http.ResponseWriter, r *http.Request) {
	fleetJSON(w, http.StatusOK, c.Statuses())
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, ok := c.Status(r.PathValue("id"))
	if !ok {
		fleetError(w, http.StatusNotFound, "no campaign %q", r.PathValue("id"))
		return
	}
	fleetJSON(w, http.StatusOK, st)
}

// handleSummary serves the campaign's per-group merged aggregates in
// sorted group order — the byte-stable shape the determinism contract
// is checked against.
func (c *Coordinator) handleSummary(w http.ResponseWriter, r *http.Request) {
	agg, ok := c.Summary(r.PathValue("id"))
	if !ok {
		fleetError(w, http.StatusNotFound, "no campaign %q", r.PathValue("id"))
		return
	}
	keys, _ := SummaryGroups(agg)
	type row struct {
		Group  string          `json:"group"`
		Result json.RawMessage `json:"result"`
	}
	rows := make([]row, 0, len(keys))
	for _, k := range keys {
		b, err := json.Marshal(agg[k])
		if err != nil {
			fleetError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		rows = append(rows, row{Group: k, Result: b})
	}
	fleetJSON(w, http.StatusOK, rows)
}

// handleResults streams the campaign's records in job order (JSONL
// with ?format=jsonl), plus an X-Fleet-Missing header with the count
// of jobs not yet in the store.
func (c *Coordinator) handleResults(w http.ResponseWriter, r *http.Request) {
	recs, missing, ok := c.Records(r.PathValue("id"))
	if !ok {
		fleetError(w, http.StatusNotFound, "no campaign %q", r.PathValue("id"))
		return
	}
	w.Header().Set("X-Fleet-Missing", strconv.Itoa(missing))
	if r.URL.Query().Get("format") == "jsonl" {
		w.Header().Set("Content-Type", "application/jsonl")
		enc := json.NewEncoder(w)
		for _, rec := range recs {
			enc.Encode(rec)
		}
		return
	}
	fleetJSON(w, http.StatusOK, recs)
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil && !errors.Is(err, io.EOF) {
		fleetError(w, http.StatusBadRequest, "decode lease: %v", err)
		return
	}
	resp, ok := c.Lease(req.Worker)
	if !ok {
		// No work (or draining): 204 tells the worker to idle-poll, not
		// to treat it as an error.
		w.WriteHeader(http.StatusNoContent)
		return
	}
	fleetJSON(w, http.StatusOK, resp)
}

func (c *Coordinator) handleRenew(w http.ResponseWriter, r *http.Request) {
	if c.Renew(r.PathValue("id")) {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	fleetError(w, http.StatusGone, "lease %q expired or unknown", r.PathValue("id"))
}

func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req CompleteRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		fleetError(w, http.StatusBadRequest, "decode complete: %v", err)
		return
	}
	resp, err := c.Complete(r.PathValue("id"), req.Records)
	if err != nil {
		fleetError(w, http.StatusNotFound, "%v", err)
		return
	}
	fleetJSON(w, http.StatusOK, resp)
}

// WriteMetrics emits the coordinator counters in Prometheus text
// exposition format. cmd/nocsimd folds this into its /metrics when
// running as a coordinator.
func (c *Coordinator) WriteMetrics(w io.Writer) {
	m := c.Metrics()
	promtext.Counter(w, "fleet_campaigns_total", "Campaigns admitted since start.", m.CampaignsTotal)
	promtext.Gauge(w, "fleet_campaigns_running", "Campaigns with unfinished shards.", m.CampaignsRunning)
	promtext.Gauge(w, "fleet_queue_depth", "Shards awaiting lease.", m.QueueDepth)
	promtext.Gauge(w, "fleet_leases_active", "Shards currently leased to workers.", m.LeasesActive)
	promtext.Counter(w, "fleet_leases_expired_total", "Leases expired and re-queued.", m.LeasesExpired)
	promtext.Counter(w, "fleet_submits_rejected_total", "Submits rejected by quota or drain.", m.SubmitsRejected)
	promtext.Counter(w, "fleet_jobs_completed_total", "Jobs whose records landed.", m.JobsCompleted)
	promtext.Counter(w, "fleet_jobs_failed_total", "Job failures reported by workers.", m.JobsFailed)
	promtext.Counter(w, "fleet_records_persisted_total", "Records written to the sharded store.", m.RecordsPersisted)
	promtext.Counter(w, "fleet_records_duplicate_total", "Completion records deduped by the store.", m.RecordsDuplicate)
	promtext.Counter(w, "fleet_store_shards_compacted_total", "Store shard files rewritten by compaction.", m.ShardsCompacted)
	promtext.Gauge(w, "fleet_store_live_records", "Live records across store shards.", m.StoreLive)
	promtext.Gauge(w, "fleet_store_dead_lines", "Dead lines awaiting compaction.", m.StoreDead)
	writeTenantGauge(w, "fleet_tenant_inflight_jobs", "Leased jobs per tenant.", m.TenantInflight)
	writeTenantGauge(w, "fleet_tenant_queued_jobs", "Queued jobs per tenant.", m.TenantQueued)
	promtext.Counter(w, "fleet_accounting_underflow_total", "Tenant usage updates clamped at zero (accounting bug indicator).", m.AccountingUnderflow)
	enabled := 0
	if m.JournalEnabled {
		enabled = 1
	}
	promtext.Gauge(w, "fleet_journal_enabled", "Whether a write-ahead journal is configured.", enabled)
	promtext.Counter(w, "fleet_journal_records_total", "Journal records appended since start.", m.JournalRecords)
	promtext.Counter(w, "fleet_journal_syncs_total", "Journal fsyncs.", m.JournalSyncs)
	promtext.Counter(w, "fleet_journal_rotations_total", "Journal snapshot rotations.", m.JournalRotations)
	promtext.Counter(w, "fleet_journal_errors_total", "Journal append or rotation failures.", m.JournalErrors)
	promtext.Gauge(w, "fleet_journal_size_bytes", "Current journal file size.", m.JournalSizeBytes)
	promtext.Gauge(w, "fleet_journal_replayed_records", "Journal records replayed at startup.", m.JournalReplayed)
}

// writeTenantGauge writes one gauge family with a series per tenant,
// in tenant-name order so scrapes are stable.
func writeTenantGauge(w io.Writer, name, help string, counts map[string]int) {
	promtext.Header(w, name, help, "gauge")
	tenants := make([]string, 0, len(counts))
	for t := range counts {
		tenants = append(tenants, t)
	}
	sort.Strings(tenants)
	for _, t := range tenants {
		promtext.Sample(w, name, "tenant", t, counts[t])
	}
}
