package experiments

import (
	"encoding/json"
	"io"
	"math"

	"twolevel/internal/buildinfo"
)

// ReportJSON is the machine-readable form of a Report: the same encoder
// backs brexp's -json report output and the reports section of
// metrics.json, so downstream tooling reads one schema instead of
// scraping tabwriter output. Cells that render as "-" in the text table
// (NaN / infinite) are omitted from the maps.
type ReportJSON struct {
	ID      string   `json:"id"`
	Title   string   `json:"title"`
	Columns []string `json:"columns"`
	// Percent marks values as fractions meant to render as percentages.
	Percent bool     `json:"percent"`
	Notes   []string `json:"notes,omitempty"`
	// Series maps series label -> column (benchmark) -> value.
	Series map[string]map[string]float64 `json:"series"`
}

// JSON converts the report to its machine-readable form.
func (r *Report) JSON() *ReportJSON {
	out := &ReportJSON{
		ID:      r.ID,
		Title:   r.Title,
		Columns: r.Columns,
		Percent: r.Percent,
		Notes:   r.Notes,
		Series:  make(map[string]map[string]float64, len(r.Series)),
	}
	for _, s := range r.Series {
		row := make(map[string]float64, len(s.Values))
		for i, v := range s.Values {
			if i >= len(r.Columns) || math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			row[r.Columns[i]] = v
		}
		out.Series[s.Label] = row
	}
	return out
}

// WriteJSON renders the report as an indented JSON document.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.JSON())
}

// MetricsDocument is the top-level schema of metrics.json: build
// provenance, per-experiment summaries, per-run telemetry, optionally the
// reports themselves, and — when a Monitor served the run — its final
// counter snapshot, which must agree with the last /metrics scrape.
type MetricsDocument struct {
	Version     buildinfo.Info      `json:"version"`
	Experiments []ExperimentMetrics `json:"experiments"`
	Runs        []RunMetrics        `json:"runs"`
	Reports     []*ReportJSON       `json:"reports,omitempty"`
	Monitor     *MonitorSnapshot    `json:"monitor,omitempty"`
}

// Document assembles the metrics document from everything the collector
// recorded, attaching the given reports. Callers serving a Monitor attach
// its final snapshot via the Monitor field before writing.
func (t *Telemetry) Document(reports ...*Report) *MetricsDocument {
	doc := &MetricsDocument{
		Version:     buildinfo.Read(),
		Experiments: t.Experiments(),
		Runs:        t.Runs(),
	}
	for _, r := range reports {
		doc.Reports = append(doc.Reports, r.JSON())
	}
	return doc
}

// Write renders the document as indented JSON.
func (d *MetricsDocument) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// ForensicsDocument is the top-level schema of forensics.json (brexp
// -forensics): build provenance, the collection parameters, and one
// report per instrumented run in deterministic (experiment, spec,
// benchmark) order. Two identical runs of the same binary produce
// byte-identical documents — nothing in here depends on wall-clock or
// worker interleaving.
type ForensicsDocument struct {
	Version buildinfo.Info `json:"version"`
	// TopK and HistoryBits echo the collection parameters.
	TopK        int `json:"top_k"`
	HistoryBits int `json:"history_bits"`
	// Runs carries each instrumented run's forensics report.
	Runs []ForensicsRun `json:"runs"`
}

// ForensicsDocument assembles the forensics document from the collected
// per-run reports.
func (t *Telemetry) ForensicsDocument() *ForensicsDocument {
	runs := t.ForensicsRuns()
	doc := &ForensicsDocument{
		Version: buildinfo.Read(),
		TopK:    t.ForensicsTopK,
		Runs:    runs,
	}
	if len(runs) > 0 {
		doc.HistoryBits = runs[0].Report.HistoryBits
	}
	return doc
}

// Write renders the forensics document as indented JSON.
func (d *ForensicsDocument) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}
