package telemetry

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"cxlfork/internal/des"
)

// ErrDisabled is returned by every exporter when telemetry was not
// enabled for the run.
var ErrDisabled = errors.New("telemetry: not enabled")

// formatValue renders a float the same way on every platform: shortest
// round-trip representation, no locale, no exponent surprises for the
// integer-valued counters that dominate the registry.
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus writes the latest value of every series in the
// Prometheus text exposition format (version 0.0.4). Series are
// ordered by (name, labels) and timestamps are virtual milliseconds,
// so two identical runs produce byte-identical output.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return ErrDisabled
	}
	bw := bufio.NewWriter(w)
	prev := ""
	for _, s := range r.Series() {
		if s.name != prev {
			fmt.Fprintf(bw, "# HELP %s %s\n", s.name, s.help)
			fmt.Fprintf(bw, "# TYPE %s %s\n", s.name, s.kind)
			prev = s.name
		}
		last, ok := s.Last()
		if !ok {
			continue
		}
		fmt.Fprintf(bw, "%s %s %d\n", s.key, formatValue(last.V), int64(last.T)/int64(des.Millisecond))
	}
	return bw.Flush()
}

// WriteOpenMetrics writes the latest value of every series in
// OpenMetrics 1.0 text format: family names have the conventional
// `_total` suffix stripped on TYPE/HELP lines, timestamps are virtual
// seconds, and the output ends with the mandatory `# EOF`.
func (r *Registry) WriteOpenMetrics(w io.Writer) error {
	if r == nil {
		return ErrDisabled
	}
	bw := bufio.NewWriter(w)
	prev := ""
	for _, s := range r.Series() {
		if s.name != prev {
			fam := strings.TrimSuffix(s.name, "_total")
			fmt.Fprintf(bw, "# TYPE %s %s\n", fam, s.kind)
			fmt.Fprintf(bw, "# HELP %s %s\n", fam, s.help)
			prev = s.name
		}
		last, ok := s.Last()
		if !ok {
			continue
		}
		fmt.Fprintf(bw, "%s %s %s\n", s.key, formatValue(last.V), formatValue(last.T.Seconds()))
	}
	fmt.Fprintln(bw, "# EOF")
	return bw.Flush()
}

// WriteCSV dumps the full retained timeline of every series as
// `series,t_ns,value` rows, preceded by `#` comment lines recording
// the sampling period, tick count, and drops. Ordering follows
// Series(), then sample time, so the dump is deterministic.
func (r *Registry) WriteCSV(w io.Writer) error {
	if r == nil {
		return ErrDisabled
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# sample_every_ns=%d ticks=%d dropped=%d\n", int64(r.every), r.ticks, r.Dropped())
	fmt.Fprintln(bw, "series,t_ns,value")
	for _, s := range r.Series() {
		for i := 0; i < s.Len(); i++ {
			sm := s.at(i)
			// Keys embed quoted labels; quote the field so commas
			// inside label values cannot split the row.
			fmt.Fprintf(bw, "%q,%d,%s\n", s.key, int64(sm.T), formatValue(sm.V))
		}
	}
	return bw.Flush()
}

type jsonSample struct {
	T int64   `json:"t_ns"`
	V float64 `json:"value"`
}

type jsonSeries struct {
	Name    string            `json:"name"`
	Labels  map[string]string `json:"labels,omitempty"`
	Kind    string            `json:"kind"`
	Help    string            `json:"help"`
	Dropped int64             `json:"dropped,omitempty"`
	Samples []jsonSample      `json:"samples"`
}

type jsonExport struct {
	SampleEveryNS int64        `json:"sample_every_ns"`
	Ticks         int64        `json:"ticks"`
	Dropped       int64        `json:"dropped"`
	Series        []jsonSeries `json:"series"`
}

// WriteJSON dumps the full retained timeline as one JSON document.
// encoding/json sorts map keys, so the output is deterministic.
func (r *Registry) WriteJSON(w io.Writer) error {
	if r == nil {
		return ErrDisabled
	}
	doc := jsonExport{SampleEveryNS: int64(r.every), Ticks: r.ticks, Dropped: r.Dropped()}
	for _, s := range r.Series() {
		js := jsonSeries{Name: s.name, Kind: s.kind.String(), Help: s.help, Dropped: s.dropped}
		if len(s.labels) > 0 {
			js.Labels = map[string]string{}
			for _, l := range s.labels {
				js.Labels[l.K] = l.V
			}
		}
		js.Samples = make([]jsonSample, 0, s.Len())
		for i := 0; i < s.Len(); i++ {
			sm := s.at(i)
			js.Samples = append(js.Samples, jsonSample{T: int64(sm.T), V: sm.V})
		}
		doc.Series = append(doc.Series, js)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
