package azure

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"cxlfork/internal/des"
)

// Trace files are two-column CSV: arrival time in seconds (fractional),
// function name. This matches how users would feed real production
// traces (e.g. a pre-processed Azure Functions dataset) into the
// autoscaler instead of the built-in MMPP generator.

// WriteCSV serializes a trace.
func WriteCSV(w io.Writer, reqs []Request) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"seconds", "function"}); err != nil {
		return err
	}
	for _, r := range reqs {
		rec := []string{
			strconv.FormatFloat(r.At.Seconds(), 'f', 6, 64),
			r.Function,
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a trace, tolerating an optional header row and
// unsorted input (arrivals are sorted on return).
func ReadCSV(r io.Reader) ([]Request, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 2
	var out []Request
	line := 0
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		line++
		sec, err := strconv.ParseFloat(rec[0], 64)
		if err != nil {
			if line == 1 {
				continue // header
			}
			return nil, fmt.Errorf("azure: line %d: bad time %q", line, rec[0])
		}
		if sec < 0 {
			return nil, fmt.Errorf("azure: line %d: negative time", line)
		}
		if rec[1] == "" {
			return nil, fmt.Errorf("azure: line %d: empty function name", line)
		}
		out = append(out, Request{
			At:       des.Time(sec * float64(des.Second)),
			Function: rec[1],
		})
	}
	SortByArrival(out)
	return out, nil
}
