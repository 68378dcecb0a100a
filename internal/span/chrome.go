package span

import (
	"encoding/json"
	"io"
	"os"
)

// chromeEvent is one complete ("ph":"X") event of the Chrome trace-event
// format. Timestamps and durations are microseconds; pid is fixed (one
// process), tid is the span's display lane (grid worker id).
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// chromeDoc is the object-form trace file: chrome://tracing and Perfetto
// both load it directly.
type chromeDoc struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace exports the finished spans as Chrome trace-event JSON,
// loadable in Perfetto or chrome://tracing. Events are emitted in
// (start, ID) order and args map keys marshal sorted, so the export is
// deterministic for a deterministic clock. A nil tracer writes an empty
// trace document.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	recs := t.Snapshot()
	doc := chromeDoc{TraceEvents: make([]chromeEvent, 0, len(recs)), DisplayTimeUnit: "ms"}
	for _, r := range recs {
		ev := chromeEvent{
			Name: r.Name,
			Cat:  "twolevel",
			Ph:   "X",
			TS:   float64(r.Start.Nanoseconds()) / 1e3,
			Dur:  float64(r.Duration().Nanoseconds()) / 1e3,
			PID:  1,
			TID:  r.TID,
		}
		if len(r.Attrs) > 0 {
			ev.Args = make(map[string]string, len(r.Attrs)+1)
			for _, a := range r.Attrs {
				ev.Args[a.Key] = a.Value
			}
		}
		if ev.Args == nil {
			ev.Args = map[string]string{}
		}
		ev.Args["path"] = r.Path
		doc.TraceEvents = append(doc.TraceEvents, ev)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(doc)
}

// WriteFiles writes the tracer's exports behind the binaries'
// -trace-out and -span-summary flags: the Chrome trace-event JSON to
// chromePath and the summary tree to summaryPath, where "-" means
// stderr. An empty path skips its export.
func (t *Tracer) WriteFiles(chromePath, summaryPath string) error {
	if chromePath != "" {
		if err := writeFile(chromePath, t.WriteChromeTrace); err != nil {
			return err
		}
	}
	switch summaryPath {
	case "":
		return nil
	case "-":
		return t.Summary().WriteText(os.Stderr)
	}
	return writeFile(summaryPath, t.Summary().WriteText)
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
