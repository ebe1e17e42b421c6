package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// WriteText dumps every family in a Prometheus-style text format, sorted
// by family name and label signature so output is deterministic.
// Histograms expand to cumulative _bucket{le=...} series plus _sum and
// _count, like the Prometheus exposition format. A nil registry writes
// nothing.
func (r *Registry) WriteText(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	fams := make([]*family, len(names))
	for i, name := range names {
		fams[i] = r.families[name]
	}
	r.mu.Unlock()

	for _, f := range fams {
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
			return err
		}
		sigs := make([]string, 0, len(f.series))
		for sig := range f.series {
			sigs = append(sigs, sig)
		}
		sort.Strings(sigs)
		for _, sig := range sigs {
			s := f.series[sig]
			if err := writeSeries(w, f, s); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSeries(w io.Writer, f *family, s *series) error {
	switch m := s.metric.(type) {
	case *Counter:
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, labelText(s.labels, ""), fnum(m.Value()))
		return err
	case *Gauge:
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, labelText(s.labels, ""), fnum(m.Value()))
		return err
	case *Histogram:
		counts, count, sum := m.snapshot()
		cum := uint64(0)
		for i, c := range counts {
			cum += c
			le := "+Inf"
			if i < len(f.bounds) {
				le = fnum(f.bounds[i])
			}
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, labelText(s.labels, le), cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name, labelText(s.labels, ""), fnum(sum)); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, labelText(s.labels, ""), count)
		return err
	default:
		return fmt.Errorf("obs: unknown metric type %T", s.metric)
	}
}

// labelText renders {k="v",...}; le, when non-empty, is appended as the
// histogram bucket bound label.
func labelText(ls []Label, le string) string {
	if len(ls) == 0 && le == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	if le != "" {
		if len(ls) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "le=%q", le)
	}
	b.WriteByte('}')
	return b.String()
}

func fnum(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64) //llmpq:allow(bitwidthset): strconv float bit size, not a quantization width
}

// chromeEvent is one trace_event entry; ts/dur are microseconds, per the
// Chrome trace format spec.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`
	Dur  float64           `json:"dur,omitempty"`
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit,omitempty"`
}

// WriteChromeTrace exports the recorded spans as Chrome trace_event JSON
// ("X" complete events, one row per TID), loadable in chrome://tracing or
// Perfetto. Events are sorted by (start, tid) so concurrent recorders
// still produce deterministic files. A nil recorder writes an empty (but
// valid) trace.
func (r *SpanRecorder) WriteChromeTrace(w io.Writer) error {
	var spans []Span
	var threads map[int]string
	if r != nil {
		spans = r.Spans()
		threads = r.threads()
	}
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].Start < spans[j].Start {
			return true
		}
		if spans[i].Start > spans[j].Start {
			return false
		}
		return spans[i].TID < spans[j].TID
	})
	tr := chromeTrace{TraceEvents: []chromeEvent{}, DisplayTimeUnit: "ms"}
	tids := make([]int, 0, len(threads))
	for tid := range threads {
		tids = append(tids, tid)
	}
	sort.Ints(tids)
	for _, tid := range tids {
		tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
			Name: "thread_name", Ph: "M", TID: tid,
			Args: map[string]string{"name": threads[tid]},
		})
	}
	for _, s := range spans {
		tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
			Name: s.Name, Cat: s.Cat, Ph: "X",
			TS: s.Start * 1e6, Dur: s.Dur * 1e6,
			TID: s.TID, Args: s.Args,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(tr)
}

// ParseChromeTrace reads trace_event JSON (the object form emitted by
// WriteChromeTrace) back into spans, converting microseconds to seconds.
// Metadata and non-complete events are skipped.
func ParseChromeTrace(rd io.Reader) ([]Span, error) {
	var tr chromeTrace
	dec := json.NewDecoder(rd)
	if err := dec.Decode(&tr); err != nil {
		return nil, fmt.Errorf("obs: parse chrome trace: %w", err)
	}
	var out []Span
	for _, ev := range tr.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		out = append(out, Span{
			Name: ev.Name, Cat: ev.Cat, TID: ev.TID,
			Start: ev.TS / 1e6, Dur: ev.Dur / 1e6, Args: ev.Args,
		})
	}
	return out, nil
}
