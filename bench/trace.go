package main

import (
	"bufio"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

// The layers a span can be charged to are the engine's module names, plus
// "client" for the operation as the caller sees it and "workload" for plan
// code that lives in internal/workload.
const (
	layerClient = iota
	layerWorkload
	layerSQL
	layerExec
	layerCore
	layerCluster
	numLayers
)

var layerNames = [numLayers]string{"client", "workload", "sql", "exec", "core", "cluster"}

// span is one timed interval at a layer boundary. Trace is the id of the
// root span of the operation it belongs to; Parent is 0 for a root.
type span struct {
	Trace, ID, Parent int64
	Layer             uint8
	Name              string
	Start, End        int64 // ns since the tracer's epoch
}

// tracer records the spans of one client goroutine. Calls nest strictly
// (the harness wraps synchronous calls), so the open spans form a stack and
// nothing needs a lock. A nil tracer records nothing, which is how the
// untraced run shares the traced run's code paths where they coincide.
type tracer struct {
	epoch time.Time
	base  int64 // id offset, distinct per client
	spans []span
	open  []int // indexes into spans
}

// newTracer pre-sizes the span buffer so appends do not reallocate inside
// the measured phase; the phase sets the epoch when it starts.
func newTracer(client, capacity int) *tracer {
	return &tracer{base: int64(client+1) << 40, spans: make([]span, 0, capacity)}
}

// begin opens a span under the innermost open one.
func (t *tracer) begin(layer uint8, name string) {
	if t == nil {
		return
	}
	id := t.base + int64(len(t.spans)) + 1
	s := span{ID: id, Trace: id, Layer: layer, Name: name}
	if n := len(t.open); n > 0 {
		p := t.spans[t.open[n-1]]
		s.Parent, s.Trace = p.ID, p.Trace
	}
	t.open = append(t.open, len(t.spans))
	s.Start = int64(time.Since(t.epoch))
	t.spans = append(t.spans, s)
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	now := int64(time.Since(t.epoch))
	n := len(t.open)
	t.spans[t.open[n-1]].End = now
	t.open = t.open[:n-1]
}

// selfTimes returns each span's duration minus the part of it that its
// child spans cover. Children may overlap each other (parallel fan-out) and
// may stick out of the parent; only their union inside the parent counts.
func selfTimes(spans []span) map[int64]int64 {
	type iv struct{ s, e int64 }
	kids := make(map[int64][]iv)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], iv{s.Start, s.End})
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		ivs := kids[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].s < ivs[j].s })
		covered, hi := int64(0), s.Start
		for _, c := range ivs {
			lo, e := c.s, c.e
			if lo < hi {
				lo = hi
			}
			if e > s.End {
				e = s.End
			}
			if e > lo {
				covered += e - lo
				hi = e
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// traceSummary is what the per-layer metrics need from a span set.
type traceSummary struct {
	spans     int
	rootNs    int64            // total duration of root spans
	layerSelf [numLayers]int64 // self time by layer, ns
	// byName holds span durations in ns keyed by "layer.name".
	byName map[string][]float64
	// selfByName holds total self time in ns keyed by "layer.name".
	selfByName map[string]int64
}

func summarize(spans []span) traceSummary {
	sum := traceSummary{
		spans:      len(spans),
		byName:     make(map[string][]float64),
		selfByName: make(map[string]int64),
	}
	self := selfTimes(spans)
	for _, s := range spans {
		key := layerNames[s.Layer] + "." + s.Name
		sum.byName[key] = append(sum.byName[key], float64(s.End-s.Start))
		sum.selfByName[key] += self[s.ID]
		sum.layerSelf[s.Layer] += self[s.ID]
		if s.Parent == 0 {
			sum.rootNs += s.End - s.Start
		}
	}
	return sum
}

// writeSpans writes one JSON object per span:
// {trace, span, parent, layer, name, start_ns, end_ns}.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	buf := make([]byte, 0, 256)
	for _, s := range spans {
		buf = append(buf[:0], `{"trace":`...)
		buf = strconv.AppendInt(buf, s.Trace, 10)
		buf = append(buf, `,"span":`...)
		buf = strconv.AppendInt(buf, s.ID, 10)
		buf = append(buf, `,"parent":`...)
		buf = strconv.AppendInt(buf, s.Parent, 10)
		buf = append(buf, `,"layer":"`...)
		buf = append(buf, layerNames[s.Layer]...)
		buf = append(buf, `","name":`...)
		buf = strconv.AppendQuote(buf, s.Name)
		buf = append(buf, `,"start_ns":`...)
		buf = strconv.AppendInt(buf, s.Start, 10)
		buf = append(buf, `,"end_ns":`...)
		buf = strconv.AppendInt(buf, s.End, 10)
		buf = append(buf, "}\n"...)
		if _, err := w.Write(buf); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
