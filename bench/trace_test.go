package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Trace: 1, Layer: layerClient, Name: "op", Start: 0, End: 100},
		// Two children that overlap each other: their union is [10, 50).
		{ID: 2, Trace: 1, Parent: 1, Layer: layerExec, Name: "a", Start: 10, End: 40},
		{ID: 3, Trace: 1, Parent: 1, Layer: layerExec, Name: "b", Start: 30, End: 50},
		// A child nested in a child does not count against the root twice.
		{ID: 4, Trace: 1, Parent: 2, Layer: layerCore, Name: "c", Start: 15, End: 25},
		// A child that sticks out of its parent counts only inside it.
		{ID: 5, Trace: 1, Parent: 1, Layer: layerCluster, Name: "d", Start: 90, End: 120},
		// A child contained in an earlier sibling adds nothing.
		{ID: 6, Trace: 1, Parent: 1, Layer: layerExec, Name: "e", Start: 35, End: 45},
	}
	self := selfTimes(spans)
	for id, want := range map[int64]int64{1: 100 - 40 - 10, 2: 30 - 10, 3: 20, 4: 10, 5: 30, 6: 10} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestTracerNestsAndSummarizes(t *testing.T) {
	tr := newTracer(1, 8)
	tr.epoch = time.Now()
	tr.begin(layerClient, "op")
	tr.begin(layerSQL, "prepare")
	tr.end()
	tr.begin(layerExec, "collect")
	tr.begin(layerCluster, "targets")
	tr.end()
	tr.end()
	tr.end()
	tr.begin(layerClient, "op")
	tr.end()

	if len(tr.spans) != 5 || len(tr.open) != 0 {
		t.Fatalf("%d spans, %d open; want 5 and 0", len(tr.spans), len(tr.open))
	}
	root, prep, coll, targ, second := tr.spans[0], tr.spans[1], tr.spans[2], tr.spans[3], tr.spans[4]
	if root.Parent != 0 || prep.Parent != root.ID || coll.Parent != root.ID || targ.Parent != coll.ID {
		t.Errorf("wrong parents: %+v", tr.spans)
	}
	if targ.Trace != root.ID || second.Trace != second.ID || second.Trace == root.Trace {
		t.Errorf("wrong trace ids: %+v", tr.spans)
	}
	for _, s := range tr.spans {
		if s.End < s.Start {
			t.Errorf("span %d ends before it starts", s.ID)
		}
	}

	sum := summarize(tr.spans)
	if sum.spans != 5 || len(sum.byName["client.op"]) != 2 {
		t.Errorf("summary counts %d spans, %d client.op; want 5 and 2", sum.spans, len(sum.byName["client.op"]))
	}
	var layers int64
	for _, ns := range sum.layerSelf {
		layers += ns
	}
	if layers != sum.rootNs {
		t.Errorf("layer self times sum to %d, root spans last %d", layers, sum.rootNs)
	}

	// A nil tracer is the untraced run: every call is a no-op.
	var none *tracer
	none.begin(layerClient, "op")
	none.end()
}

func TestWriteSpansIsJSONLines(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "trace.jsonl")
	spans := []span{
		{ID: 7, Trace: 7, Layer: layerClient, Name: `q"01`, Start: 5, End: 9},
		{ID: 8, Trace: 7, Parent: 7, Layer: layerExec, Name: "scan", Start: 6, End: 8},
	}
	if err := writeSpans(path, spans); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for i := 0; sc.Scan(); i++ {
		var got struct {
			Trace, Span, Parent int64
			Layer, Name         string
			Start               int64 `json:"start_ns"`
			End                 int64 `json:"end_ns"`
		}
		if err := json.Unmarshal(sc.Bytes(), &got); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		want := spans[i]
		if got.Trace != want.Trace || got.Span != want.ID || got.Parent != want.Parent ||
			got.Layer != layerNames[want.Layer] || got.Name != want.Name || got.Start != want.Start || got.End != want.End {
			t.Errorf("line %d = %+v, want %+v", i, got, want)
		}
	}
}
