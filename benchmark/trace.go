package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
	"time"
)

// span is one benchmark-side timing of a call (or a batch of calls) into the
// program. Spans live in memory and are written out when the run ends; spans
// inside the program are a later change (see ROADMAP).
type span struct {
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"` // Unix nanoseconds, so lists of two processes merge
	EndNS    int64  `json:"end_ns"`
	Parent   int    `json:"parent"` // index of the causing span, -1 for a root
	Workload string `json:"workload"`
}

// spanList is the in-memory span recorder. A nil list records nothing, which
// is the state of an untraced run.
type spanList struct {
	workload string
	spans    []span
}

func (l *spanList) begin(name string, parent int) int {
	if l == nil {
		return -1
	}
	l.spans = append(l.spans, span{Name: name, StartNS: time.Now().UnixNano(), Parent: parent, Workload: l.workload})
	return len(l.spans) - 1
}

func (l *spanList) end(id int) {
	if l == nil || id < 0 {
		return
	}
	l.spans[id].EndNS = time.Now().UnixNano()
}

// adopt appends another process's spans under parent, re-basing their parent
// indexes. The other process may have run before parent began, so parent's
// start moves back to cover them.
func (l *spanList) adopt(spans []span, parent int) {
	base := len(l.spans)
	for _, s := range spans {
		if s.StartNS < l.spans[parent].StartNS {
			l.spans[parent].StartNS = s.StartNS
		}
		if s.Parent < 0 {
			s.Parent = parent
		} else {
			s.Parent += base
		}
		l.spans = append(l.spans, s)
	}
}

// writeChromeTrace writes the spans as Chrome trace-event JSON, loadable in
// Perfetto next to the program's own virtual-time trace.
func (l *spanList) writeChromeTrace(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`  // microseconds
		Dur  float64        `json:"dur"` // microseconds
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	var epoch int64
	for i, s := range l.spans {
		if i == 0 || s.StartNS < epoch {
			epoch = s.StartNS
		}
	}
	events := make([]event, 0, len(l.spans))
	for i, s := range l.spans {
		events = append(events, event{
			Name: s.Name, Ph: "X", PID: 1, TID: 1,
			TS: float64(s.StartNS-epoch) / 1e3, Dur: float64(s.EndNS-s.StartNS) / 1e3,
			Args: map[string]any{"id": i, "parent": s.Parent, "workload": s.Workload},
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(map[string]any{"displayTimeUnit": "ms", "traceEvents": events})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeSelfTimes prints, per span name, the call count, total time and self
// time (a span's duration minus the part its children cover).
func (l *spanList) writeSelfTimes(w io.Writer) {
	child := make([]int64, len(l.spans))
	for _, s := range l.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.EndNS - s.StartNS
		}
	}
	type agg struct {
		name        string
		n           int
		total, self int64
	}
	byName := map[string]*agg{}
	var order []*agg
	for i, s := range l.spans {
		a := byName[s.Name]
		if a == nil {
			a = &agg{name: s.Name}
			byName[s.Name] = a
			order = append(order, a)
		}
		a.n++
		a.total += s.EndNS - s.StartNS
		a.self += s.EndNS - s.StartNS - child[i]
	}
	sort.SliceStable(order, func(i, j int) bool { return order[i].total > order[j].total })
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "span\tcalls\ttotal ms\tself ms")
	for _, a := range order {
		fmt.Fprintf(tw, "%s\t%d\t%.2f\t%.2f\n", a.name, a.n, float64(a.total)/1e6, float64(a.self)/1e6)
	}
	tw.Flush()
}
