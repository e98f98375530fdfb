package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one request share its
// request ID (the server's X-Request-Id when the handler was called).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 for a request's root span
	Request string `json:"request"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"` // since the tracer's epoch
	End     int64  `json:"end_ns"`
	Self    int64  `json:"self_ns"` // filled in when written out
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run writes them out.
type tracer struct {
	epoch time.Time
	spans []span // the decomposition's, recorded from one goroutine

	mu     sync.Mutex
	served []span // the traced handler's; IDs are assigned when written
}

// all returns every span, the traced handler's numbered after the
// decomposition's.
func (t *tracer) all() []span {
	t.mu.Lock()
	served := t.served
	t.mu.Unlock()
	out := append([]span(nil), t.spans...)
	for _, s := range served {
		s.ID = len(out) + 1
		out = append(out, s)
	}
	return out
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// start opens a span and returns its ID.
func (t *tracer) start(request, name string, parent int) int {
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Request: request, Name: name,
		Start: int64(time.Since(t.epoch)),
	})
	return len(t.spans)
}

// end closes the span with the given ID.
func (t *tracer) end(id int) {
	t.spans[id-1].End = int64(time.Since(t.epoch))
}

// around times f as a span.
func (t *tracer) around(request, name string, parent int, f func()) time.Duration {
	id := t.start(request, name, parent)
	f()
	t.end(id)
	return t.spans[id-1].dur()
}

// selfTimes returns every span's self time: its duration minus the
// part of its interval that its children cover. Overlapping children
// count once; a child sticking out of its parent counts only inside.
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered int64
		cur := s.Start // end of the covered prefix so far
		for _, k := range kids {
			lo, hi := max(k.Start, cur), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
			}
			cur = max(cur, min(k.End, s.End))
		}
		out[s.ID] = time.Duration(s.End - s.Start - covered)
	}
	return out
}

// tracedHandler records a span around every request it serves; the
// traced pass's clients share it, so recording is serialized.
type tracedHandler struct {
	h http.Handler
	t *tracer
}

func (th tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := int64(time.Since(th.t.epoch))
	th.h.ServeHTTP(w, r)
	end := int64(time.Since(th.t.epoch))
	th.t.mu.Lock()
	th.t.served = append(th.t.served, span{
		Request: w.Header().Get("X-Request-Id"), Name: "server.handler", Start: start, End: end,
	})
	th.t.mu.Unlock()
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	spans := t.all()
	self := selfTimes(spans)
	for _, s := range spans {
		s.Self = int64(self[s.ID])
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	return w.Flush()
}
