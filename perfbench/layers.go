package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"nalix"
	"nalix/internal/core"
	"nalix/internal/nlp"
	"nalix/internal/ontology"
	"nalix/internal/server"
	"nalix/internal/xmldb"
	"nalix/internal/xquery"
)

// decomposer re-runs requests layer by layer through each layer's
// public entry point, with the benchmark's own spans around every call,
// on components of its own over the served corpus: a translator without
// cache, and an XQuery engine without plan cache.
type decomposer struct {
	svc *service
	tr  *core.Translator
	xq  *xquery.Engine
	t   *tracer
	s   *sink
}

func newDecomposer(svc *service, t *tracer) *decomposer {
	xq := xquery.NewEngine()
	xq.AddDocument(svc.doc)
	return &decomposer{
		svc: svc, tr: core.NewTranslator(svc.doc, ontology.New()), xq: xq, t: t,
		s: &sink{hdr: http.Header{}},
	}
}

// expr is what the decomposer evaluates for r: nil for a rejected
// question or a keyword search.
func (d *decomposer) expr(r request) (xquery.Expr, error) {
	switch r.Endpoint {
	case "ask":
		res, err := d.tr.Translate(r.Text)
		if err != nil || !res.Valid() {
			return nil, err
		}
		return res.Query, nil
	case "query":
		return d.xq.Compile(r.Text)
	}
	return nil, nil
}

// coldEval evaluates each request's expression twice on the still
// fresh engine and returns the summed first-minus-second time: the cost
// of the lazily built memos (mqf relatedness above all) per shape.
func (d *decomposer) coldEval(reqs []request) (time.Duration, error) {
	var total time.Duration
	for _, r := range reqs {
		e, err := d.expr(r)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", r.Key, err)
		}
		if e == nil {
			continue
		}
		var times [2]time.Duration
		for i := range times {
			start := time.Now()
			if _, err := d.xq.Eval(e); err != nil {
				return 0, fmt.Errorf("%s: %w", r.Key, err)
			}
			times[i] = time.Since(start)
		}
		total += times[0] - times[1]
	}
	return total, nil
}

// layerSample is the decomposition of one request.
type layerSample struct {
	req       request
	served    outcome
	digest    string // what the layers reproduce
	handler   time.Duration
	parse     time.Duration
	trans     time.Duration // Translate minus the separately timed parse
	compile   time.Duration
	eval      time.Duration
	items     int
	ser       time.Duration
	serBytes  int
	encode    time.Duration
	respB     int
	hit       time.Duration // result-cache hit through Engine.Ask
	kw        time.Duration
	kwHits    int
	rejected  bool
	accounted time.Duration // layer self times the served request went through
	path      string        // those layers, for the run log
}

// account sums the layers the served request went through, named as
// their spans are.
func (l *layerSample) account(names []string, ds ...time.Duration) {
	var parts []string
	for i, d := range ds {
		l.accounted += d
		parts = append(parts, fmt.Sprintf("%s %v", names[i], d))
	}
	l.path = strings.Join(parts, " + ")
}

// remainder is the handler time no decomposed layer accounts for:
// request decoding, session checkout, cache lookups on a miss, trace
// bookkeeping, access logging and response writing.
func (l layerSample) remainder() time.Duration { return l.handler - l.accounted }

// decompose serves r once through the handler (one client, nothing
// else in flight), then re-runs it layer by layer.
func (d *decomposer) decompose(r request) (layerSample, error) {
	t := d.t
	l := layerSample{req: r}
	root := t.start("", "request", 0)
	body := r.body()
	hid := t.start("", "server.handler", root)
	l.served = serve(d.svc.handler, d.s, r, body)
	t.end(hid)
	l.handler = t.spans[hid-1].dur()
	id := l.served.id
	t.spans[root-1].Request, t.spans[hid-1].Request = id, id
	if l.served.status != http.StatusOK {
		t.end(root)
		return l, fmt.Errorf("%s: handler status %d", r.Key, l.served.status)
	}

	ans := &nalix.Answer{Accepted: true}
	switch r.Endpoint {
	case "ask":
		var res *core.Result
		var err error
		l.parse = t.around(id, "nlp.parse", root, func() { _, err = nlp.Parse(r.Text) })
		if err != nil {
			t.end(root)
			return l, fmt.Errorf("%s: parse: %w", r.Key, err)
		}
		full := t.around(id, "core.translate", root, func() { res, err = d.tr.Translate(r.Text) })
		if err != nil {
			t.end(root)
			return l, fmt.Errorf("%s: translate: %w", r.Key, err)
		}
		l.trans = full - l.parse
		ans.Accepted, ans.XQuery = res.Valid(), res.XQuery
		for _, f := range res.Errors {
			ans.Feedback = append(ans.Feedback, nalix.Feedback{IsError: true, Code: string(f.Code), Term: f.Term, Message: f.Message, Suggestion: f.Suggestion})
		}
		l.rejected = !ans.Accepted
		if ans.Accepted {
			if err := d.evalAndSerialize(id, root, res.Query, ans, &l); err != nil {
				t.end(root)
				return l, err
			}
		}
		l.encode = t.around(id, "server.encode", root, func() { l.respB = marshalLen(server.FromAnswer("ask", "", r.Text, ans)) })
		l.hit = d.hitTime(id, root, r)
		if l.served.cache == "hit" {
			l.account([]string{"cache.hit", "server.encode"}, l.hit, l.encode)
		} else {
			l.account([]string{"nlp.parse", "core.translate", "xquery.eval", "xmldb.serialize", "server.encode"},
				l.parse, l.trans, l.eval, l.ser, l.encode)
		}
	case "query":
		var e xquery.Expr
		var err error
		l.compile = t.around(id, "xquery.compile", root, func() { e, err = d.xq.Compile(r.Text) })
		if err != nil {
			t.end(root)
			return l, fmt.Errorf("%s: compile: %w", r.Key, err)
		}
		if err := d.evalAndSerialize(id, root, e, ans, &l); err != nil {
			t.end(root)
			return l, err
		}
		ans.XQuery = r.Text
		l.encode = t.around(id, "server.encode", root, func() { l.respB = marshalLen(server.FromAnswer("query", "", r.Text, ans)) })
		l.account([]string{"xquery.compile", "xquery.eval", "xmldb.serialize", "server.encode"}, l.compile, l.eval, l.ser, l.encode)
	case "keyword":
		var hits []string
		var err error
		l.kw = t.around(id, "keyword.search", root, func() { hits, err = d.svc.sessions[0].KeywordSearch("", r.Text) })
		if err != nil {
			t.end(root)
			return l, fmt.Errorf("%s: keyword: %w", r.Key, err)
		}
		l.kwHits = len(hits)
		ans.Results = hits
		l.encode = t.around(id, "server.encode", root, func() { l.respB = marshalLen(server.FromKeyword("", r.Text, hits, nil)) })
		l.account([]string{"keyword.search", "server.encode"}, l.kw, l.encode)
	}
	t.end(root)
	l.digest = digestOf(ans.Accepted, server.FirstErrorCode(ans.Feedback), ans.Results)
	return l, nil
}

// evalAndSerialize evaluates on the decomposer's engine and renders
// the items as nalix's fill does.
func (d *decomposer) evalAndSerialize(id string, root int, e xquery.Expr, ans *nalix.Answer, l *layerSample) error {
	t := d.t
	var seq xquery.Sequence
	var err error
	l.eval = t.around(id, "xquery.eval", root, func() { seq, err = d.xq.Eval(e) })
	if err != nil {
		return fmt.Errorf("%s: eval: %w", l.req.Key, err)
	}
	l.items = len(seq)
	l.ser = t.around(id, "xmldb.serialize", root, func() {
		for _, it := range seq {
			if v, ok := it.(xquery.NodeItem); ok {
				ans.Results = append(ans.Results, xmldb.SerializeString(v.Node))
			} else {
				ans.Results = append(ans.Results, xquery.AtomizeItem(it))
			}
		}
		ans.Values = xquery.FlattenValues(seq)
	})
	for _, s := range ans.Results {
		l.serBytes += len(s)
	}
	return nil
}

// hitTime times a result-cache hit of r through Engine.Ask, first
// making sure every session holds the answer (those calls are not
// timed).
func (d *decomposer) hitTime(id string, root int, r request) time.Duration {
	for _, e := range d.svc.sessions {
		if _, err := e.Ask("", r.Text); err != nil {
			return 0
		}
	}
	var ans *nalix.Answer
	var err error
	dur := d.t.around(id, "cache.hit", root, func() { ans, err = d.svc.sessions[0].Ask("", r.Text) })
	if err != nil || !ans.Cached {
		return 0
	}
	return dur
}

func marshalLen(v any) int {
	b, err := json.Marshal(v)
	if err != nil {
		return 0
	}
	return len(b)
}
