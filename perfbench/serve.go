package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"nalix"
	"nalix/internal/dataset"
	"nalix/internal/server"
	"nalix/internal/xmldb"
)

// service is the system under test: one generated corpus served by the
// real internal/server handler, configured as nalix-serve runs by
// default (cache on, one session per GOMAXPROCS, one shard, access log
// discarded).
type service struct {
	doc      *xmldb.Document
	sessions []*nalix.Engine
	srv      *server.Server
	handler  http.Handler
}

// setupTimes splits one set-up into its layers.
type setupTimes struct {
	total, generate, load time.Duration
	heapPerNode           float64
}

// newService builds the corpus and the server, timing each layer.
func newService(scale int) (*service, setupTimes, error) {
	var st setupTimes
	before := liveHeap()
	start := time.Now()
	doc := dataset.Generate(scale)
	st.generate = time.Since(start)
	sessions := make([]*nalix.Engine, runtime.GOMAXPROCS(0))
	for i := range sessions {
		e := nalix.New()
		e.EnableCache(nalix.CacheConfig{})
		t := time.Now()
		e.LoadDocument(doc)
		st.load += time.Since(t)
		sessions[i] = e
	}
	srv, err := server.New(server.Config{Engines: sessions, AccessLog: io.Discard})
	if err != nil {
		return nil, st, fmt.Errorf("server.New: %w", err)
	}
	st.total = time.Since(start)
	st.heapPerNode = float64(liveHeap()-before) / float64(doc.Size())
	return &service{doc: doc, sessions: sessions, srv: srv, handler: srv.Handler()}, st, nil
}

// liveHeap is the live heap after full collections; the second one
// empties the sync.Pool victim caches, so harness buffers don't count.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// heapSampler records the live heap the collector last marked, every
// 50ms while a pass runs. The result cache evicts and refills under
// fresh traffic, so the live heap moves during a run; the median over
// the pass is steadier than its value at any single instant.
type heapSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64 // MB
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	h.samples = append(h.samples, float64(liveHeap())/(1<<20))
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				metrics.Read(s)
				h.samples = append(h.samples, float64(s[0].Value.Uint64())/(1<<20))
			}
		}
	}()
	return h
}

// median stops the sampler and returns the median sample.
func (h *heapSampler) median() float64 {
	close(h.stop)
	<-h.done
	return median(h.samples)
}

// sink is a reusable http.ResponseWriter: one per client, so the
// harness does not allocate a fresh multi-megabyte buffer per response.
type sink struct {
	hdr    http.Header
	status int
	body   bytes.Buffer
}

func (s *sink) Header() http.Header         { return s.hdr }
func (s *sink) WriteHeader(code int)        { s.status = code }
func (s *sink) Write(p []byte) (int, error) { return s.body.Write(p) }

func (s *sink) reset() {
	clear(s.hdr)
	s.status = http.StatusOK
	s.body.Reset()
}

// outcome is what one served request returned.
type outcome struct {
	done     time.Time // when the handler returned, before the answer is checked
	status   int
	digest   string // answer digest; empty unless status is 200
	accepted bool
	cache    string // X-Nalix-Cache: hit, miss or empty
	id       string // X-Request-Id
}

// serve sends one request through the handler and digests the answer.
func serve(h http.Handler, s *sink, r request, body []byte) outcome {
	s.reset()
	req, err := http.NewRequestWithContext(context.Background(), http.MethodPost, "/"+r.Endpoint, bytes.NewReader(body))
	if err != nil {
		return outcome{status: -1}
	}
	h.ServeHTTP(s, req)
	o := outcome{done: time.Now(), status: s.status, cache: s.hdr.Get("X-Nalix-Cache"), id: s.hdr.Get("X-Request-Id")}
	if o.status == http.StatusOK {
		d, accepted, err := digestResponse(s.body.Bytes())
		if err != nil {
			o.status = -2
			return o
		}
		o.digest, o.accepted = d, accepted
	}
	return o
}

// An answer digest covers what a user is told: accepted or not, the
// deciding feedback code, and the result items in order. Results are
// hashed in their JSON encoding, which the server writes verbatim; so
// the digest of a served body is taken from its bytes without decoding
// megabyte answers. Two hardware-accelerated CRCs make a 64-bit digest
// that costs the client a fraction of what the server spent encoding.
func answerDigest(accepted bool, code string, resultsJSON []byte) string {
	if len(resultsJSON) == 0 {
		resultsJSON = []byte("[]")
	}
	head := []byte(fmt.Sprintf("accepted=%v\ncode=%s\nresults=", accepted, code))
	c := crc32.Update(crc32.Checksum(head, castagnoli), castagnoli, resultsJSON)
	i := crc32.Update(crc32.ChecksumIEEE(head), crc32.IEEETable, resultsJSON)
	return fmt.Sprintf("%08x%08x", c, i)
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// digestOf digests an answer computed in-process.
func digestOf(accepted bool, code string, results []string) string {
	var raw []byte
	if len(results) > 0 {
		var err error
		if raw, err = json.Marshal(results); err != nil {
			panic(err) // a []string always marshals
		}
	}
	return answerDigest(accepted, code, raw)
}

// digestResponse digests a server.Response body. The response schema
// writes "accepted", then "feedback_code" (only when rejected), then
// "results" (omitted when empty) as top-level fields; a quote inside a
// JSON string is escaped, so `,"name":` only matches a top-level key.
func digestResponse(body []byte) (digest string, accepted bool, err error) {
	switch {
	case bytes.Contains(body, []byte(`,"accepted":true`)):
		accepted = true
	case !bytes.Contains(body, []byte(`,"accepted":false`)):
		return "", false, fmt.Errorf("response has no accepted field")
	}
	code := ""
	if i := bytes.Index(body, []byte(`,"feedback_code":"`)); i >= 0 {
		rest := body[i+len(`,"feedback_code":"`):]
		j := bytes.IndexByte(rest, '"')
		if j < 0 {
			return "", false, fmt.Errorf("unterminated feedback_code")
		}
		code = string(rest[:j])
	}
	var results []byte
	if i := bytes.Index(body, []byte(`,"results":[`)); i >= 0 {
		start := i + len(`,"results":`)
		end, err := arrayEnd(body, start)
		if err != nil {
			return "", false, err
		}
		results = body[start:end]
	}
	return answerDigest(accepted, code, results), accepted, nil
}

// arrayEnd returns the index just past the JSON array of strings that
// starts at b[start] == '['.
func arrayEnd(b []byte, start int) (int, error) {
	i := start + 1
	for i < len(b) {
		switch b[i] {
		case ']':
			return i + 1, nil
		case ',':
			i++
		case '"':
			i++
			for i < len(b) && b[i] != '"' {
				if b[i] == '\\' {
					i++
				}
				i++
			}
			i++
		default:
			return 0, fmt.Errorf("unexpected byte %q in results array", b[i])
		}
	}
	return 0, fmt.Errorf("unterminated results array")
}

// warmup makes every session answer each distinct question shape once,
// all sessions in parallel. It goes to the engines directly, because
// the handler does not let a client pick the session. The warmup
// questions are drawn apart from the timed ones, so the timed requests
// still meet cold caches wherever the workload means them to.
func (s *service) warmup(reqs []request) (time.Duration, error) {
	start := time.Now()
	errs := make([]error, len(s.sessions))
	var wg sync.WaitGroup
	for i, eng := range s.sessions {
		wg.Add(1)
		go func(i int, eng *nalix.Engine) {
			defer wg.Done()
			for _, r := range reqs {
				if err := call(eng, r); err != nil {
					errs[i] = fmt.Errorf("warmup %s: %w", r.Key, err)
					return
				}
			}
		}(i, eng)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// call runs one request on an engine without the HTTP layer.
func call(eng *nalix.Engine, r request) error {
	var err error
	switch r.Endpoint {
	case "ask":
		_, err = eng.Ask("", r.Text)
	case "keyword":
		_, err = eng.KeywordSearch("", r.Text)
	case "query":
		_, err = eng.Query(r.Text)
	default:
		err = fmt.Errorf("unknown endpoint %q", r.Endpoint)
	}
	return err
}

// shapeFirsts returns the first request of each distinct shape, in
// first-seen order.
func shapeFirsts(reqs []request) []request {
	seen := map[string]bool{}
	var out []request
	for _, r := range reqs {
		if !seen[r.Shape] {
			seen[r.Shape] = true
			out = append(out, r)
		}
	}
	return out
}

// cacheTotals sums the cache counters of every session.
type cacheTotals struct {
	resultHits, resultLookups int64
	transHits, transLookups   int64
	planHits, planLookups     int64
	coalesced                 int64
}

func (s *service) cacheTotals() cacheTotals {
	var t cacheTotals
	for _, e := range s.sessions {
		st := e.CacheStats()
		t.resultHits += st.Result.Hits
		t.resultLookups += st.Result.Hits + st.Result.Misses
		t.transHits += st.Translation.Hits
		t.transLookups += st.Translation.Hits + st.Translation.Misses
		t.planHits += st.Plan.Hits
		t.planLookups += st.Plan.Hits + st.Plan.Misses
		t.coalesced += st.Singleflight.Shared
	}
	return t
}

func (t cacheTotals) minus(u cacheTotals) cacheTotals {
	return cacheTotals{
		t.resultHits - u.resultHits, t.resultLookups - u.resultLookups,
		t.transHits - u.transHits, t.transLookups - u.transLookups,
		t.planHits - u.planHits, t.planLookups - u.planLookups,
		t.coalesced - u.coalesced,
	}
}

// ratio is a/b, or 0 when nothing was attempted.
func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// median of a copy of xs; 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
