package main

import (
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// result is what the load generator saw of one request.
type result struct {
	latency time.Duration // from the scheduled send; failures are +Inf in percentiles
	lag     time.Duration // actual send minus scheduled send
	out     outcome
	failed  bool
}

// pass is one timed run of a request list.
type pass struct {
	reqs    []request
	results []result
	wall    time.Duration
}

// checker decides whether a served outcome is correct.
type checker func(r request, o outcome) bool

// closedLoop sends reqs from `clients` clients, each sending its next
// request as soon as the previous one returns.
// Request i goes to handler[i%2], so a traced run can trace every other
// request under the same load.
func closedLoop(handler [2]http.Handler, reqs []request, clients int, ok checker) pass {
	bodies := bodiesOf(reqs)
	p := pass{reqs: reqs, results: make([]result, len(reqs))}
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := &sink{hdr: http.Header{}}
			due := time.Now() // a closed-loop client's next request is due at once
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				sent := time.Now()
				o := serve(handler[i%2], s, reqs[i], bodies[i])
				p.results[i] = result{latency: o.done.Sub(sent), lag: sent.Sub(due), out: o, failed: !ok(reqs[i], o)}
				due = time.Now()
			}
		}()
	}
	wg.Wait()
	p.wall = time.Since(start)
	return p
}

// arrivals returns n Poisson arrival offsets at rate per second.
func arrivals(rng *rand.Rand, n int, rate float64) []time.Duration {
	out := make([]time.Duration, n)
	var t float64
	for i := range out {
		t += rng.ExpFloat64() / rate
		out[i] = time.Duration(t * float64(time.Second))
	}
	return out
}

// openLoop sends reqs[i] at start+at[i] whatever is still in flight,
// each on its own goroutine, and times it from that scheduled instant,
// so a stall also delays every request due during it. Request i goes to
// handler[i%2].
func openLoop(handler [2]http.Handler, reqs []request, at []time.Duration, ok checker) pass {
	bodies := bodiesOf(reqs)
	p := pass{reqs: reqs, results: make([]result, len(reqs))}
	sinks := sync.Pool{New: func() any { return &sink{hdr: http.Header{}} }}
	var wg sync.WaitGroup
	start := time.Now()
	for i := range reqs {
		due := start.Add(at[i])
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		// The generator's lateness is when it hands the request off; the
		// wait for a goroutine to run it belongs to the request, as the
		// wait for a connection's goroutine would in a real server.
		sent := time.Now()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := sinks.Get().(*sink)
			o := serve(handler[i%2], s, reqs[i], bodies[i])
			sinks.Put(s)
			p.results[i] = result{latency: o.done.Sub(due), lag: sent.Sub(due), out: o, failed: !ok(reqs[i], o)}
		}(i)
	}
	wg.Wait()
	p.wall = time.Since(start)
	return p
}

func bodiesOf(reqs []request) [][]byte {
	out := make([][]byte, len(reqs))
	for i, r := range reqs {
		out[i] = r.body()
	}
	return out
}

// latencies returns the request latencies in ms, ascending, with
// failures as +Inf: a failed request misses every latency limit.
func (p pass) latencies() []float64 {
	out := make([]float64, len(p.results))
	for i, r := range p.results {
		out[i] = float64(r.latency) / 1e6
		if r.failed {
			out[i] = math.Inf(1)
		}
	}
	sort.Float64s(out)
	return out
}

// oddOverEven compares the odd-numbered requests with the even-numbered
// ones shape by shape, so a shape's share of either half does not
// matter: it returns the median over shapes of median(odd)/median(even)
// minus one.
func (p pass) oddOverEven() float64 {
	type halves struct{ even, odd []float64 }
	by := map[string]*halves{}
	for i, r := range p.results {
		h := by[p.reqs[i].Shape]
		if h == nil {
			h = &halves{}
			by[p.reqs[i].Shape] = h
		}
		if i%2 == 0 {
			h.even = append(h.even, float64(r.latency))
		} else {
			h.odd = append(h.odd, float64(r.latency))
		}
	}
	var ratios []float64
	for _, h := range by {
		if len(h.even) > 0 && len(h.odd) > 0 {
			ratios = append(ratios, median(h.odd)/median(h.even)-1)
		}
	}
	sort.Float64s(ratios)
	return median(ratios)
}

// askSplit counts the /ask requests answered and, of those, the
// feedback rejections.
func (p pass) askSplit() (asks, rejected int) {
	for i, r := range p.results {
		if p.reqs[i].Endpoint == "ask" && r.out.status == http.StatusOK {
			asks++
			if !r.out.accepted {
				rejected++
			}
		}
	}
	return asks, rejected
}

// shapeMedians describes each shape's median latency and count, slowest
// first, for the run log.
func (p pass) shapeMedians() string {
	by := map[string][]float64{}
	for i, r := range p.results {
		by[p.reqs[i].Shape] = append(by[p.reqs[i].Shape], float64(r.latency)/1e6)
	}
	type row struct {
		shape string
		p50   float64
		n     int
	}
	var rows []row
	for s, xs := range by {
		rows = append(rows, row{s, median(xs), len(xs)})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].p50 > rows[j].p50 })
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, " %s=%.2fms/%d", r.shape, r.p50, r.n)
	}
	return b.String()
}

func (p pass) failures() int {
	n := 0
	for _, r := range p.results {
		if r.failed {
			n++
		}
	}
	return n
}

// percentile is the nearest-rank p-th percentile of ascending xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	return xs[rank-1]
}

// tailLadder lists the percentiles the tail is reported at, highest
// first: the usual nines.
var tailLadder = []float64{99.99, 99.9, 99, 90, 50}

// hdQuantile is the Harrell–Davis estimate of the p-th quantile
// (0 < p < 1) of ascending xs: a weighted mean of all order statistics,
// with Beta(p(n+1), (1-p)(n+1)) weights, so the estimate does not hinge
// on the one sample at the nearest rank. Its variance is well below the
// nearest-rank estimate's at the tail, where the samples are few. A
// failure (+Inf) that carries weight makes the estimate +Inf.
func hdQuantile(xs []float64, p float64) float64 {
	n := float64(len(xs))
	a, b := p*(n+1), (1-p)*(n+1)
	var sum, prev float64
	for i := range xs {
		cur := regIncBeta(float64(i+1)/n, a, b)
		w := cur - prev
		prev = cur
		if w < 1e-12 {
			continue
		}
		if math.IsInf(xs[i], 1) {
			return math.Inf(1)
		}
		sum += w * xs[i]
	}
	return sum
}

// regIncBeta is the regularized incomplete beta function I_x(a, b),
// by its continued fraction (Numerical Recipes, betai).
func regIncBeta(x, a, b float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log1p(-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(x, a, b) / a
	}
	return 1 - front*betaCF(1-x, b, a)/b
}

// betaCF evaluates the continued fraction of the incomplete beta
// function by the modified Lentz method.
func betaCF(x, a, b float64) float64 {
	const eps, tiny = 1e-14, 1e-300
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	h := d
	for m := 1.0; m <= 1000; m++ {
		aa := m * (b - m) * x / ((a - 1 + 2*m) * (a + 2*m))
		d = 1 / clamp(1+aa*d)
		c = clamp(1 + aa/c)
		h *= d * c
		aa = -(a + m) * (a + b + m) * x / ((a + 2*m) * (a + 1 + 2*m))
		d = 1 / clamp(1+aa*d)
		c = clamp(1 + aa/c)
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

// tailPercentile picks the highest percentile of the ladder that leaves
// at least minBeyond samples above its nearest rank out of n.
func tailPercentile(n, minBeyond int) float64 {
	for _, p := range tailLadder {
		rank := int(math.Ceil(p / 100 * float64(n)))
		if n-rank >= minBeyond {
			return p
		}
	}
	return 50
}
