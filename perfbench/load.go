package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// call is one HTTP request of a workload and, once sent, its response.
type call struct {
	idx    int // position in the workload's request sequence
	owner  int // client that must send it, -1 for any (session deltas keep their order)
	method string
	path   string
	body   []byte
	meta   any // the workload's record of what was sent, for checks and replay

	sent    bool
	sentAt  time.Time
	latency time.Duration
	status  int
	resp    []byte
	source  string // X-Sapalloc-Cache
	err     error
}

// newClients returns n HTTP clients, one per client goroutine: each keeps
// its own keep-alive connection to the server.
func newClients(n int) []*http.Client {
	cls := make([]*http.Client, n)
	for i := range cls {
		cls[i] = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}}
	}
	return cls
}

func closeClients(cls []*http.Client) {
	for _, cl := range cls {
		cl.CloseIdleConnections()
	}
}

// send performs the call and records its client-observed latency, from
// send to the last byte read.
func send(cl *http.Client, base string, c *call) {
	req, err := http.NewRequest(c.method, base+c.path, bytes.NewReader(c.body))
	if err != nil {
		c.err = err
		return
	}
	req.Header.Set("Content-Type", "application/json")
	c.sent = true
	c.sentAt = time.Now()
	resp, err := cl.Do(req)
	if err != nil {
		c.latency = time.Since(c.sentAt)
		c.err = err
		return
	}
	c.resp, c.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	c.latency = time.Since(c.sentAt)
	c.status = resp.StatusCode
	c.source = resp.Header.Get("X-Sapalloc-Cache")
}

// answered reports whether the call got a 2xx response.
func (c *call) answered() error {
	switch {
	case !c.sent:
		return fmt.Errorf("request %d not sent", c.idx)
	case c.err != nil:
		return fmt.Errorf("request %d: %v", c.idx, c.err)
	case c.status < 200 || c.status > 299:
		return fmt.Errorf("request %d: status %d: %s", c.idx, c.status, bytes.TrimSpace(c.resp))
	}
	return nil
}

// sendAll sends calls from n clients, untimed: the set-up passes use it.
// Calls with an owner go through that client in order.
func sendAll(base string, calls []*call, n int) error {
	cls := newClients(n)
	drive(base, calls, cls, func() bool { return false }, nil)
	closeClients(cls)
	for _, c := range calls {
		if err := c.answered(); err != nil {
			return err
		}
	}
	return nil
}

// drive runs a closed loop over calls from the clients, each on its own
// connection: a client sends its next call only when the previous one has
// been answered. Calls without an owner are taken from a shared queue in
// sequence order; owned calls are sent by their owner in order. Before each
// send a client asks stop whether the phase is over. after, when non-nil,
// runs on the client's goroutine after each answered call (the traced
// run's replay). drive returns when every client has ended.
func drive(base string, calls []*call, cls []*http.Client, stop func() bool, after func(client int, c *call)) {
	n := len(cls)
	owned := make([][]*call, n)
	var shared []*call
	for _, c := range calls {
		if c.owner >= 0 {
			owned[c.owner%n] = append(owned[c.owner%n], c)
		} else {
			shared = append(shared, c)
		}
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			cl := cls[client]
			mine := owned[client]
			for {
				var c *call
				if len(mine) > 0 {
					c, mine = mine[0], mine[1:]
				} else if j := int(next.Add(1)) - 1; j < len(shared) {
					c = shared[j]
				} else {
					return
				}
				if stop() {
					return
				}
				send(cl, base, c)
				if after != nil && c.answered() == nil {
					after(client, c)
				}
			}
		}(i)
	}
	wg.Wait()
}

// phase accumulates the timed phase over its rounds.
type phase struct {
	attempted, ok, degraded int
	errs                    []error
	wall                    time.Duration
	latMs                   []float64 // +Inf for failed requests: they miss any latency limit
	sources                 map[string]int
	cpuNs                   int64
	alloc                   uint64
	counters                map[string]int64
	hists                   map[string][2]int64
	end                     serverStats // after the last round, with the live heap
}

// add folds the server readings taken around one round into the phase.
func (p *phase) add(before, after serverStats) {
	p.cpuNs += after.CPUNs - before.CPUNs
	p.alloc += after.TotalAlloc - before.TotalAlloc
	for k, v := range after.Counters {
		p.counters[k] += v - before.Counters[k]
	}
	for k, v := range after.Hists {
		b := before.Hists[k]
		h := p.hists[k]
		p.hists[k] = [2]int64{h[0] + v[0] - b[0], h[1] + v[1] - b[1]}
	}
}

// timed runs the workload's timed phase against srv: rounds of calls,
// each encoded before its timing starts and checked after it ends, until
// the phase has lasted b.seconds and, untraced, sent at least minRequests.
// rec, when non-nil, replays each answered call through the layer
// functions; the traced run reports no tail percentile, so it stops on
// time alone. The clients keep their connections across rounds, and the
// live heap is read while they are still open, so it holds the same
// connection state on every run.
func timed(b *bench, srv *server, w workload, rec *tracer) (*phase, error) {
	p := &phase{sources: map[string]int{}, counters: map[string]int64{}, hists: map[string][2]int64{}}
	cls := newClients(b.clients)
	defer closeClients(cls)
	least := minRequests
	if rec != nil {
		least = 1
	}
	var issued atomic.Int64
	seq := 0
	for p.wall < b.seconds || p.attempted < least {
		calls, err := w.round(seq, w.info().round)
		if err != nil {
			return nil, err
		}
		if len(calls) == 0 {
			return nil, fmt.Errorf("workload %s encoded no calls", w.info().Name)
		}
		seq += len(calls)
		before, err := srv.stats(false)
		if err != nil {
			return nil, err
		}
		elapsed := p.wall
		t0 := time.Now()
		stop := func() bool {
			if elapsed+time.Since(t0) >= b.seconds && issued.Load() >= int64(least) {
				return true
			}
			issued.Add(1)
			return false
		}
		var after func(int, *call)
		if rec != nil {
			after = func(client int, c *call) { rec.replay(client, c, w) }
		}
		drive(srv.url, calls, cls, stop, after)
		p.wall += time.Since(t0)
		reading, err := srv.stats(false)
		if err != nil {
			return nil, err
		}
		p.add(before, reading)
		cut := false // the phase ended inside this round
		for _, c := range calls {
			if !c.sent {
				cut = true
				continue
			}
			p.attempted++
			err := c.answered()
			degraded := false
			if err == nil {
				degraded, err = w.check(c)
			}
			if err != nil {
				p.errs = append(p.errs, err)
				p.latMs = append(p.latMs, math.Inf(1))
				continue
			}
			p.ok++
			if degraded {
				p.degraded++
			}
			p.sources[c.source]++
			p.latMs = append(p.latMs, float64(c.latency)/float64(time.Millisecond))
		}
		if cut {
			break
		}
	}
	sort.Float64s(p.latMs)
	var err error
	p.end, err = srv.stats(true)
	return p, err
}
