package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// op is one prepared request.
type op struct {
	method string
	target string
	id     string
	body   []byte
}

func readOps(prefix string, rs []read) []op {
	ops := make([]op, len(rs))
	for i, r := range rs {
		ops[i] = op{method: "GET", target: r.target(), id: prefix + itoa(i)}
	}
	return ops
}

func batchOps(prefix string, bs []batch) []op {
	ops := make([]op, len(bs))
	for i, b := range bs {
		ops[i] = op{method: "POST", target: "/v1/traffic/batch", id: prefix + itoa(i), body: b.body()}
	}
	return ops
}

// sample is the client-side record of one request. Times are offsets
// from the run's epoch. due is when the schedule wanted the request sent
// (equal to dispatch in a closed loop); dispatch is when the generator
// released it to a connection; sent is when the connection began writing
// it; done is when the whole response had been read.
type sample struct {
	issued bool
	// waited marks a request whose connection was free before it was due
	// and slept until then: its dispatch-minus-due is the generator's own
	// lateness. A request that found every connection busy queued instead.
	waited   bool
	due      time.Duration
	dispatch time.Duration
	sent     time.Duration
	done     time.Duration
	rep      reply
	err      error
	// bad marks a response the verifier rejected.
	bad bool
}

// latency is the request's time from its due time to its response: in an
// open loop this includes any wait behind earlier requests, so a stalled
// server cannot hide its queueing.
func (s sample) latency() time.Duration { return s.done - s.due }

// lag is how late the generator released the request after sleeping
// for it (see waited).
func (s sample) lag() time.Duration { return s.dispatch - s.due }

// ok reports a 2xx response with no transport error that the verifier
// (once run) accepted.
func (s sample) ok() bool { return s.issued && s.err == nil && s.rep.status/100 == 2 && !s.bad }

type loadgen struct {
	epoch time.Time
}

func (lg *loadgen) now() time.Duration { return time.Since(lg.epoch) }

// sleepUntil blocks until t, an epoch offset.
func (lg *loadgen) sleepUntil(sl *sleeper, t time.Duration) error {
	for {
		d := t - lg.now()
		if d <= 0 {
			return nil
		}
		if err := sl.sleep(d); err != nil {
			return err
		}
	}
}

func (lg *loadgen) exec(c *conn, o op, s *sample) {
	s.issued = true
	s.sent = lg.now()
	s.rep, s.err = c.do(o.method, o.target, o.id, o.body)
	s.done = lg.now()
}

// closed runs a closed loop: each connection sends its next request as
// soon as its previous one completes, until d has passed or ops run out.
// next is the cursor into ops, kept across calls; samples land in res at
// their op's index. It returns the wall time spent.
func (lg *loadgen) closed(conns []*conn, ops []op, res []sample, next *atomic.Int64, d time.Duration) time.Duration {
	start := lg.now()
	end := start + d
	var wg sync.WaitGroup
	for _, c := range conns {
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			for lg.now() < end {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				s := &res[i]
				s.due = lg.now()
				s.dispatch = s.due
				lg.exec(c, ops[i], s)
			}
		}(c)
	}
	wg.Wait()
	return lg.now() - start
}

// open runs an open loop over conns: op i is due at start+due[i]
// regardless of how earlier requests fare. Each connection, when free,
// takes the next op in schedule order and, if it is not yet due, sleeps
// until it is — a FIFO queue served by len(conns) connections, without a
// dispatcher goroutine's extra wake-up on the way to the wire.
func (lg *loadgen) open(conns []*conn, ops []op, due []time.Duration, start time.Duration) ([]sample, error) {
	sleepers := make([]*sleeper, len(conns))
	for k := range conns {
		sl, err := newSleeper()
		if err != nil {
			for _, sl := range sleepers[:k] {
				sl.close()
			}
			return nil, err
		}
		sleepers[k] = sl
	}
	res := make([]sample, len(ops))
	errs := make([]error, len(conns))
	var next atomic.Int64
	var wg sync.WaitGroup
	for k, c := range conns {
		sl := sleepers[k]
		wg.Add(1)
		go func(k int, c *conn, sl *sleeper) {
			defer wg.Done()
			defer sl.close()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				s := &res[i]
				s.due = start + due[i]
				if s.due > lg.now() {
					if errs[k] = lg.sleepUntil(sl, s.due); errs[k] != nil {
						return
					}
					s.waited = true
				}
				s.dispatch = lg.now()
				lg.exec(c, ops[i], s)
			}
		}(k, c, sl)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}

// feed is the live traffic feed, run on its own connection beside the
// reads; wait returns its samples once every batch has been answered.
type feed struct {
	res  []sample
	err  error
	done chan struct{}
}

func (lg *loadgen) startFeed(c *conn, ops []op, due []time.Duration, start time.Duration) (*feed, error) {
	sl, err := newSleeper()
	if err != nil {
		return nil, err
	}
	f := &feed{res: make([]sample, len(ops)), done: make(chan struct{})}
	go func() {
		defer close(f.done)
		defer sl.close()
		for i := range ops {
			at := start + due[i]
			if f.err = lg.sleepUntil(sl, at); f.err != nil {
				return
			}
			f.res[i].due = at
			f.res[i].dispatch = lg.now()
			lg.exec(c, ops[i], &f.res[i])
		}
	}()
	return f, nil
}

func (f *feed) wait() ([]sample, error) {
	<-f.done
	return f.res, f.err
}

// sequential sends ops back to back on one connection (the closing write
// probe); each request is due when the previous one has finished.
func (lg *loadgen) sequential(c *conn, ops []op) []sample {
	res := make([]sample, len(ops))
	for i := range ops {
		res[i].due = lg.now()
		res[i].dispatch = res[i].due
		lg.exec(c, ops[i], &res[i])
	}
	return res
}
