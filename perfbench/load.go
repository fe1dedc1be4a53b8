package main

import (
	"net/http"
	"time"
)

// reads is one timed read phase: per planned op, its latency and how
// late the generator sent it, plus the bodies kept for the correctness
// gate.
type reads struct {
	ops     []op
	lat     []float64 // ms
	late    []float64 // ms
	failed  int
	bodies  map[int][]byte
	elapsed time.Duration
}

func newReads(ops []op) *reads {
	return &reads{ops: ops, lat: make([]float64, len(ops)), late: make([]float64, len(ops)), bodies: make(map[int][]byte)}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// send issues op i and records its outcome, timing it from due.
func (r *reads) send(c *cluster, i int, keep bool, due time.Time) {
	sent := time.Now()
	r.late[i] = ms(sent.Sub(due))
	status, body, err := c.get(r.ops[i].path, keep)
	r.lat[i] = ms(time.Since(due))
	if err != nil || status != http.StatusOK {
		r.failed++
		return
	}
	if keep {
		r.bodies[i] = body
	}
}

// closedLoop sends ops one after another from one client, each as soon
// as the previous answer is read. Latency runs from the send; lateness
// is the generator's own gap between an answer and the next send.
func closedLoop(c *cluster, ops []op, keep []bool) *reads {
	r := newReads(ops)
	start := time.Now()
	prev := start
	for i := range ops {
		sent := time.Now()
		r.send(c, i, keep[i], sent)
		r.late[i] = ms(sent.Sub(prev))
		prev = time.Now()
	}
	r.elapsed = time.Since(start)
	return r
}

// appendPlan is an ingest schedule an open-loop reader drives beside
// its reads: n batches, one every interval from the reader's start.
type appendPlan struct {
	ing      *ingester
	n        int
	interval time.Duration
}

// openLoop sends op i at start + i·period from one client whatever the
// state of earlier requests, timing each from its due time, so a stall
// also counts against every request it delays. With an appendPlan the
// same goroutine also appends each batch at its due time, earliest
// event first.
func openLoop(c *cluster, ops []op, keep []bool, start time.Time, period time.Duration, app *appendPlan) (*reads, error) {
	r := newReads(ops)
	n := 0
	if app != nil {
		n = app.n
	}
	for i, j := 0, 0; i < len(ops) || j < n; {
		due := start.Add(time.Duration(i) * period)
		appending := false
		if j < n {
			if appDue := start.Add(time.Duration(j) * app.interval); i == len(ops) || appDue.Before(due) {
				due, appending = appDue, true
			}
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		if appending {
			if err := app.ing.appendNext(due); err != nil {
				return r, err
			}
			j++
			continue
		}
		r.send(c, i, keep[i], due)
		i++
	}
	r.elapsed = time.Since(start)
	return r, nil
}

// concat joins two read phases over disjoint op lists, b's ops after a's.
func concat(a, b *reads) *reads {
	r := &reads{
		ops:     append(append([]op(nil), a.ops...), b.ops...),
		lat:     append(append([]float64(nil), a.lat...), b.lat...),
		late:    append(append([]float64(nil), a.late...), b.late...),
		failed:  a.failed + b.failed,
		bodies:  a.bodies,
		elapsed: max(a.elapsed, b.elapsed),
	}
	for i, body := range b.bodies {
		r.bodies[len(a.ops)+i] = body
	}
	return r
}
