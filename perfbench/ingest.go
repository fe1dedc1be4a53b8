package main

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"weboftrust/internal/ratings"
	"weboftrust/internal/server"
	"weboftrust/internal/store"
)

// pollRec is one completed poll on one shard.
type pollRec struct {
	done   time.Time
	offset int64
	events int
}

// ingester appends planned batches to the live log and wakes one poller
// per shard after each append; every poller calls its shard's poll at
// once, so freshness is never quantised by a poll timer.
type ingester struct {
	in   *inputs
	f    *os.File
	size int64
	next int // next batch of in.batches to append

	// ends and due record, per appended batch, the log size after it
	// and the time it was due.
	ends []int64
	due  []time.Time
	late []float64 // ms the appender ran behind each due time

	wake     []chan struct{}
	progress chan struct{}
	stop     chan struct{}
	wg       sync.WaitGroup

	mu       sync.Mutex
	polls    [][]pollRec
	pollErrs int
	dirty    []int // dirty users per traced tick on shard 0
}

// poller is one shard's ingest step: Tailer.Poll untraced, or the same
// public calls made one by one under spans when traced.
type poller func() (events int, offset int64, err error)

func startIngest(in *inputs, c *cluster, tr *tracer) (*ingester, error) {
	f, err := os.OpenFile(in.logPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	ing := &ingester{
		in: in, f: f, size: st.Size(),
		progress: make(chan struct{}, 1),
		stop:     make(chan struct{}),
		polls:    make([][]pollRec, numShards),
		wake:     make([]chan struct{}, numShards),
	}
	for s := range ing.wake {
		ing.wake[s] = make(chan struct{}, 1)
	}
	for s := 0; s < numShards; s++ {
		var p poller
		if tr == nil {
			t := c.tailers[s]
			p = func() (int, int64, error) {
				n, err := t.Poll()
				return n, t.Offset(), err
			}
		} else {
			dp := &decomposedPoll{srv: c.srvs[s], path: in.logPath, offset: c.tailers[s].Offset(), tr: tr}
			if s == 0 {
				dp.dirty = func(n int) { ing.mu.Lock(); ing.dirty = append(ing.dirty, n); ing.mu.Unlock() }
			}
			p = dp.poll
		}
		ing.wg.Add(1)
		go ing.run(s, p)
	}
	return ing, nil
}

// run is shard s's poller goroutine. A wake that arrives mid-poll stays
// buffered, so the poller goes again straight after.
func (ing *ingester) run(s int, p poller) {
	defer ing.wg.Done()
	for {
		select {
		case <-ing.stop:
			return
		case <-ing.wake[s]:
		}
		n, off, err := p()
		ing.mu.Lock()
		ing.polls[s] = append(ing.polls[s], pollRec{done: time.Now(), offset: off, events: n})
		if err != nil {
			ing.pollErrs++
		}
		ing.mu.Unlock()
		select {
		case ing.progress <- struct{}{}:
		default:
		}
	}
}

// appendNext writes the next planned batch, due at due, and wakes every
// poller.
func (ing *ingester) appendNext(due time.Time) error {
	if ing.next >= len(ing.in.batches) {
		return fmt.Errorf("ingest: only %d batches planned", len(ing.in.batches))
	}
	b := ing.in.batches[ing.next]
	ing.next++
	ing.late = append(ing.late, ms(time.Since(due)))
	if _, err := ing.f.Write(b.raw); err != nil {
		return err
	}
	ing.size += int64(len(b.raw))
	ing.ends = append(ing.ends, ing.size)
	ing.due = append(ing.due, due)
	for _, w := range ing.wake {
		select {
		case w <- struct{}{}:
		default:
		}
	}
	return nil
}

// waitFor blocks until every shard has polled past offset.
func (ing *ingester) waitFor(offset int64, timeout time.Duration) error {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		ing.mu.Lock()
		caught := true
		for _, ps := range ing.polls {
			if len(ps) == 0 || ps[len(ps)-1].offset < offset {
				caught = false
			}
		}
		errs := ing.pollErrs
		ing.mu.Unlock()
		if caught {
			return nil
		}
		if errs > 0 {
			return fmt.Errorf("ingest: %d failed polls", errs)
		}
		select {
		case <-ing.progress:
		case <-deadline.C:
			return fmt.Errorf("ingest: shards not at offset %d after %v", offset, timeout)
		}
	}
}

// closedLoop appends n batches, each as soon as every shard serves the
// previous one.
func (ing *ingester) closedLoop(n int) error {
	for i := 0; i < n; i++ {
		if err := ing.appendNext(time.Now()); err != nil {
			return err
		}
		if err := ing.waitFor(ing.size, ingestTimeout); err != nil {
			return err
		}
	}
	return nil
}

// openLoop appends n batches at start + i·interval, whatever the shards'
// progress, then waits until every shard serves the last one.
func (ing *ingester) openLoop(n int, start time.Time, interval time.Duration) error {
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		if err := ing.appendNext(due); err != nil {
			return err
		}
	}
	return ing.waitFor(ing.size, ingestTimeout)
}

// close stops the pollers, waits for them and closes the log.
func (ing *ingester) close() error {
	close(ing.stop)
	ing.wg.Wait()
	return ing.f.Close()
}

// visible returns, for appended batches [from, len), the time from each
// batch's due time until every shard had swapped in a model covering it.
func (ing *ingester) visible(from int) []float64 {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	var out []float64
	for i := from; i < len(ing.ends); i++ {
		var last time.Time
		for _, ps := range ing.polls {
			for _, p := range ps {
				if p.offset >= ing.ends[i] {
					if p.done.After(last) {
						last = p.done
					}
					break
				}
			}
		}
		out = append(out, ms(last.Sub(ing.due[i])))
	}
	return out
}

// batchesPerPoll returns, for every poll that ingested anything after
// offset base, how many planned batches it covered.
func (ing *ingester) batchesPerPoll(base int64) []float64 {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	var out []float64
	for _, ps := range ing.polls {
		prev := int64(-1)
		for _, p := range ps {
			if p.events == 0 {
				continue
			}
			lo := prev
			prev = p.offset
			if p.offset <= base {
				continue
			}
			n := 0
			for _, e := range ing.ends {
				if e > lo && e <= p.offset && e > base {
					n++
				}
			}
			out = append(out, float64(n))
		}
	}
	return out
}

// decomposedPoll is Tailer.Poll spelled out through the same public
// calls in the same order, each under its own span: read the log tail,
// replay it into the builder, snapshot, update the model, build its web,
// swap it into the server.
type decomposedPoll struct {
	srv     *server.Server
	path    string
	offset  int64
	builder *ratings.Builder
	tr      *tracer
	dirty   func(int)
}

func (p *decomposedPoll) poll() (int, int64, error) {
	tr := p.tr
	id := tr.newID()
	begin := time.Now()
	f, err := os.Open(p.path)
	if err != nil {
		return 0, p.offset, err
	}
	t := time.Now()
	events, newOffset, err := store.ReadLogFrom(f, p.offset)
	f.Close()
	if err != nil && !errors.Is(err, store.ErrTruncated) {
		return 0, p.offset, err
	}
	tr.span(id, "store.read", t, time.Now())
	if len(events) == 0 {
		return 0, p.offset, nil
	}
	cur, _, _ := p.srv.Current()
	if p.builder == nil {
		t = time.Now()
		p.builder = ratings.NewBuilderFrom(cur.Dataset())
		tr.span(id, "ratings.builder", t, time.Now())
	}
	t = time.Now()
	if err := store.Replay(events, p.builder); err != nil {
		return 0, p.offset, err
	}
	tr.span(id, "store.replay", t, time.Now())
	t = time.Now()
	newD := p.builder.Snapshot()
	tr.span(id, "ratings.snapshot", t, time.Now())
	t = time.Now()
	model, err := cur.Update(newD)
	if err != nil {
		return 0, p.offset, err
	}
	tr.span(id, "core.update", t, time.Now())
	t = time.Now()
	model.WebOfTrust()
	tr.span(id, "core.web", t, time.Now())
	if p.dirty != nil {
		p.dirty(countTrue(model.DirtyUsers()))
	}
	t = time.Now()
	p.srv.Swap(model, newOffset)
	tr.span(id, "server.swap", t, time.Now())
	p.offset = newOffset
	tr.add(id, 0, "poll", "", begin, time.Now())
	return len(events), newOffset, nil
}

func countTrue(b []bool) int {
	n := 0
	for _, v := range b {
		if v {
			n++
		}
	}
	return n
}
