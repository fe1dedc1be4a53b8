package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"weboftrust"
	"weboftrust/internal/checkpoint"
	"weboftrust/internal/router"
	"weboftrust/internal/server"
)

// cluster is a booted two-shard deployment: each shard is a Server from
// server.OpenCheckpointed (the trustd serve boot path) on its own
// loopback listener, fronted by one Router on another.
type cluster struct {
	srvs    []*server.Server
	tailers []*server.Tailer
	shards  []*httptest.Server
	router  *router.Router
	front   *httptest.Server
	client  *http.Client
	base    string
	// openS is each shard's OpenCheckpointed wall time, in seconds.
	openS []float64
}

// bootCluster boots every shard from its checkpoint and the live log
// and waits until the router reports the whole cluster ready. With a
// tracer, both handlers are wrapped so each request leaves spans.
func bootCluster(in *inputs, tr *tracer) (*cluster, error) {
	c := &cluster{}
	var urls [][]string
	for i := 0; i < numShards; i++ {
		start := time.Now()
		srv, tailer, info, err := server.OpenCheckpointed(in.logPath, in.ckptDirs[i], time.Hour, server.Options{}, in.shardOpts[i]...)
		if err != nil {
			c.close()
			return nil, fmt.Errorf("boot shard %d: %w", i, err)
		}
		if !info.Warm {
			c.close()
			return nil, fmt.Errorf("boot shard %d: checkpoint unusable: %s", i, info.FallbackReason)
		}
		tr.span(0, "boot.open", start, time.Now())
		c.openS = append(c.openS, time.Since(start).Seconds())
		c.srvs = append(c.srvs, srv)
		c.tailers = append(c.tailers, tailer)
		ts := httptest.NewServer(tr.wrap("shard", srv.Handler()))
		c.shards = append(c.shards, ts)
		urls = append(urls, []string{ts.URL})
	}
	rt, err := router.New(router.Config{Shards: urls})
	if err != nil {
		c.close()
		return nil, err
	}
	c.router = rt
	c.front = httptest.NewServer(tr.wrap("router", rt.Handler()))
	c.base = c.front.URL
	// Two connections: the load generators never have more than two
	// requests in flight.
	c.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := rt.WaitReady(ctx); err != nil {
		c.close()
		return nil, fmt.Errorf("router ready: %w", err)
	}
	return c, nil
}

// close stops every listener and drops pooled connections.
func (c *cluster) close() {
	if c.client != nil {
		c.client.CloseIdleConnections()
	}
	if c.front != nil {
		c.front.Close()
	}
	for _, ts := range c.shards {
		ts.Close()
	}
}

// get sends one routed GET and returns its status; keep asks for the
// body (otherwise it is drained and dropped).
func (c *cluster) get(path string, keep bool) (int, []byte, error) {
	resp, err := c.client.Get(c.base + path)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	if keep {
		body, err := io.ReadAll(resp.Body)
		return resp.StatusCode, body, err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, nil, err
}

// warm sends ops split across two concurrent clients and returns how
// many answered other than 200.
func (c *cluster) warm(ops []op) int {
	var wg sync.WaitGroup
	bad := make([]int, 2)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(ops); i += 2 {
				if status, _, err := c.get(ops[i].path, false); err != nil || status != http.StatusOK {
					bad[g]++
				}
			}
		}(g)
	}
	wg.Wait()
	return bad[0] + bad[1]
}

// scrape reads the named unlabeled counters and gauges from base's
// /metrics.
func scrape(client *http.Client, base string, names ...string) (map[string]float64, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return parseMetrics(string(body), names), nil
}

// shardCounters sums the named metrics over every shard.
func (c *cluster) shardCounters(names ...string) (map[string]float64, error) {
	sum := make(map[string]float64)
	for _, ts := range c.shards {
		m, err := scrape(c.client, ts.URL, names...)
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			sum[k] += v
		}
	}
	return sum, nil
}

// restoreSideCalls times, outside the boot, the two pieces of a warm
// boot's restore: reading shard 0's checkpoint (decode + rehydrate +
// weboftrust.Restore) and the final weboftrust.Restore call alone on
// the decoded dataset and artifacts.
func restoreSideCalls(in *inputs, tr *tracer) error {
	start := time.Now()
	m, _, err := checkpoint.Restore(in.ckptDirs[0], in.shardOpts[0]...)
	if err != nil {
		return err
	}
	tr.span(0, "checkpoint.read", start, time.Now())
	start = time.Now()
	if _, err := weboftrust.Restore(m.Dataset(), m.Artifacts(), in.shardOpts[0]...); err != nil {
		return err
	}
	tr.span(0, "core.restore", start, time.Now())
	return nil
}
