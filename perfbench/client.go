package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// client speaks the daemon's HTTP API with at most nproc connections.
type client struct {
	base string
	http *http.Client
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &client{base: base, http: &http.Client{Transport: tr, Timeout: 170 * time.Second}}
}

// close drops the client's idle connections.
func (c *client) close() { c.http.CloseIdleConnections() }

// reply is one synchronous job submission as the caller saw it.
type reply struct {
	View    jobView
	Result  jobResult
	Latency time.Duration
	Bytes   int
	Err     error // transport error, non-2xx status or job failure
}

// submit posts spec with ?wait=1 and decodes the resolved job.
func (c *client) submit(spec jobSpec) reply {
	body, err := json.Marshal(spec)
	if err != nil {
		return reply{Err: err}
	}
	start := time.Now()
	resp, err := c.http.Post(c.base+"/v1/jobs?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{Latency: time.Since(start), Err: err}
	}
	payload, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r := reply{Latency: time.Since(start), Bytes: len(payload)}
	if err != nil {
		r.Err = err
		return r
	}
	if resp.StatusCode != http.StatusOK {
		r.Err = fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(payload)))
		return r
	}
	if err := json.Unmarshal(payload, &r.View); err != nil {
		r.Err = fmt.Errorf("decoding job: %w", err)
		return r
	}
	if r.View.State != stateDone {
		r.Err = fmt.Errorf("job %s resolved %s: %s", r.View.ID, r.View.State, r.View.Error)
		return r
	}
	r.Result, r.Err = decodeJobResult(r.View.Result)
	return r
}

// submitTraced is submit with an "http" span on tr (when non-nil) named
// name and tagged with the job id. It returns the span's id.
func (c *client) submitTraced(tr *tracer, name string, spec jobSpec) (reply, int) {
	start := time.Now()
	rep := c.submit(spec)
	return rep, tr.add(0, "http", name, rep.View.ID, start, time.Now())
}

func (c *client) getJSON(path string, v any) error {
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func (c *client) timeline(jobID string) (*timeline, error) {
	var tl timeline
	if err := c.getJSON("/v1/jobs/"+jobID+"/timeline", &tl); err != nil {
		return nil, err
	}
	return &tl, nil
}

// metrics scrapes /metrics into name -> value for the unlabelled
// samples (histogram and labelled families are skipped).
func (c *client) metrics() (map[string]float64, error) {
	resp, err := c.http.Get(c.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' || strings.ContainsAny(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

// waitWorkers polls the coordinator until n workers are live.
func (c *client) waitWorkers(n int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		var ws []workerView
		if err := c.getJSON("/v1/cluster/workers", &ws); err == nil {
			live := 0
			for _, w := range ws {
				if w.Live {
					live++
				}
			}
			if live >= n {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("coordinator saw fewer than %d live workers after %v", n, timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// walk visits every node of a timeline tree with its parent.
func (n *timelineNode) walk(parent *timelineNode, fn func(n, parent *timelineNode)) {
	if n == nil {
		return
	}
	fn(n, parent)
	for _, c := range n.Children {
		c.walk(n, fn)
	}
}
