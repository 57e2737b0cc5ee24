package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"hitlist6/internal/addr"
)

// daemon is one ingestd child: started on free loopback ports, driven
// over its UDP socket and HTTP surface only, and always reaped.
type daemon struct {
	cmd       *exec.Cmd
	flags     []string
	udpPort   int
	base      string // http://127.0.0.1:port
	execAt    time.Time
	readyAt   time.Time
	exited    chan struct{}
	waitErr   error
	stderr    bytes.Buffer
	control   *http.Client // /stats, /metrics, /snapshot, /readyz
	stopped   bool
	stopTook  time.Duration
	peakRSSMB float64 // VmHWM just before SIGTERM
}

// freePort asks the kernel for an unused loopback port of the given
// network ("tcp" or "udp") by binding port 0 and releasing it.
func freePort(network string) (int, error) {
	if network == "udp" {
		c, err := net.ListenPacket("udp4", "127.0.0.1:0")
		if err != nil {
			return 0, err
		}
		defer c.Close()
		return c.LocalAddr().(*net.UDPAddr).Port, nil
	}
	l, err := net.Listen("tcp4", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

func keepAliveClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
		Timeout:   60 * time.Second,
	}
}

// startDaemon execs ingestd with the UDP source and HTTP surface on
// fresh loopback ports plus the workload's flags, and waits for
// /readyz. ctx cancellation kills the child.
func startDaemon(ctx context.Context, bin string, extra ...string) (*daemon, error) {
	udpPort, err := freePort("udp")
	if err != nil {
		return nil, err
	}
	httpPort, err := freePort("tcp")
	if err != nil {
		return nil, err
	}
	d := &daemon{
		udpPort: udpPort,
		base:    "http://127.0.0.1:" + strconv.Itoa(httpPort),
		exited:  make(chan struct{}),
		control: keepAliveClient(),
	}
	d.flags = append([]string{
		"-udp", "127.0.0.1:" + strconv.Itoa(udpPort),
		"-listen", "127.0.0.1:" + strconv.Itoa(httpPort),
		"-outage.bin", "0", "-snapshot", "500ms", "-log.level", "error",
	}, extra...)
	d.cmd = exec.CommandContext(ctx, bin, d.flags...)
	d.cmd.Stderr = &d.stderr
	d.execAt = time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start ingestd: %w", err)
	}
	go func() {
		d.waitErr = d.cmd.Wait()
		close(d.exited)
	}()
	for {
		resp, err := d.control.Get(d.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				d.readyAt = time.Now()
				return d, nil
			}
		}
		select {
		case <-d.exited:
			return nil, fmt.Errorf("ingestd exited before ready: %v: %s", d.waitErr, d.stderr.String())
		case <-ctx.Done():
			d.kill()
			return nil, ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// kill is the failure path: SIGKILL and reap.
func (d *daemon) kill() {
	if d.stopped {
		return
	}
	d.stopped = true
	d.cmd.Process.Kill()
	<-d.exited
	d.control.CloseIdleConnections()
}

// stop is the graceful path: note the peak resident set, SIGTERM, wait
// for the exit (ingestd drains and writes its final checkpoint first),
// and note how long that took.
func (d *daemon) stop() error {
	if d.stopped {
		return nil
	}
	var err error
	if d.peakRSSMB, err = procPeakRSSMB(d.pid()); err != nil {
		return err
	}
	d.stopped = true
	d.control.CloseIdleConnections()
	start := time.Now()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		<-d.exited
		return fmt.Errorf("signal ingestd: %w", err)
	}
	select {
	case <-d.exited:
	case <-time.After(60 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
		return fmt.Errorf("ingestd ignored SIGTERM for 60s")
	}
	d.stopTook = time.Since(start)
	if d.waitErr != nil {
		return fmt.Errorf("ingestd exit: %v: %s", d.waitErr, d.stderr.String())
	}
	return nil
}

// daemonStats is the part of ingestd's /stats reply the benchmark reads.
type daemonStats struct {
	Shards  int `json:"shards"`
	Metrics struct {
		Enqueued  uint64 `json:"enqueued"`
		Dropped   uint64 `json:"dropped"`
		Processed uint64 `json:"processed"`
	} `json:"metrics"`
	UDP struct {
		Datagrams uint64 `json:"datagrams"`
		Events    uint64 `json:"events"`
	} `json:"udp"`
	Tier *struct {
		Budget        int64  `json:"budget_bytes"`
		Chunks        int    `json:"chunks"`
		ResidentBytes int64  `json:"resident_bytes"`
		FilterProbes  uint64 `json:"filter_probes"`
		FilterSkips   uint64 `json:"filter_skips"`
		ChunkLoads    uint64 `json:"chunk_loads"`
	} `json:"tier"`
	UniqueAddrs  int    `json:"unique_addrs"`
	UniqueIIDs   int    `json:"unique_iids"`
	Observations uint64 `json:"observations"`
}

func (d *daemon) getJSON(c *http.Client, path string, into any) error {
	resp, err := c.Get(d.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("GET %s: %s: %s", path, resp.Status, bytes.TrimSpace(body))
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

func (d *daemon) stats() (daemonStats, error) {
	var s daemonStats
	err := d.getJSON(d.control, "/stats", &s)
	return s, err
}

// waitStats polls /stats every millisecond until ok says the reply is
// the awaited one, and returns that reply and when it was seen.
func (d *daemon) waitStats(ctx context.Context, ok func(daemonStats) bool) (daemonStats, time.Time, error) {
	for {
		s, err := d.stats()
		if err != nil {
			return s, time.Time{}, err
		}
		if ok(s) {
			return s, time.Now(), nil
		}
		select {
		case <-d.exited:
			return s, time.Time{}, fmt.Errorf("ingestd exited: %v: %s", d.waitErr, d.stderr.String())
		case <-ctx.Done():
			return s, time.Time{}, fmt.Errorf("waiting on /stats (udp.events=%d processed=%d observations=%d): %w",
				s.UDP.Events, s.Metrics.Processed, s.Observations, ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
}

// snapshotReply is ingestd's POST /snapshot reply.
type snapshotReply struct {
	Bytes  int64 `json:"bytes"`
	Millis int64 `json:"millis"`
}

func (d *daemon) postSnapshot() (snapshotReply, error) {
	var r snapshotReply
	resp, err := d.control.Post(d.base+"/snapshot", "text/plain", nil)
	if err != nil {
		return r, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return r, fmt.Errorf("POST /snapshot: %s: %s", resp.Status, bytes.TrimSpace(body))
	}
	return r, json.NewDecoder(resp.Body).Decode(&r)
}

// probeReply is ingestd's GET /probe reply.
type probeReply struct {
	Found   bool   `json:"found"`
	First   int64  `json:"first"`
	Last    int64  `json:"last"`
	Count   uint32 `json:"count"`
	Servers uint32 `json:"servers"`
}

func (d *daemon) probe(c *http.Client, a addr.Addr) (probeReply, error) {
	var r probeReply
	err := d.getJSON(c, "/probe?addr="+url.QueryEscape(a.String()), &r)
	return r, err
}

// scrape reads /metrics into a map keyed by the series as exposed
// (name plus label set, e.g. `ingest_stage_seconds_sum{stage="categories"}`).
func (d *daemon) scrape() (map[string]float64, error) {
	resp, err := d.control.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return parseExposition(resp.Body)
}

func parseExposition(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		out[line[:sp]] = v
	}
	return out, sc.Err()
}

// sumSeries adds every series of m whose key starts with prefix — all
// label sets of one family.
func sumSeries(m map[string]float64, prefix string) float64 {
	var s float64
	for k, v := range m {
		if strings.HasPrefix(k, prefix) {
			s += v
		}
	}
	return s
}

func maxSeries(m map[string]float64, prefix string) float64 {
	var s float64
	for k, v := range m {
		if strings.HasPrefix(k, prefix) && v > s {
			s = v
		}
	}
	return s
}
