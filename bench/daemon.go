package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// bootBudget bounds one daemon boot: exec to the first 200 on /random.
const bootBudget = 90 * time.Second

// daemon is one running trngd process.
type daemon struct {
	cmd  *exec.Cmd
	done chan error // receives cmd.Wait's result once the process exits
	log  *os.File
	base string
	http *http.Client
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// boot starts trngd with the given flags and returns once /random
// answers 200, with the time that took from exec.
func boot(bin string, flags []string, logPath string) (*daemon, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, fmt.Errorf("pick port: %w", err)
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	args := append([]string{"-addr", fmt.Sprintf("127.0.0.1:%d", port)}, flags...)
	d := &daemon{
		cmd:  exec.Command(bin, args...),
		done: make(chan error, 1),
		log:  logf,
		base: fmt.Sprintf("http://127.0.0.1:%d", port),
		http: &http.Client{Timeout: 30 * time.Second},
	}
	d.cmd.Stdout, d.cmd.Stderr = logf, logf
	t0 := time.Now()
	if err := d.cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, fmt.Errorf("start trngd: %w", err)
	}
	go func() { d.done <- d.cmd.Wait() }()
	for {
		if code, _, err := d.get("/random?bytes=16"); err == nil && code == http.StatusOK {
			return d, time.Since(t0), nil
		}
		select {
		case err := <-d.done:
			d.done <- err
			d.stop()
			return nil, 0, fmt.Errorf("trngd exited during boot (%v); log in %s", err, logPath)
		case <-time.After(20 * time.Millisecond):
		}
		if time.Since(t0) > bootBudget {
			d.stop()
			return nil, 0, fmt.Errorf("trngd not serving within %v; log in %s", bootBudget, logPath)
		}
	}
}

// stop sends SIGTERM, waits for the graceful drain, and kills the
// process if it has not exited within 15 s.
func (d *daemon) stop() {
	d.http.CloseIdleConnections()
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-d.done:
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill() // the wait below reports the outcome
		<-d.done
	}
	d.log.Close()
}

// get fetches a path and returns the status and body.
func (d *daemon) get(path string) (int, []byte, error) {
	resp, err := d.http.Get(d.base + path)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// getJSON fetches a path that must answer 200 and decodes it into v.
func (d *daemon) getJSON(path string, v any) error {
	code, b, err := d.get(path)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, code)
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	return nil
}

// post sends an empty POST that must answer 200.
func (d *daemon) post(path string) error {
	resp, err := d.http.Post(d.base+path, "text/plain", nil)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST %s: status %d", path, resp.StatusCode)
	}
	return nil
}

// surfaces is one snapshot of the daemon's own reports.
type surfaces struct {
	metrics   scrape
	health    healthz
	incidents incidents
	proc      procStat
}

// healthz mirrors the /healthz fields the benchmark reads.
type healthz struct {
	Mode   string `json:"mode"`
	Shards []struct {
		State       string `json:"state"`
		Epoch       int64  `json:"epoch"`
		RawBits     uint64 `json:"raw_bits"`
		Quarantines uint64 `json:"quarantines"`
		AssessEpoch int64  `json:"assess_epoch"`
	} `json:"shards"`
	DRBG *struct {
		Kind           string `json:"kind"`
		Conditioner    string `json:"conditioner"`
		ReseedInterval uint64 `json:"reseed_interval"`
		BlockBytes     int    `json:"block_bytes"`
	} `json:"drbg"`
}

// incidents mirrors the /incidents fields the benchmark reads.
type incidents struct {
	LastID    uint64         `json:"last_id"`
	WindowSec float64        `json:"window_seconds"`
	Incidents []incidentView `json:"incidents"`
}

type incidentView struct {
	ID          uint64  `json:"id"`
	Class       string  `json:"class"`
	Resolved    bool    `json:"resolved"`
	BlastRadius int     `json:"blast_radius"`
	MTTRSeconds float64 `json:"mttr_seconds"`
}

// config reads the configuration the traced stack must match from the
// daemon's reports: /healthz, the batch and live /assess reports of the
// last shard (the drill quarantines shard 0, which drops its live
// report), the incident window on /incidents and the journal capacity
// on /metrics.
func (d *daemon) config() (stackConfig, error) {
	var h healthz
	if err := d.getJSON("/healthz", &h); err != nil {
		return stackConfig{}, err
	}
	c := stackConfig{Shards: len(h.Shards), Mode: h.Mode}
	if h.DRBG != nil {
		c.Kind, c.Conditioner = h.DRBG.Kind, h.DRBG.Conditioner
		c.BlockBytes, c.ReseedInterval = h.DRBG.BlockBytes, h.DRBG.ReseedInterval
	}
	var batch, live struct {
		Report struct {
			Bits int `json:"bits"`
		} `json:"report"`
	}
	last := fmt.Sprintf("/assess?shard=%d", len(h.Shards)-1)
	if err := d.getJSON(last, &batch); err != nil {
		return c, err
	}
	if err := d.getJSON(last+"&live=1", &live); err != nil {
		return c, err
	}
	c.AssessBits, c.StreamWindow = batch.Report.Bits, live.Report.Bits
	var in incidents
	if err := d.getJSON("/incidents", &in); err != nil {
		return c, err
	}
	c.IncidentWindow = time.Duration(math.Round(in.WindowSec * float64(time.Second)))
	m, err := d.metrics()
	if err != nil {
		return c, err
	}
	c.JournalCapacity = int(m["trngd_journal_capacity_events"])
	return c, nil
}

// metrics reads /metrics.
func (d *daemon) metrics() (scrape, error) {
	code, body, err := d.get("/metrics")
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", code)
	}
	return parseProm(string(body))
}

// snapshot reads /metrics, /healthz, /incidents and the process's CPU
// and memory.
func (d *daemon) snapshot() (surfaces, error) {
	var s surfaces
	var err error
	if s.metrics, err = d.metrics(); err != nil {
		return s, err
	}
	if err := d.getJSON("/healthz", &s.health); err != nil {
		return s, err
	}
	if err := d.getJSON("/incidents", &s.incidents); err != nil {
		return s, err
	}
	s.proc, err = readProc(d.cmd.Process.Pid)
	return s, err
}

// procStat is a process's CPU time and peak resident memory, read at
// a given time.
type procStat struct {
	at     time.Time
	cpu    time.Duration
	hwmKiB int
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
// times (100 on every Linux architecture Go supports).
const clockTick = 10 * time.Millisecond

// readProc reads utime+stime from /proc/<pid>/stat and VmHWM from
// /proc/<pid>/status.
func readProc(pid int) (procStat, error) {
	p := procStat{at: time.Now()}
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return p, err
	}
	// Fields after the parenthesised command name; utime and stime
	// are fields 14 and 15 of the whole line.
	s := string(stat)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return p, fmt.Errorf("/proc/%d/stat: short line", pid)
	}
	for _, x := range f[11:13] {
		ticks, err := strconv.ParseInt(x, 10, 64)
		if err != nil {
			return p, fmt.Errorf("/proc/%d/stat: %w", pid, err)
		}
		p.cpu += time.Duration(ticks) * clockTick
	}
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return p, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.Atoi(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")))
			if err != nil {
				return p, fmt.Errorf("/proc/%d/status: %w", pid, err)
			}
			p.hwmKiB = kb
		}
	}
	return p, nil
}
