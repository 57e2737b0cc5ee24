package main

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
)

// errUnsupported is what the /proc readers return off Linux: the
// daemon workloads pace on the kernel receive queue and account CPU
// from /proc, so they cannot run elsewhere.
var errUnsupported = errors.New("unsupported platform: the daemon workloads need Linux /proc")

// parseProcNetUDP finds the socket bound to port in the text of
// /proc/net/udp and returns its receive-queue bytes and drop count.
// The columns are: sl local rem st tx:rx tr:when retrnsmt uid timeout
// inode ref pointer drops — local is HEXIP:HEXPORT, rx is hex bytes,
// drops is decimal.
func parseProcNetUDP(data []byte, port int) (rxq, drops int, err error) {
	want := []byte(fmt.Sprintf(":%04X", port))
	for len(data) > 0 {
		var line []byte
		if nl := bytes.IndexByte(data, '\n'); nl < 0 {
			line, data = data, nil
		} else {
			line, data = data[:nl], data[nl+1:]
		}
		f := bytes.Fields(line)
		if len(f) < 13 || !bytes.HasSuffix(f[1], want) {
			continue
		}
		colon := bytes.IndexByte(f[4], ':')
		if colon < 0 {
			return 0, 0, fmt.Errorf("proc/net/udp: bad queue column %q", f[4])
		}
		rx, err := strconv.ParseUint(string(f[4][colon+1:]), 16, 63)
		if err != nil {
			return 0, 0, fmt.Errorf("proc/net/udp: rx_queue: %w", err)
		}
		d, err := strconv.ParseUint(string(f[len(f)-1]), 10, 63)
		if err != nil {
			return 0, 0, fmt.Errorf("proc/net/udp: drops: %w", err)
		}
		return int(rx), int(d), nil
	}
	return 0, 0, fmt.Errorf("proc/net/udp: no socket on port %d", port)
}

// parseSchedstat returns the on-CPU nanoseconds from the text of
// /proc/<pid>/task/<tid>/schedstat: "<run ns> <wait ns> <timeslices>".
func parseSchedstat(data []byte) (ns uint64, err error) {
	f := bytes.Fields(data)
	if len(f) != 3 {
		return 0, fmt.Errorf("proc/schedstat: want 3 fields, got %q", data)
	}
	if ns, err = strconv.ParseUint(string(f[0]), 10, 64); err != nil {
		return 0, fmt.Errorf("proc/schedstat: run time: %w", err)
	}
	return ns, nil
}

// parseVmHWM returns the peak resident set in kB from the text of
// /proc/<pid>/status.
func parseVmHWM(data []byte) (kb uint64, err error) {
	for _, line := range bytes.Split(data, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			f := bytes.Fields(rest)
			if len(f) < 1 {
				break
			}
			return strconv.ParseUint(string(f[0]), 10, 64)
		}
	}
	return 0, errors.New("proc/status: no VmHWM line (process exited?)")
}

// parseProcStat returns, from the "cpu" line of /proc/stat (user nice
// system idle iowait irq softirq steal ...), the ticks in which a CPU
// of this machine had work and the hypervisor ran something else
// (steal), and the ticks in which a CPU had work at all (everything
// but idle and iowait; guest time is already inside user and nice).
func parseProcStat(data []byte) (steal, busy uint64, err error) {
	line, _, _ := bytes.Cut(data, []byte("\n"))
	f := bytes.Fields(line)
	if len(f) < 9 || string(f[0]) != "cpu" {
		return 0, 0, fmt.Errorf("proc/stat: no cpu line with a steal column in %q", line)
	}
	for i, col := range f[1:9] {
		v, err := strconv.ParseUint(string(col), 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("proc/stat: column %d: %w", i+1, err)
		}
		if i != 3 && i != 4 {
			busy += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, busy, nil
}
