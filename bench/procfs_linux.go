//go:build linux

package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// udpQueue polls one socket's line of /proc/net/udp through a file kept
// open, so a poll is one pread and no path lookup.
type udpQueue struct {
	f    *os.File
	port int
	buf  []byte
}

func openUDPQueue(port int) (*udpQueue, error) {
	f, err := os.Open("/proc/net/udp")
	if err != nil {
		return nil, err
	}
	return &udpQueue{f: f, port: port, buf: make([]byte, 1<<16)}, nil
}

func (q *udpQueue) Close() error { return q.f.Close() }

// read returns the socket's receive-queue bytes and cumulative drops.
func (q *udpQueue) read() (rxq, drops int, err error) {
	n := 0
	for {
		m, err := q.f.ReadAt(q.buf[n:], int64(n))
		n += m
		if n == len(q.buf) {
			q.buf = append(q.buf, make([]byte, len(q.buf))...)
			continue
		}
		if err != nil || m == 0 {
			break
		}
	}
	return parseProcNetUDP(q.buf[:n], q.port)
}

// procCPUSeconds is the CPU time pid's threads have had so far: the sum
// of the first field of /proc/<pid>/task/*/schedstat, which the kernel
// keeps in nanoseconds. utime+stime of /proc/<pid>/stat is the same
// quantity rounded to 10 ms ticks, which is 1 % of a repeat here and
// makes different runs read exactly alike. A thread that has exited is
// no longer listed; the Go runtime does not retire threads in a run this
// short.
func procCPUSeconds(pid int) (float64, error) {
	paths, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	if err != nil || len(paths) == 0 {
		return 0, fmt.Errorf("no /proc/%d/task/*/schedstat (process exited, or a kernel without scheduler statistics): %v", pid, err)
	}
	var ns uint64
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			continue // the thread exited between the listing and the read
		}
		n, err := parseSchedstat(data)
		if err != nil {
			return 0, err
		}
		ns += n
	}
	return float64(ns) / 1e9, nil
}

// hostTicks reads the machine-wide steal and busy CPU ticks.
func hostTicks() (steal, busy uint64, err error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	return parseProcStat(data)
}

// procPeakRSSMB is the VmHWM of a live pid, in MB. The child's rusage
// cannot stand in for it: Linux folds the parent's resident set at fork
// time into a child's ru_maxrss, and the bench is the larger process.
func procPeakRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	kb, err := parseVmHWM(data)
	return float64(kb) / 1024, err
}

// procResetPeakRSS restarts pid's VmHWM from its current resident set
// (clear_refs value 5), so that the next reading is the peak since now.
func procResetPeakRSS(pid int) error {
	return os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", pid), []byte("5"), 0)
}

// shrinkPipe sets a pipe's capacity to one page, the smallest Linux
// allows.
func shrinkPipe(f *os.File) error {
	const fSetPipeSz = 1031 // F_SETPIPE_SZ
	_, _, errno := syscall.Syscall(syscall.SYS_FCNTL, f.Fd(), fSetPipeSz, uintptr(os.Getpagesize()))
	if errno != 0 {
		return fmt.Errorf("F_SETPIPE_SZ: %w", errno)
	}
	return nil
}

// sleepFor blocks the calling thread in nanosleep(2). The open-loop
// prober times each probe from its due instant, so however late the
// sleep returns is added to every latency it reports; time.Sleep goes
// through the runtime's poller and returned 340 us late at the median
// here, nanosleep 110 us.
func sleepFor(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// fileID is the inode of a file, so an atomically replaced file reads
// as a new one even at the same size and timestamp.
func fileID(info os.FileInfo) uint64 {
	if st, ok := info.Sys().(*syscall.Stat_t); ok {
		return st.Ino
	}
	return 0
}

func rmemDefault() (int, error) {
	data, err := os.ReadFile("/proc/sys/net/core/rmem_default")
	if err != nil {
		return 0, err
	}
	return strconv.Atoi(strings.TrimSpace(string(data)))
}

func cpuModel() string {
	data, _ := os.ReadFile("/proc/cpuinfo")
	for _, line := range bytes.Split(data, []byte("\n")) {
		if bytes.HasPrefix(line, []byte("model name")) {
			if i := bytes.IndexByte(line, ':'); i >= 0 {
				return strings.TrimSpace(string(line[i+1:]))
			}
		}
	}
	return "unknown"
}

func kernelRelease() string {
	data, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	return strings.TrimSpace(string(data))
}
