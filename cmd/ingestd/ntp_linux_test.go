package main

import (
	"net"
	"runtime"
	"syscall"
	"testing"
	"time"
)

// ntpWindow is how many requests BenchmarkNTPSource's client keeps in
// flight: it sends ntpWindow, then reads their replies.
const ntpWindow = 8

// BenchmarkNTPSource sends client requests over loopback through the
// NTP source's real loop — read, decode, answer, write, observe into the
// pipeline — and reports the daemon side's CPU per request, cpu-us/req:
// the process's CPU time less the client's. The client runs on its own
// OS thread with blocking syscalls, so its CPU is that thread's alone
// (getrusage RUSAGE_THREAD). ns/op is the wall time per request.
func BenchmarkNTPSource(b *testing.B) {
	h := startNTPIngest(b, "[::1]:0", time.Now)
	defer h.stop()
	to := &syscall.SockaddrInet6{Port: h.conn.LocalAddr().(*net.UDPAddr).Port, Addr: [16]byte{15: 1}}
	req := encode(b, clientRequest(time.Now()))

	type result struct {
		cpu time.Duration
		err error
	}
	done := make(chan result, 1)
	b.ReportAllocs()
	b.ResetTimer()
	proc0 := rusageCPU(b, syscall.RUSAGE_SELF)
	go func() {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		cpu0 := rusageCPU(b, syscall.RUSAGE_THREAD)
		err := ntpClient(to, req, b.N)
		done <- result{rusageCPU(b, syscall.RUSAGE_THREAD) - cpu0, err}
	}()
	r := <-done
	proc := rusageCPU(b, syscall.RUSAGE_SELF) - proc0
	b.StopTimer()
	if r.err != nil {
		b.Fatal(r.err)
	}
	if got := h.src.replies.Value(); got != uint64(b.N) {
		b.Fatalf("%d replies for %d requests", got, b.N)
	}
	b.ReportMetric(float64(proc-r.cpu)/1e3/float64(b.N), "cpu-us/req")
	b.ReportMetric(float64(r.cpu)/1e3/float64(b.N), "client-cpu-us/req")
}

// ntpClient sends n copies of req to the server at to, ntpWindow at a
// time, and reads a reply to each, on blocking syscalls.
func ntpClient(to *syscall.SockaddrInet6, req []byte, n int) error {
	fd, err := syscall.Socket(syscall.AF_INET6, syscall.SOCK_DGRAM, 0)
	if err != nil {
		return err
	}
	defer syscall.Close(fd)
	tv := syscall.NsecToTimeval(int64(5 * time.Second))
	if err := syscall.SetsockoptTimeval(fd, syscall.SOL_SOCKET, syscall.SO_RCVTIMEO, &tv); err != nil {
		return err
	}
	if err := syscall.Connect(fd, to); err != nil {
		return err
	}
	var in [ntpMaxRequest]byte
	for sent := 0; sent < n; {
		w := min(ntpWindow, n-sent)
		for i := 0; i < w; i++ {
			if err := retryEINTR(func() error { _, err := syscall.Write(fd, req); return err }); err != nil {
				return err
			}
		}
		for i := 0; i < w; i++ {
			if err := retryEINTR(func() error { _, err := syscall.Read(fd, in[:]); return err }); err != nil {
				return err
			}
		}
		sent += w
	}
	return nil
}

// retryEINTR runs call again while the runtime's preemption signal
// interrupts it.
func retryEINTR(call func() error) error {
	for {
		if err := call(); err != syscall.EINTR {
			return err
		}
	}
}

func rusageCPU(tb testing.TB, who int) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		tb.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
