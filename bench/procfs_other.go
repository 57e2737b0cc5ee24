//go:build !linux

package main

import (
	"os"
	"time"
)

type udpQueue struct{}

func openUDPQueue(int) (*udpQueue, error)   { return nil, errUnsupported }
func (q *udpQueue) Close() error            { return nil }
func (q *udpQueue) read() (int, int, error) { return 0, 0, errUnsupported }
func procCPUSeconds(int) (float64, error)   { return 0, errUnsupported }
func procPeakRSSMB(int) (float64, error)    { return 0, errUnsupported }
func hostTicks() (uint64, uint64, error)    { return 0, 0, errUnsupported }
func procResetPeakRSS(int) error            { return errUnsupported }
func rmemDefault() (int, error)             { return 0, errUnsupported }
func cpuModel() string                      { return "unknown" }
func kernelRelease() string                 { return "unknown" }
func shrinkPipe(*os.File) error             { return errUnsupported }
func fileID(os.FileInfo) uint64             { return 0 }
func sleepFor(d time.Duration)              { time.Sleep(d) }
