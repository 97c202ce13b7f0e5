package main

import (
	"bufio"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// clockProcessCPUTimeID is Linux's CLOCK_PROCESS_CPUTIME_ID.
const clockProcessCPUTimeID = 2

// processCPU returns the CPU time all of the process's threads have used,
// the garbage collector's included. On a virtual machine with steal-time
// accounting the kernel leaves out the time the host gave the virtual CPU
// to someone else, and a thread waiting for a CPU is not charged either,
// so the CPU time of a fixed piece of work does not grow when the shared
// host gets busy, while its wall-clock time does.
func processCPU() time.Duration {
	var ts syscall.Timespec
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		panic("clock_gettime(CLOCK_PROCESS_CPUTIME_ID): " + errno.Error())
	}
	return time.Duration(ts.Nano())
}

// cpuTicks reads the machine-wide busy and steal time from /proc/stat, in
// clock ticks; ok is false where the file is missing.
func cpuTicks() (busy, steal int64, ok bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0, false
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	// user nice system idle iowait irq softirq steal ...
	var v [8]int64
	for i := range v {
		if v[i], err = strconv.ParseInt(fields[i+1], 10, 64); err != nil {
			return 0, 0, false
		}
	}
	return v[0] + v[1] + v[2] + v[5] + v[6], v[7], true
}

// stealMeter reports what share of the machine's non-idle CPU time the
// host took away during a run, for the record printed beside the results.
type stealMeter struct {
	busy, steal int64
	ok          bool
}

func startSteal() stealMeter {
	b, s, ok := cpuTicks()
	return stealMeter{b, s, ok}
}

// pct returns the steal share since start, or -1 where unknown.
func (m stealMeter) pct() float64 {
	b, s, ok := cpuTicks()
	if !ok || !m.ok || b+s-m.busy-m.steal <= 0 {
		return -1
	}
	return 100 * float64(s-m.steal) / float64(b+s-m.busy-m.steal)
}
