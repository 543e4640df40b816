package main

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// The sim workloads' timings and the fleet's set-up time are CPU time, not
// wall-clock time. On a shared host, wall time also counts the time a
// process waits for a CPU another tenant holds; measured on a 2-vCPU host
// with two busy-looping processes beside it, a sim-light run took 60%
// longer in wall time and 5% less in CPU time. A sim run never waits for
// anything else, so its CPU time is its work. The fleet's request timings
// are wall-clock (see fleet.go), because a request can also wait.

// procCPU is this process's CPU time so far, all threads, user plus system.
func procCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("getrusage: " + err.Error()) // cannot fail with RUSAGE_SELF and a valid pointer
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// threadCPU is the calling OS thread's CPU time so far
// (CLOCK_THREAD_CPUTIME_ID, in nanoseconds). Callers lock the goroutine to
// its thread first. It leaves out work other threads do meanwhile, such as
// the garbage collector's background marking of an earlier phase's heap.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("clock_gettime: " + errno.Error()) // cannot fail for a valid clock id and pointer
	}
	return time.Duration(ts.Nano())
}

// daemonCPU is the CPU time the given processes have used so far: the sum
// over their threads of the scheduler's on-CPU time
// (/proc/<pid>/task/*/schedstat, in nanoseconds).
func daemonCPU(ds ...*daemon) (time.Duration, error) {
	var total time.Duration
	for _, d := range ds {
		tasks, err := filepath.Glob(filepath.Join("/proc", strconv.Itoa(d.cmd.Process.Pid), "task", "*", "schedstat"))
		if err != nil {
			return 0, err
		}
		for _, p := range tasks {
			b, err := os.ReadFile(p)
			if err != nil {
				continue // the thread exited
			}
			f := strings.Fields(string(b))
			if len(f) == 0 {
				continue
			}
			ns, err := strconv.ParseInt(f[0], 10, 64)
			if err != nil {
				return 0, err
			}
			total += time.Duration(ns)
		}
	}
	return total, nil
}
