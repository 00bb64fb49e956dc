package main

import (
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// Linux clock ids (time.h) for CPU-time clocks.
const (
	clockProcessCPU = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThreadCPU  = 3 // CLOCK_THREAD_CPUTIME_ID
)

func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("clock_gettime: " + errno.Error())
	}
	return time.Duration(ts.Nano())
}

// threadCPU returns the CPU time the calling OS thread has used. It only
// measures a goroutine's own work while the goroutine is locked to its
// thread (lockThread). On a virtual machine the kernel leaves out time the
// host ran other guests (steal), which a wall clock counts, so host load
// inflates a single-threaded operation timed this way only through
// contention for caches and memory. Work the Go runtime does on other
// threads, such as background garbage collection, is not included; mark
// assists on the calling thread are.
func threadCPU() time.Duration { return cpuClock(clockThreadCPU) }

// processCPU returns the CPU time all threads of the process have used,
// steal left out, like threadCPU.
func processCPU() time.Duration { return cpuClock(clockProcessCPU) }

// lockThread wires the calling goroutine to its OS thread, so threadCPU
// differences taken on it cover exactly the goroutine's work. The returned
// function undoes it.
func lockThread() func() {
	runtime.LockOSThread()
	return runtime.UnlockOSThread
}
