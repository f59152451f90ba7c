package main

import (
	"os/exec"
	"syscall"
)

// processCPU returns this process's user+sys CPU seconds so far.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return seconds(ru.Utime) + seconds(ru.Stime)
}

// usage returns a finished child's user+sys CPU seconds and peak
// resident set in MB.
func usage(cmd *exec.Cmd) (cpu, rssMB float64) {
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0, 0
	}
	return seconds(ru.Utime) + seconds(ru.Stime), float64(ru.Maxrss) * 1024 / 1e6 // Maxrss is in KiB on Linux
}

func seconds(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
